"""Smoke tests for the model-based fuzzing subsystem and its driver.

These keep the CI cost low (small op counts); the heavyweight acceptance
loads (3 seeds x 2000 ops) run in the ``fuzz`` CI job.
"""

from __future__ import annotations

import json

import pytest

from repro.testing import corpus, generate, run_sequence
from repro.testing.corpus import entry
from repro.testing.fuzz import exercise, fuzz, main, replay
from repro.testing.ops import OpSequence
from repro.testing.planted import PLANTED

SCENARIOS = ["list", "contraction"]


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("seed", [0, 1])
def test_fuzz_clean_both_backends(scenario, seed):
    n_ops = 120 if scenario == "list" else 25
    report = run_sequence(
        generate(scenario, seed, n_ops), backend="both", check_every=1
    )
    assert report.ok, report.failure
    assert report.ops_executed == n_ops
    assert report.checks == n_ops + 1  # per-op audits + final audit


@pytest.mark.parametrize("backend", ["reference", "flat"])
def test_fuzz_single_backend(backend):
    report = run_sequence(generate("list", 3, 80), backend=backend)
    assert report.ok, report.failure


def test_fuzz_check_every_sparser_audits():
    seq = generate("list", 5, 100)
    dense = run_sequence(seq, backend="both", check_every=1)
    sparse = run_sequence(seq, backend="both", check_every=25)
    assert dense.ok and sparse.ok
    assert sparse.checks < dense.checks


def test_sequential_oracle_agrees():
    report = run_sequence(
        generate("contraction", 2, 20), backend="both", oracle="sequential"
    )
    assert report.ok, report.failure


@pytest.mark.parametrize("ring", ["mod97", "boolean"])
def test_contraction_heavy_profile_clean(ring):
    """The PR6 ``contraction-heavy`` profile replays clean on both
    backends; the boolean run pins the python-kernel fallback."""
    seq = generate(
        "contraction", 9, 25, ring=ring, profile="contraction-heavy"
    )
    assert seq.meta["profile"] == "contraction-heavy"
    report = run_sequence(seq, backend="both", check_every=1)
    assert report.ok, report.failure


def test_contraction_heavy_widens_batches():
    seq = generate("contraction", 4, 60, profile="contraction-heavy")
    widest = max(len(op[1]) for op in seq.ops)
    assert widest > 4  # default profile caps batches at 4


def test_profile_is_scenario_scoped():
    from repro.errors import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        generate("contraction", 0, 10, profile="batch")
    with pytest.raises(InvalidParameterError):
        generate("list", 0, 10, profile="contraction-heavy")


def test_generator_determinism_and_roundtrip():
    a = generate("list", 11, 60)
    b = generate("list", 11, 60)
    assert a.to_json() == b.to_json()
    again = OpSequence.loads(a.dumps())
    assert again.to_json() == a.to_json()
    # JSON payload is plain data (replayable from disk).
    json.loads(a.dumps())


def test_generator_distinct_seeds_differ():
    assert generate("list", 0, 60).to_json() != generate("list", 1, 60).to_json()


def test_cli_main_clean_run():
    rc = main(
        ["differential", "--seed", "0", "--ops", "60", "--backend", "both",
         "--no-save"]
    )
    assert rc == 0


def test_cli_replay_corpus_entry(tmp_path):
    seq = generate("list", 7, 40)
    path = tmp_path / "entry.json"
    data = entry("differential", {"program": seq.to_json(), "backend": "both"})
    path.write_text(json.dumps(data))
    assert main(["--replay", str(path)]) == 0


# One seed cannot witness every class; a wider clean run does.
COVERAGE_RUNS = {
    "differential": (["--scenario", "list", "--ops", "20"], ["--ops", "40"]),
    "recovery": (["--ops", "40"], ["--ops", "40", "--runs", "4"]),
    "snapshots": ([], ["--runs", "5"]),
    "chaos": (["--ops", "100"], ["--ops", "100", "--runs", "30"]),
}


@pytest.mark.parametrize("name", sorted(COVERAGE_RUNS))
def test_require_coverage_gate(name):
    narrow, wide = COVERAGE_RUNS[name]
    gate = [name, "--no-save", "--require-coverage"]
    assert main(gate + narrow) == 2
    assert main(gate + wide) == 0


def test_cli_rejects_options_the_exercise_does_not_take():
    with pytest.raises(SystemExit) as exc:
        main(["recovery", "--backend", "flat", "--no-save"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "name,size", [("recovery", 40), ("snapshots", 20), ("chaos", 100)]
)
def test_reproducer_replays_to_the_same_outcome(tmp_path, name, size):
    ex = exercise(name)
    outcome = ex.run_seed(3, size)
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(ex.reproducer(3, size, outcome)))
    again = replay(str(path))
    assert again.ok, again.failure
    assert again.label == outcome.label


def test_differential_failure_is_shrunk_saved_and_replayable(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "default_corpus_dir", lambda: str(tmp_path))
    with PLANTED["flat-slab-leak"].activate():
        assert fuzz("differential", size=60, scenario="list") == 1
        (path,) = tmp_path.glob("differential-*.json")
        assert not replay(str(path)).ok
    assert len(corpus.load_entry(str(path))["input"]["program"]["ops"]) <= 12
    assert replay(str(path)).ok  # the planted bug is gone

