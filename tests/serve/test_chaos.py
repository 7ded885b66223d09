"""Chaos-harness gate + pinned serve-corpus replay.

The chaos gate (``run_chaos`` / the ``chaos`` exercise) is the PR's acceptance
oracle: under injected faults, poison, overload and deadline churn the
service must never lose or double-apply an acked batch, never corrupt
shard state (``check_invariants`` + sequential-oracle parity), shed and
reject deterministically per seed, and quarantine exactly the poisoned
requests.  The ``pinned-serve-*`` corpus entries freeze four regimes
(shed, quarantine, demotion, breaker) digest-for-digest; the unified
corpus replay asserts each digest, and this file checks the set.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.serve.chaos import (
    CHAOS,
    COVERAGE_CLASSES,
    ChaosConfig,
    config_for_seed,
    run_chaos,
)
from repro.serve.loadgen import PoisonPill, generate_specs
from repro.testing.corpus import corpus_paths, load_entry

# Seeds chosen (scan over 0..79, all green) to jointly cover every
# behaviour regime: quarantine+shed (2), demotion (10), timeout (22),
# breaker-open/circuit-open/failed (36).
GATE_SEEDS = (2, 10, 22, 36)


@pytest.mark.parametrize("seed", GATE_SEEDS)
def test_chaos_gate_holds_and_is_digest_deterministic(seed):
    outcome = CHAOS.run_seed(seed, 150)
    assert outcome.ok, f"seed {seed}: {outcome.failure}"
    assert len(outcome.detail.digest) == 16


def test_gate_seeds_jointly_cover_the_failure_matrix():
    observed = {}
    for seed in GATE_SEEDS:
        report = run_chaos(config_for_seed(seed, 150))
        assert report.ok, f"seed {seed}: {report.failure}"
        for cls, hit in report.observed.items():
            observed[cls] = observed.get(cls, False) or bool(hit)
    for cls in ("applied", "rejected", "shed", "timeout", "quarantined",
                "failed", "breaker-open", "demotion", "fault-fired"):
        assert observed.get(cls), f"gate seeds never exercised {cls!r}"


def test_quarantine_isolates_exactly_the_poisoned_requests():
    cfg = ChaosConfig(
        seed=101, n_requests=80, n_shards=2, poison_rate=0.15,
        invalid_rate=0.0, fault_rate=0.0, shed_highwater=1.0,
        queue_capacity=512,
    )
    report = run_chaos(cfg)
    assert report.ok, report.failure
    assert report.statuses.get("quarantined", 0) > 0
    # Nothing here sheds, expires, rejects or faults, so every pill
    # reaches admission: the quarantined ids are exactly the request
    # ids whose spec carries a PoisonPill.
    specs = generate_specs(
        cfg.seed, cfg.n_requests, cfg.n_shards, profile=cfg.profile,
        zipf_s=cfg.zipf_s, poison_rate=cfg.poison_rate,
        invalid_rate=cfg.invalid_rate, deadline_s=cfg.deadline_s,
        deadline_jitter=cfg.deadline_jitter,
    )
    pills = [
        rid for rid, spec in enumerate(specs)
        if isinstance(spec.value, PoisonPill)
    ]
    assert report.quarantined_ids == pills


def test_clean_config_applies_everything():
    cfg = ChaosConfig(
        seed=5, n_requests=60, n_shards=2, poison_rate=0.0,
        invalid_rate=0.0, fault_rate=0.0, shed_highwater=1.0,
        queue_capacity=512, deadline_s=None,
    )
    report = run_chaos(cfg)
    assert report.ok, report.failure
    assert report.statuses.get("shed", 0) == 0
    assert report.statuses.get("failed", 0) == 0
    assert report.statuses.get("quarantined", 0) == 0


# ---------------------------------------------------------------------------
# pinned corpus
# ---------------------------------------------------------------------------


def test_corpus_has_the_four_pinned_regimes():
    pinned = [
        load_entry(p) for p in corpus_paths()
        if os.path.basename(p).startswith("pinned-serve-")
    ]
    assert len(pinned) >= 4
    for data in pinned:
        assert data["exercise"] == "chaos"
        assert set(data["expect"]) >= {
            "digest", "statuses", "shed_ids", "quarantined_ids"
        }
    joined = " ".join(data["note"] for data in pinned)
    for regime in ("shed", "quarantine", "demotion", "breaker"):
        assert regime in joined, f"no pinned entry covers {regime!r}"


# ---------------------------------------------------------------------------
# pinned sweep digests
# ---------------------------------------------------------------------------

#: The decision digests of ``python -m repro.testing.fuzz chaos --seed 0
#: --runs 40 --ops 150`` (the ``make fuzz-serve`` sweep), one per seed.
#: A change to window semantics that moves them on purpose re-pins the
#: file with ``PYTHONPATH=src python tests/serve/test_chaos.py`` and
#: names the change, as it would for the corpus.
DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "chaos_digests.json")
SWEEP_SEEDS = range(40)
SWEEP_OPS = 150


def _sweep():
    reports = [run_chaos(config_for_seed(s, SWEEP_OPS)) for s in SWEEP_SEEDS]
    for seed, report in zip(SWEEP_SEEDS, reports):
        assert report.ok, f"seed {seed}: {report.failure}"
    return reports


def test_the_fuzz_serve_sweep_reproduces_its_pinned_digests():
    with open(DIGESTS_PATH) as fh:
        pinned = json.load(fh)["digests"]
    reports = _sweep()
    got = {str(r.config.seed): r.digest for r in reports}
    moved = {s: (pinned.get(s), d) for s, d in got.items() if pinned.get(s) != d}
    assert not moved, f"{len(moved)} digests moved (pinned, now): {moved}"
    assert set(pinned) == set(got)
    observed = {
        cls for r in reports for cls, hit in r.observed.items() if hit
    }
    assert observed >= set(COVERAGE_CLASSES)


if __name__ == "__main__":
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(
            {
                "command": "python -m repro.testing.fuzz chaos --seed 0 "
                f"--runs {len(SWEEP_SEEDS)} --ops {SWEEP_OPS}",
                "digests": {str(r.config.seed): r.digest for r in _sweep()},
            },
            fh,
            indent=1,
            sort_keys=True,
        )
        fh.write("\n")
