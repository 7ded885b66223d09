"""The snapshot-restore differential rig and its integration seams:
lockstep capture -> mutate -> restore -> replay on every backend, the
persist-mode codec audit, the fuzzer exercises, and the resilience
executor's one-snapshot-per-call contract."""

import pytest

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.errors import InvalidParameterError, RetryExhaustedError
from repro.resilience.executor import ResiliencePolicy, ResilientListSession
from repro.resilience.faults import FaultPlan
from repro.snapshots.fuzz import fuzz_one, run_exercise
from repro.testing.executor import SNAPSHOT_MODES, run_sequence
from repro.testing.generator import generate

MONOID = sum_monoid(INTEGER)


# ---------------------------------------------------------------------------
# the differential rig
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ("both", "reference", "flat"))
@pytest.mark.parametrize("mode", SNAPSHOT_MODES)
def test_rig_passes_on_every_backend(backend, mode):
    seq = generate("list", 11, 20)
    report = run_sequence(
        seq, backend=backend, snapshot_seed=11, snapshot_mode=mode
    )
    assert report.ok, report.failure
    assert report.snapshots > 0, "rig sampled no operations"


def test_rig_counts_audits_not_ops():
    seq = generate("list", 7, 30)
    plain = run_sequence(seq, backend="flat")
    audited = run_sequence(seq, backend="flat", snapshot_seed=7)
    assert plain.snapshots == 0
    assert 0 < audited.snapshots
    assert audited.ok and plain.ok


def test_snapshot_and_crash_seeds_mutually_exclusive():
    seq = generate("list", 1, 5)
    with pytest.raises(InvalidParameterError):
        run_sequence(seq, crash_seed=1, snapshot_seed=1)


def test_unknown_snapshot_mode_rejected():
    seq = generate("list", 1, 5)
    with pytest.raises(InvalidParameterError):
        run_sequence(seq, snapshot_seed=1, snapshot_mode="bogus")


# ---------------------------------------------------------------------------
# the fuzzer exercises, one deterministic spot check each
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,seed,backend",
    [
        ("differential", 0, "flat"),
        ("save-crash", 0, "flat"),
        ("restore-crash", 0, "flat"),
        ("corruption", 1, "reference"),
    ],
)
def test_fuzz_exercises_spot_checks(name, seed, backend):
    outcome = run_exercise(name, seed, backend=backend)
    assert "overshoot" not in outcome, f"pinned crash no longer fires: {outcome}"


def test_fuzz_one_clean():
    for seed in range(4):  # one full schedule rotation
        outcome, failure = fuzz_one(seed)
        assert failure is None, failure


def test_run_exercise_rejects_unknown():
    with pytest.raises(InvalidParameterError):
        run_exercise("nonsense", 0)
    with pytest.raises(InvalidParameterError):
        run_exercise("differential", 0, backend="gpu")


# ---------------------------------------------------------------------------
# satellite 1 — one snapshot per supervised call, reused across retries
# ---------------------------------------------------------------------------


def drive(session):
    session.batch_insert([(0, 100), (5, 200)])
    session.insert(2, -7)
    session.batch_delete([3, 0])
    session.delete(1)


def test_one_checkpoint_per_call_despite_retries():
    faulted = ResilientListSession(
        MONOID,
        range(24),
        seed=0,
        plan=FaultPlan(2, rate=1.0, sticky_rate=0.0),
    )
    clean = ResilientListSession(MONOID, range(24), seed=0, plan=None)
    drive(faulted)
    drive(clean)
    assert faulted.stats["retries"] >= 1
    # The old implementation re-journaled per attempt: checkpoints grew
    # with retries.  Now a retried call still takes exactly one.
    assert faulted.stats["checkpoints"] == clean.stats["checkpoints"]
    assert faulted.stats["checkpoints"] == 4  # one per supervised call
    assert faulted.stats["rollbacks"] >= faulted.stats["retries"]
    assert faulted.values() == clean.values()
    assert faulted.rng_state() == clean.rng_state()


def test_exhausted_retries_leave_pre_call_state():
    session = ResilientListSession(
        MONOID,
        range(16),
        seed=0,
        policy=ResiliencePolicy(max_retries=1, ladder=("flat",)),
        plan=FaultPlan(1, rate=1.0, sticky_rate=1.0),
    )
    before = session.values()
    with pytest.raises(RetryExhaustedError):
        session.batch_insert([(0, 1), (2, 3)])
    assert session.values() == before
    assert session.stats["checkpoints"] == 1
