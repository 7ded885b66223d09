"""Self-verification of the fuzzer: planted bugs must be found & shrunk.

For each planted bug we assert the pipeline:

1. the differential fuzzer *detects* the bug within a few seeds;
2. the shrinker reduces the failing program to <= 12 ops;
3. the shrunk program passes once the bug is removed (i.e. the
   reproducer blames the planted bug, not a latent real bug).
"""

from __future__ import annotations

import pytest

from repro.testing import generate, run_sequence, shrink
from repro.testing.planted import PLANTED

MAX_SHRUNK_OPS = 12
SEEDS = 6
OPS = 60


@pytest.mark.parametrize("bug", sorted(PLANTED))
def test_fault_detected_and_shrunk(bug):
    # Journal bugs only corrupt the rollback path, so the whole
    # pipeline (search, shrink predicate, clean re-run) arms mid-batch
    # crash injection for them; the crash-armed clean run then doubles
    # as a true-rollback check on the shrunk program.
    needs_crash = PLANTED[bug].needs_crash
    profile = "batch" if needs_crash else "default"
    found = None
    for seed in range(SEEDS):
        report = run_sequence(
            generate("list", seed, OPS, profile=profile),
            backend="both",
            planted=bug,
            crash_seed=seed if needs_crash else None,
        )
        if not report.ok:
            found = seed
            break
    assert found is not None, f"planted bug {bug!r} never detected"

    seq = generate("list", found, OPS, profile=profile)
    crash = found if needs_crash else None

    def fails(cand):
        return not run_sequence(
            cand, backend="both", planted=bug, crash_seed=crash
        ).ok

    result = shrink(seq, fails)
    shrunk = result.sequence
    assert len(shrunk.ops) <= MAX_SHRUNK_OPS, (
        f"shrunk reproducer too large: {len(shrunk.ops)} ops"
    )
    # Still fails with the bug ...
    assert not run_sequence(
        shrunk, backend="both", planted=bug, crash_seed=crash
    ).ok
    # ... and passes cleanly without it (same crash schedule).
    clean = run_sequence(shrunk, backend="both", crash_seed=crash)
    assert clean.ok, f"shrunk repro fails without the bug: {clean.failure}"


def test_fault_activation_is_reversible():
    """Patching must restore originals even when the body raises."""
    from repro.perf.flat_rbsts import FlatRBSTS

    original = FlatRBSTS._update_upward
    bug = PLANTED["flat-skip-upward-repair"]
    with pytest.raises(RuntimeError):
        with bug.activate():
            assert FlatRBSTS._update_upward is not original
            raise RuntimeError("boom")
    assert FlatRBSTS._update_upward is original


def test_fault_registry_metadata():
    for name, bug in PLANTED.items():
        assert bug.name == name
        assert bug.description
        assert bug.detected_by
