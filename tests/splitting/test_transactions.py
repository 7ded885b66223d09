"""Transactional batch execution (PR 3 tentpole).

Covers, for *both* backends with identical observable behaviour:

* whole-batch admission control (no mutation, no RNG consumption, and
  ``last_batch_stats`` reset on rejection — the stale-stats regression);
* degenerate batches: empty, size-1, delete-to-minimum, duplicates;
* crash-consistent rollback: a :class:`CrashInjected` raised at an
  interior point of the apply restores the pre-batch state bit-for-bit.
"""

from __future__ import annotations

import pytest

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.errors import (
    BatchHandleError,
    BatchPositionError,
    BatchStructureError,
    BatchValidationError,
    TreeStructureError,
    UnknownNodeError,
)
from repro.listprefix.structure import IncrementalListPrefix
from repro.splitting.rbsts import RBSTS
from repro.testing.crashes import CrashController, CrashInjected, crash_points
from repro.testing.oracles import shape_signature

BACKENDS = ["reference", "flat"]


def make(n=12, *, seed=3, backend="reference"):
    return RBSTS(
        range(n),
        seed=seed,
        backend=backend,
        summarizer=None,
    )


def snapshot(tree):
    return (shape_signature(tree), tree.rng_state(), dict(tree.last_batch_stats))


def assert_unchanged(tree, snap, *, stats_reset=False):
    sig, rng, stats = snap
    assert shape_signature(tree) == sig, "structure mutated"
    assert tree.rng_state() == rng, "RNG consumed"
    if stats_reset:
        assert tree.last_batch_stats == {}, "stats not reset on rejection"
    else:
        assert dict(tree.last_batch_stats) == stats
    tree.check_invariants()


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_rejected_insert_batch_is_atomic(backend):
    tree = make(backend=backend)
    tree.batch_insert([(0, 100)])  # populate last_batch_stats
    snap = snapshot(tree)
    with pytest.raises(BatchPositionError) as ei:
        tree.batch_insert([(1, 7), (99, 8)])
    assert isinstance(ei.value, IndexError)
    assert [r.reason for r in ei.value.rejections] == ["position-out-of-range"]
    assert ei.value.rejections[0].index == 1
    assert_unchanged(tree, snap, stats_reset=True)


@pytest.mark.parametrize("backend", BACKENDS)
def test_rejected_delete_batch_is_atomic(backend):
    tree = make(backend=backend)
    snap = snapshot(tree)
    dup = tree.leaf_at(4)
    with pytest.raises(BatchStructureError) as ei:
        tree.batch_delete([dup, dup])
    assert isinstance(ei.value, TreeStructureError)
    assert [r.reason for r in ei.value.rejections] == ["duplicate-handle"]
    assert_unchanged(tree, snap, stats_reset=True)


@pytest.mark.parametrize("backend", BACKENDS)
def test_foreign_handle_rejected(backend):
    tree = make(backend=backend)
    other = make(backend=backend, seed=9)
    snap = snapshot(tree)
    with pytest.raises(BatchHandleError) as ei:
        tree.batch_delete([other.leaf_at(0)])
    assert isinstance(ei.value, UnknownNodeError)
    assert [r.reason for r in ei.value.rejections] == ["unknown-handle"]
    assert_unchanged(tree, snap, stats_reset=True)
    with pytest.raises(BatchHandleError):
        tree.batch_update_items([(other.leaf_at(1), 5)])
    assert_unchanged(tree, snap, stats_reset=True)


@pytest.mark.parametrize("backend", BACKENDS)
def test_delete_all_leaves_rejected_whole_batch(backend):
    tree = make(3, backend=backend)
    snap = snapshot(tree)
    handles = [tree.leaf_at(i) for i in range(3)]
    with pytest.raises(BatchStructureError) as ei:
        tree.batch_delete(handles)
    assert {r.reason for r in ei.value.rejections} == {"delete-all-leaves"}
    assert len(ei.value.rejections) == 3  # every request marked
    assert_unchanged(tree, snap, stats_reset=True)


def test_rejection_behaviour_identical_across_backends():
    """Same batch, same rejection reasons/indices/order, zero RNG on
    both backends."""
    ref, flat = make(backend="reference"), make(backend="flat")
    bad = [(0, 1), (-2, 2), (999, 3), (True, 4)]
    outs = {}
    for name, tree in (("reference", ref), ("flat", flat)):
        rng0 = tree.rng_state()
        with pytest.raises(BatchPositionError) as ei:
            tree.batch_insert(bad)
        outs[name] = [(r.index, r.reason) for r in ei.value.rejections]
        assert tree.rng_state() == rng0
    assert outs["reference"] == outs["flat"] == [
        (1, "position-out-of-range"),
        (2, "position-out-of-range"),
        (3, "position-out-of-range"),
    ]


# ---------------------------------------------------------------------------
# degenerate batches
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_batches_are_no_ops(backend):
    tree = make(backend=backend)
    snap = snapshot(tree)
    assert tree.batch_insert([]) == []
    assert tree.batch_delete([]) is None
    assert tree.batch_update_items([]) is None
    assert_unchanged(tree, snap)


def test_size_one_batches_identical_across_backends():
    ref, flat = make(backend="reference"), make(backend="flat")
    for tree in (ref, flat):
        (h,) = tree.batch_insert([(5, 77)])
        assert h.item == 77
        tree.batch_update_items([(h, 78)])
        tree.batch_delete([h])
    assert shape_signature(ref) == shape_signature(flat)
    assert ref.rng_state() == flat.rng_state()


@pytest.mark.parametrize("backend", BACKENDS)
def test_delete_to_minimum(backend):
    tree = make(5, backend=backend)
    tree.batch_delete([tree.leaf_at(i) for i in (0, 1, 2, 3)])
    assert tree.n_leaves == 1
    tree.check_invariants()


# ---------------------------------------------------------------------------
# stale last_batch_stats regression (satellite a)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_stale_stats_cleared_on_rejection(backend):
    """Historically a rejected batch left the *previous* batch's
    ``last_batch_stats`` in place, so a caller reading stats after
    catching the error saw a report that looked like its own batch."""
    tree = make(backend=backend)
    tree.batch_insert([(0, 1), (3, 2)])
    stale = dict(tree.last_batch_stats)
    assert stale
    with pytest.raises(BatchValidationError):
        tree.batch_insert([(12345, 9)])
    assert tree.last_batch_stats == {}
    assert tree.last_batch_stats != stale


# ---------------------------------------------------------------------------
# crash-consistent rollback
# ---------------------------------------------------------------------------


def _batch_ops(tree):
    n = tree.n_leaves
    return [
        ("bins", lambda: tree.batch_insert([(0, 50), (n // 2, 51), (n, 52)])),
        ("bdel", lambda: tree.batch_delete(
            [tree.leaf_at(i) for i in (0, n // 2)]
        )),
        ("bset", lambda: tree.batch_update_items(
            [(tree.leaf_at(i), 60 + i) for i in (0, 1, n - 1)]
        )),
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_mid_batch_crash_rolls_back_bit_for_bit(backend):
    """Arm a crash at every feasible interior point of every batch kind
    and check the journal restores the exact pre-batch state."""
    ctl = CrashController()
    fired_total = 0
    with crash_points(ctl):
        for step in range(1, 16):
            tree = make(10, backend=backend)
            tree.batch_insert([(2, 99)])  # populate stats + churn shape
            for what, op in _batch_ops(tree):
                snap = snapshot(tree)
                ctl.arm(step)
                try:
                    op()
                except CrashInjected:
                    fired_total += 1
                    assert_unchanged(tree, snap)
                    # The structure stays fully usable: re-apply cleanly.
                    op()
                finally:
                    ctl.disarm()
                tree.check_invariants()
    assert fired_total > 0, "no crash point ever fired"


def test_crash_rollback_preserves_backend_equivalence():
    """After a crash + rollback + clean re-apply, reference and flat
    are still bit-identical twins (same shapes, same RNG residue)."""
    ctl = CrashController()
    trees = {b: make(8, backend=b) for b in BACKENDS}
    with crash_points(ctl):
        for b, tree in trees.items():
            ctl.arm(2)
            try:
                tree.batch_insert([(0, 7), (8, 8)])
            except CrashInjected:
                tree.batch_insert([(0, 7), (8, 8)])
            finally:
                ctl.disarm()
    ref, flat = trees["reference"], trees["flat"]
    assert shape_signature(ref) == shape_signature(flat)
    assert ref.rng_state() == flat.rng_state()
    assert ref.last_batch_stats == flat.last_batch_stats


# ---------------------------------------------------------------------------
# listprefix pass-through
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_listprefix_batch_passthrough(backend):
    lp = IncrementalListPrefix(
        sum_monoid(INTEGER), [1, 2, 3, 4], backend=backend
    )
    with pytest.raises(BatchPositionError):
        lp.batch_insert([(99, 5)])
    assert lp.values() == [1, 2, 3, 4]
    assert lp.total() == 10
    lp.check_invariants()
