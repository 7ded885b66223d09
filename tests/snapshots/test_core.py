"""The unified MVCC snapshot layer: capture/restore bit-for-bit on all
three backends, transaction nesting, re-arming, and MVCC reads."""

import pytest

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.errors import SnapshotStateError
from repro.listprefix.structure import IncrementalListPrefix
from repro.snapshots.core import (
    FLAT_COLUMNS,
    SnapshotState,
    capture,
    restore,
    txn_commit,
    txn_rollback,
)
from repro.snapshots.fuzz import states_equal
from repro.testing.oracles import shape_signature

MONOID = sum_monoid(INTEGER)
BACKENDS = ("reference", "flat")


def make(backend, *, n=12, seed=3):
    return IncrementalListPrefix(MONOID, range(n), seed=seed, backend=backend)


def observe(lp):
    return (
        shape_signature(lp.tree),
        lp.values(),
        lp.rng_state(),
        dict(lp.tree.last_batch_stats),
    )


def churn(lp, seed=0):
    import random

    rng = random.Random(("churn", seed).__repr__())
    n = len(lp.values())
    lp.batch_insert([(rng.randrange(n + 1), rng.randrange(50)) for _ in range(3)])
    lp.delete(lp.handle_at(rng.randrange(len(lp.values()))))
    lp.batch_set([(lp.handle_at(0), 99)])


# ---------------------------------------------------------------------------
# deep capture / restore
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_capture_restore_bit_for_bit(backend):
    lp = make(backend)
    before = observe(lp)
    state = capture(lp.tree)
    churn(lp)
    assert observe(lp) != before
    restore(lp.tree, state)
    assert observe(lp) == before
    lp.check_invariants()


@pytest.mark.parametrize("backend", BACKENDS)
def test_live_restore_preserves_handle_identity(backend):
    lp = make(backend)
    handles = [lp.handle_at(i) for i in range(len(lp.values()))]
    state = capture(lp.tree)
    churn(lp)
    state.restore(lp.tree)
    assert [lp.handle_at(i) for i in range(len(handles))] == handles
    # The surviving handles stay usable.
    lp.delete(handles[2])
    lp.check_invariants()


@pytest.mark.parametrize("backend", ("reference", "flat"))
def test_restore_into_sibling_tree(backend):
    a = make(backend, seed=5)
    b = make(backend, n=3, seed=9)
    state = capture(a.tree)
    state.restore(b.tree)
    assert observe(b) == observe(a)
    b.check_invariants()
    # Not the source tree: handles are fresh, but consistent.
    b.insert(0, -1)
    b.check_invariants()


def test_restore_backend_mismatch_raises():
    ref = make("reference")
    flat = make("flat")
    state = capture(ref.tree)
    with pytest.raises(SnapshotStateError):
        state.restore(flat.tree)
    with pytest.raises(SnapshotStateError):
        capture(flat.tree).restore(ref.tree)


def test_restore_rejected_while_txn_open():
    lp = make("flat")
    state = capture(lp.tree)
    journal = lp.tree._txn_begin()
    try:
        with pytest.raises(SnapshotStateError):
            state.restore(lp.tree)
    finally:
        lp.tree._txn_rollback(journal)


@pytest.mark.parametrize("backend", BACKENDS)
def test_capture_epoch_monotone(backend):
    lp = make(backend)
    s1 = capture(lp.tree)
    s2 = capture(lp.tree)
    assert s2.epoch > s1.epoch
    s1.restore(lp.tree)
    s3 = capture(lp.tree)
    assert s3.epoch > s2.epoch


def test_reference_state_columns_match_flat_schema():
    state = capture(make("reference").tree)
    assert set(state.columns) == set(FLAT_COLUMNS) | {"_nid"}
    assert state.next_id is not None


# ---------------------------------------------------------------------------
# observing snapshots: transactions, nesting, re-arming
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_txn_rollback_and_commit(backend):
    lp = make(backend)
    before = observe(lp)
    snap = lp.tree._txn_begin()
    churn(lp)
    lp.tree._txn_rollback(snap)
    assert observe(lp) == before
    lp.check_invariants()

    snap = lp.tree._txn_begin()
    churn(lp)
    after = observe(lp)
    lp.tree._txn_commit(snap)
    assert observe(lp) == after


@pytest.mark.parametrize("backend", BACKENDS)
def test_txn_restore_is_rearmable(backend):
    """One snapshot rewinds across several attempts — the bounded-retry
    contract."""
    lp = make(backend)
    before = observe(lp)
    snap = lp.tree._txn_begin()
    for attempt in range(3):
        churn(lp, seed=attempt)
        snap.restore(lp.tree)
        assert observe(lp) == before, f"attempt {attempt}"
    lp.tree._txn_commit(snap)
    assert observe(lp) == before
    lp.check_invariants()


@pytest.mark.parametrize("backend", BACKENDS)
def test_nested_txns_commit_inner_rollback_outer(backend):
    lp = make(backend)
    before = observe(lp)
    outer = lp.tree._txn_begin()
    churn(lp, seed=1)
    inner = lp.tree._txn_begin()
    churn(lp, seed=2)
    lp.tree._txn_commit(inner)
    # The outer snapshot observed through the inner one and rewinds
    # past its committed mutations.
    lp.tree._txn_rollback(outer)
    assert observe(lp) == before
    lp.check_invariants()


@pytest.mark.parametrize("backend", BACKENDS)
def test_nested_txns_rollback_inner_only(backend):
    lp = make(backend)
    outer = lp.tree._txn_begin()
    churn(lp, seed=1)
    mid = observe(lp)
    inner = lp.tree._txn_begin()
    churn(lp, seed=2)
    lp.tree._txn_rollback(inner)
    assert observe(lp) == mid
    lp.tree._txn_commit(outer)
    assert observe(lp) == mid
    lp.check_invariants()


def test_out_of_order_close_raises():
    lp = make("flat")
    outer = lp.tree._txn_begin()
    inner = lp.tree._txn_begin()
    with pytest.raises(SnapshotStateError):
        txn_commit(lp.tree, outer)
    txn_rollback(lp.tree, inner)
    txn_commit(lp.tree, outer)


def test_fanout_seam_installed_only_when_nested():
    lp = make("flat")
    assert lp.tree._journal is None
    outer = lp.tree._txn_begin()
    # One open snapshot: the seam is the snapshot itself.
    assert lp.tree._journal is outer
    inner = lp.tree._txn_begin()
    assert type(lp.tree._journal).__name__ == "_Fanout"
    lp.tree._txn_commit(inner)
    assert lp.tree._journal is outer
    lp.tree._txn_commit(outer)
    assert lp.tree._journal is None


# ---------------------------------------------------------------------------
# MVCC read path: materialize the capture-epoch version mid-mutation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ("flat",))
def test_materialize_capture_epoch_version(backend):
    lp = make(backend)
    # Fill the lazy handle cache first: handle proxies are created
    # outside the journal seam, so an unfilled cache at capture time
    # would differ from the materialized view by cache fills alone.
    lp.handles()
    at_capture = capture(lp.tree)
    snap = lp.tree._txn_begin()
    churn(lp)
    # A reader materializes the snapshot's version while the writer's
    # mutations stay live.
    version = snap.materialize(lp.tree)
    assert states_equal(version, at_capture)
    after = observe(lp)
    lp.tree._txn_commit(snap)
    assert observe(lp) == after
    # The materialized image restores a scratch tree to the old state.
    scratch = make(backend, n=2, seed=0)
    version.restore(scratch.tree)
    scratch.check_invariants()
    assert states_equal(SnapshotState.capture(scratch.tree), at_capture)
