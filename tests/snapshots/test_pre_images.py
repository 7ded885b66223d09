"""The flat snapshot's pre-image store: one flat list, no container per
saved slot.

A ``FlatSnapshot`` keeps every copy-on-write pre-image in one list
(``pre``, 12 cells per saved slot) and maps each saved slot to its
offset (``saved``).  Saving a slot must allocate no GC-tracked object:
a tuple per slot fed the cyclic collector on every first write.  The
cells must still read back, through ``pre_image``, exactly what the
live columns held before the batch, and restore them.
"""

from __future__ import annotations

import gc
import random

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.listprefix.structure import IncrementalListPrefix
from repro.perf.flat_rbsts import FlatRBSTS
from repro.snapshots.core import FLAT_COLUMNS, FlatSnapshot

MONOID = sum_monoid(INTEGER)


def _tracked_objects() -> int:
    return len(gc.get_objects())


def test_saving_k_slots_allocates_no_container_per_slot():
    tree = IncrementalListPrefix(MONOID, range(2048), seed=4, backend="flat").tree
    k = len(tree._parent)
    assert k >= 4000
    snap = FlatSnapshot(tree)
    half = k // 2
    gc.collect()
    gc.disable()  # keep a collection from untracking what is measured
    try:
        before = _tracked_objects()
        for i in range(half):
            snap.save_slot(tree, i)
        snap.save_slots(tree, range(k))  # the first half again: no-ops
        grown = _tracked_objects() - before
    finally:
        gc.enable()
    assert len(snap.saved) == k
    assert grown <= 8, f"{grown} GC-tracked objects for {k} saved slots"
    assert len(snap.pre) == 12 * k


def test_pre_images_round_trip_the_live_columns_after_a_structural_batch():
    tree = FlatRBSTS(list(range(4096)), seed=9)
    rng = random.Random(9)
    tree.leaves()  # handles are made on first use; make them all now
    before = {name: list(getattr(tree, name)) for name in FLAT_COLUMNS}
    journal = tree._txn_begin()
    tree.batch_insert(
        [(rng.randint(0, tree.n_leaves), -k) for k in range(512)]
    )
    doomed = rng.sample(range(tree.n_leaves), 512)
    tree.batch_delete([tree.leaf_at(i) for i in doomed])
    saved = sorted(journal.saved)
    assert len(saved) >= 1000
    relinked = 0
    for i in saved:
        pre = journal.pre_image(i)
        assert len(pre) == len(FLAT_COLUMNS)
        for name, cell in zip(FLAT_COLUMNS, pre):
            assert cell is before[name][i] or cell == before[name][i], (i, name)
        relinked += pre[:3] != (tree._parent[i], tree._left[i], tree._right[i])
    assert relinked, "the batch must relink some saved slot"
    tree._txn_rollback(journal)
    for i in saved:
        for name, cell in zip(FLAT_COLUMNS, journal.pre_image(i)):
            assert getattr(tree, name)[i] is cell, (i, name)
    for name in FLAT_COLUMNS:
        assert getattr(tree, name) == before[name], name
    tree.check_invariants()
