"""Unified MVCC snapshot layer (PR 8) — one copy-on-write mechanism.

Before this module the repo had three ad-hoc versioning schemes: the
PR 3 undo-log (reference) and column-epoch (flat) journals, the PR 5
``ResilientExecutor`` per-attempt checkpoints, and the flat backend's
slab epochs.  This module collapses them into one abstraction:

* :class:`FlatSnapshot` — O(1) creation over the flat column
  stores.  Capture records only the column lengths, the free-list
  length, and the scalar registers (root index, high-water mark,
  ``last_batch_stats``, the audited mark); pre-images are then
  captured copy-on-write at the *first* write to each pre-existing
  slot through the journal seam (``tree._journal``), and the
  master-RNG state at the *first* draw (``save_rng``).
* :class:`ReferenceSnapshot` — the observing undo log for the
  pointer-graph backend (rebuild splices, ancestor metadata, leaf
  relabels), recorded through the same seam.
* :class:`SnapshotState` — a materialized, backend-neutral column
  image: the structural deep-capture fallback for the reference
  backend and the unit of persistence for both.  ``capture()`` walks
  the reference tree preorder into the same 12 columns the flat slab
  uses (plus a ``_nid`` column), so one on-disk format serves every
  backend.

**Restore is bit-for-bit**: structure, shortcut lists, summaries,
``rng_state()`` and ``last_batch_stats`` all equal the captured state
(the contract the differential rig in
:mod:`repro.testing.executor` pins on all three backends).  Live
restores preserve handle identity — flat pre-images hold the original
:class:`~repro.perf.flat_rbsts.FlatLeaf` objects, and reference deep
restores reuse the captured leaf ``BSTNode`` objects — so callers'
handles survive a rollback exactly as they survive a rebuild.

**MVCC via nesting.**  Transactions stack: ``tree._txn`` points at the
innermost open snapshot, each snapshot's ``_outer`` at the next one
out, and the recording seam ``tree._journal`` fans every mutation hook
out to the whole chain (:class:`_Fanout`).  An inner transaction
(e.g. a scrub repair running under a resilience checkpoint) can commit
or roll back independently while the outer checkpoint still observes —
and can still undo — everything the inner one did.  Restoring a
snapshot *without* closing it (``restore(tree)``) rewinds the
structure to the capture epoch while the snapshot keeps observing, so
a bounded-retry supervisor takes ONE snapshot per call and rewinds it
across attempts (see :mod:`repro.resilience.executor`).

Epoch tags: every capture or restore bumps ``tree._snapshot_epoch``;
:class:`SnapshotState` carries the epoch it was cut at, so persisted
images are ordered and a restored tree knows its lineage.

Coverage: :data:`FLAT_SNAPSHOT_COLUMNS` and
:data:`REFERENCE_SNAPSHOT_FIELDS` declare exactly which columns/fields
the snapshot path restores.  A tier-1 test pins them to every
``BSTNode`` slot and every per-slot flat column, and the effects lint
(R202/R204) uses them to say whether a mutation is restorable.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import SnapshotStateError

__all__ = [
    "FLAT_COLUMNS",
    "FLAT_SNAPSHOT_COLUMNS",
    "REFERENCE_SNAPSHOT_FIELDS",
    "SCHEMA",
    "Snapshot",
    "FlatSnapshot",
    "ReferenceSnapshot",
    "SnapshotState",
    "capture",
    "restore",
    "txn_begin",
    "txn_commit",
    "txn_rollback",
]

#: Schema identifier for materialized snapshot states (also the on-disk
#: schema version — see :mod:`repro.snapshots.persist`).
SCHEMA = "repro-snapshot/1"

NIL = -1

#: The flat slab's 12 per-slot columns, in canonical order (also the
#: cell order of a :class:`FlatSnapshot` pre-image).  Shared with
#: :mod:`repro.transactions` — this is the single source of truth.
FLAT_COLUMNS = (
    "_parent",
    "_left",
    "_right",
    "_n_leaves",
    "_depth",
    "_height",
    "_shortcuts",
    "_item",
    "_summary",
    "_active",
    "_low",
    "_handle",
)

#: Every flat-backend column the unified snapshot path restores (the
#: effects lint's covered-column universe).
FLAT_SNAPSHOT_COLUMNS = frozenset(FLAT_COLUMNS) | {"_free"}

#: Every reference-backend ``BSTNode`` field the unified snapshot path
#: restores (``nid`` is immutable after construction and captured in
#: the ``_nid`` column).
REFERENCE_SNAPSHOT_FIELDS = frozenset(
    {
        "nid",
        "parent",
        "left",
        "right",
        "n_leaves",
        "depth",
        "height",
        "shortcuts",
        "item",
        "summary",
        "active",
        "low",
    }
)


def _is_flat(tree: Any) -> bool:
    """Flat-backend detection by duck type (``FlatRBSTS`` exposes
    ``root_index``); avoids importing the perf layer from this
    module."""
    return hasattr(tree, "root_index")


def _bump_epoch(tree: Any) -> int:
    epoch = getattr(tree, "_snapshot_epoch", 0) + 1
    tree._snapshot_epoch = epoch
    return epoch


# ---------------------------------------------------------------------------
# observing snapshots (the COW journals, unified)
# ---------------------------------------------------------------------------


class Snapshot:
    """Base class for observing copy-on-write snapshots.

    A snapshot is *attached* to a tree through the transaction stack
    (:func:`txn_begin`); while attached, the tree's mutation seam calls
    the recording hooks below so the snapshot accumulates exactly the
    pre-images needed to rewind.  ``restore(tree)`` rewinds without
    detaching (the snapshot keeps observing — bounded-retry
    supervisors reuse one snapshot across attempts).
    """

    __slots__ = ("_outer",)

    #: ``True`` for observer-only snapshots (pinned-epoch readers, see
    #: :mod:`repro.snapshots.reader`): they join the stack to record
    #: pre-images but own no rollback duty, so
    #: :func:`repro.transactions._apply_txn` must NOT flatten a writer
    #: batch into them — the batch opens its own nested transaction.
    pinned = False

    def __init__(self) -> None:
        # Next-outer open snapshot in the transaction stack (None when
        # this is the outermost); maintained by txn_begin/txn_commit.
        self._outer: Optional["Snapshot"] = None

    # Subclasses implement the recording hooks they need; the seam only
    # ever calls hooks the corresponding backend emits.
    def restore(self, tree: Any) -> None:
        raise NotImplementedError


class ReferenceSnapshot(Snapshot):
    """Observing undo log for the pointer-graph RBSTS.

    Creation is O(1): only the scalar registers are copied eagerly.
    Rebuilds detach the old subtree intact (old internal nodes are
    never mutated) and only splice one child pointer plus re-place the
    reused leaf objects, so the log records (a) the splice link +
    per-leaf ``(parent, depth, summary, shortcuts)`` pre-images per
    rebuild, (b) ``(n_leaves, height, depth, summary, shortcuts)``
    pre-images per repaired ancestor or scrub-repaired node, (c)
    ``(item, summary)`` pre-images per relabelled leaf.  Restore replays
    the log in reverse and resets the RNG state, node-id counter,
    high-water mark and stats — and is
    *re-armable*: the log survives the rewind, so later mutations stack
    on top and a second restore rewinds to the same capture point.
    """

    __slots__ = (
        "entries",
        "rng_state",
        "next_id",
        "highwater",
        "stats",
        "root",
        "_meta_seen",
    )

    def __init__(self, tree: Any) -> None:
        super().__init__()
        self.entries: List[Tuple[Any, ...]] = []
        self.rng_state = tree._rng.getstate()
        self.next_id = tree._next_id
        self.highwater = tree._n_highwater
        self.stats = dict(tree.last_batch_stats)
        self.root = tree.root
        self._meta_seen: Set[int] = set()

    # -- recording hooks ------------------------------------------------
    def record_rebuild(self, node: Any, parent: Any, leaves: Sequence[Any]) -> None:
        """Called by ``_rebuild_at`` before any mutation: capture the
        splice link and the reused leaves' placement pre-images."""
        self.entries.append(
            (
                "rebuild",
                parent,
                parent is not None and parent.left is node,
                node,
                [
                    (lf, lf.parent, lf.depth, lf.summary, lf.shortcuts)
                    for lf in leaves
                ],
            )
        )

    def record_meta(self, nodes: Sequence[Any]) -> None:
        """Called by the upward/levelized repairs before mutating the
        wound's ``n_leaves``/``height``/``summary``/``shortcuts``, and by
        the scrub repair before it rewrites any of those or ``depth``."""
        seen = self._meta_seen
        entries = self.entries
        for v in nodes:
            key = id(v)
            if key not in seen:
                seen.add(key)
                entries.append(
                    (
                        "meta", v, v.n_leaves, v.height, v.depth, v.summary,
                        v.shortcuts,
                    )
                )

    def record_items(self, leaves: Sequence[Any]) -> None:
        """Called by ``batch_update_items`` before relabelling."""
        self.entries.append(
            ("items", [(lf, lf.item, lf.summary) for lf in leaves])
        )

    # -- restore --------------------------------------------------------
    def restore(self, tree: Any) -> None:
        """Reverse-replay the log; the tree is bit-identical to its
        capture state afterwards (newer nodes become garbage).  The log
        is kept, so the snapshot remains valid for further observation
        and re-restores."""
        for entry in reversed(self.entries):
            tag = entry[0]
            if tag == "rebuild":
                _, parent, was_left, node, pre = entry
                for lf, p, d, summary, shortcuts in pre:
                    lf.parent = p
                    lf.depth = d
                    lf.summary = summary
                    lf.shortcuts = shortcuts
                    lf.left = None
                    lf.right = None
                    lf.height = 0
                    lf.n_leaves = 1
                if parent is None:
                    tree.root = node
                    node.parent = None
                else:
                    if was_left:
                        parent.left = node
                    else:
                        parent.right = node
                    node.parent = parent
            elif tag == "meta":
                _, v, n, h, d, summary, shortcuts = entry
                v.n_leaves = n
                v.height = h
                v.depth = d
                v.summary = summary
                v.shortcuts = shortcuts
            else:  # "items"
                for lf, item, summary in entry[1]:
                    lf.item = item
                    lf.summary = summary
        tree.root = self.root
        tree._rng.setstate(self.rng_state)
        tree._next_id = self.next_id
        tree._n_highwater = self.highwater
        tree.last_batch_stats = dict(self.stats)
        _bump_epoch(tree)


class FlatSnapshot(Snapshot):
    """Epoch snapshot + lazy per-slot pre-images for the flat family.

    Creation is O(1): record the column length, the free-list length
    and the scalar registers.  Slots created after capture live past
    the snapshot length and are discarded by column truncation on
    restore; pre-existing slots get one 12-column pre-image captured
    copy-on-write at their first mutation.  The free list is restored
    with the *min-length tail* trick: entries below the minimum length
    the free list ever reached are untouched originals; every original
    popped below the running minimum is recorded (in index order) and
    re-appended on restore.

    **Pre-image layout.**  All pre-images live in one flat list,
    ``pre``: a saved slot's 12 cells are appended in
    :data:`FLAT_COLUMNS` order, and ``saved`` maps the slot to the
    offset of its first cell (so ``pre[saved[i] + k]`` is column ``k``
    of slot ``i``; ``in``, ``len`` and iteration over ``saved`` name
    the saved slots).  No container is allocated per saved slot.  A
    12-tuple per slot made every first write feed the cyclic GC: one
    contract-churn round saves ~31 k slots under its PT journals, which
    set off 30 generation-0, 3 generation-1 and one full collection (a
    walk of every rake-tree and PT slab cell) per round inside the
    timed batches; the flat list leaves 8 generation-0 collections.
    Hot readers (:meth:`restore`, :meth:`materialize`, the pinned
    overlay, ``FlatRBSTS._dirty_region``) index ``pre`` directly; cold
    ones take :meth:`pre_image`.

    The master-RNG register is copy-on-write as well: every flat entry
    point that draws calls ``save_rng`` through the seam before its
    first draw, so a snapshot under which nothing draws (a pin, a value
    batch) never copies the 625-word generator state.

    Restore is re-armable (pre-images stay valid after a rewind — the
    rewound values ARE the pre-images), and :meth:`materialize` cuts a
    :class:`SnapshotState` of the *capture-epoch* state at any moment,
    even mid-mutation (the persistence unit; pinned reads overlay
    ``pre`` on the live slab lazily instead, :mod:`.reader`).
    """

    __slots__ = (
        "snap_len",
        "saved",
        "pre",
        "free_floor",
        "free_orig",
        "root_index",
        "rng_state",
        "highwater",
        "stats",
        "audited",
    )

    def __init__(self, tree: Any) -> None:
        super().__init__()
        self.snap_len = len(tree._parent)
        # slot -> offset of its 12 cells in ``pre`` (see the class doc).
        self.saved: Dict[int, int] = {}
        self.pre: List[Any] = []
        self.free_floor = len(tree._free)
        self.free_orig: List[int] = []  # F0[free_floor:len(F0)], index order
        self.root_index = tree.root_index
        # Master-RNG state at capture, copied on the first draw under
        # this snapshot (``save_rng``); ``None`` means nothing has drawn
        # since, so the live generator still holds it.
        self.rng_state: Any = None
        self.highwater = tree._n_highwater
        self.stats = dict(tree.last_batch_stats)
        self.audited = tree._audited

    # -- recording hooks ------------------------------------------------
    def save_slot(self, tree: Any, i: int) -> None:
        """Capture slot ``i``'s 12-column pre-image (first call wins;
        slots born after capture need no image)."""
        saved = self.saved
        if i >= self.snap_len or i in saved:
            return
        pre = self.pre
        saved[i] = len(pre)
        pre += (
            tree._parent[i],
            tree._left[i],
            tree._right[i],
            tree._n_leaves[i],
            tree._depth[i],
            tree._height[i],
            tree._shortcuts[i],
            tree._item[i],
            tree._summary[i],
            tree._active[i],
            tree._low[i],
            tree._handle[i],
        )

    def save_slots(self, tree: Any, slots: Sequence[int]) -> None:
        for i in slots:
            self.save_slot(tree, i)

    def pre_image(self, i: int) -> Tuple[Any, ...]:
        """Saved slot ``i``'s 12 cells in :data:`FLAT_COLUMNS` order
        (``KeyError`` if ``i`` was not saved)."""
        off = self.saved[i]
        return tuple(self.pre[off : off + 12])

    def save_rng(self, tree: Any) -> None:
        """Called before any draw from (or reseed of) ``tree._rng``:
        capture the master-RNG state (first call wins)."""
        if self.rng_state is None:
            self.rng_state = tree._rng.getstate()

    def note_free_pops(self, free: List[int], take: int) -> None:
        """Called *before* popping ``take`` entries off the free list:
        record any original entries about to fall below the floor."""
        end = len(free) - take
        if end < self.free_floor:
            self.free_orig[:0] = free[end : self.free_floor]
            self.free_floor = end

    # -- restore --------------------------------------------------------
    def restore(self, tree: Any) -> None:
        """Truncate every column to the capture length, write back the
        saved pre-images, rebuild the free-list tail and reset the
        scalar registers.  Pre-images are kept: the snapshot remains
        valid for further observation and re-restores."""
        snap = self.snap_len
        for name in FLAT_COLUMNS:
            del getattr(tree, name)[snap:]
        pre = self.pre
        for i, off in self.saved.items():
            (
                tree._parent[i],
                tree._left[i],
                tree._right[i],
                tree._n_leaves[i],
                tree._depth[i],
                tree._height[i],
                tree._shortcuts[i],
                tree._item[i],
                tree._summary[i],
                tree._active[i],
                tree._low[i],
                tree._handle[i],
            ) = pre[off : off + 12]
        free = tree._free
        del free[self.free_floor :]
        free.extend(self.free_orig)
        tree.root_index = self.root_index
        if self.rng_state is not None:
            tree._rng.setstate(self.rng_state)
        tree._n_highwater = self.highwater
        tree.last_batch_stats = dict(self.stats)
        tree._audited = self.audited
        _bump_epoch(tree)

    # -- MVCC read path -------------------------------------------------
    def materialize(self, tree: Any) -> "SnapshotState":
        """Cut a :class:`SnapshotState` of the *capture-epoch* version:
        current columns truncated to the capture length with the COW
        pre-images overlaid, plus the reconstructed original free list.
        Valid at any point while attached, so a persistence checkpoint
        or ``PinnedReader.state()`` can cut while the writer mutates."""
        state = SnapshotState.capture(tree)
        n = self.snap_len
        cols = state.columns
        pre = self.pre
        for k, name in enumerate(FLAT_COLUMNS):
            col = cols[name]
            del col[n:]
            for i, off in self.saved.items():
                col[i] = pre[off + k]
        state.n = n
        # free list at capture: untouched prefix + recorded tail.
        state.free = list(tree._free[: self.free_floor]) + list(self.free_orig)
        state.root_index = self.root_index
        if self.rng_state is not None:  # else the live state is it
            state.rng_state = self.rng_state
        state.highwater = self.highwater
        state.stats = dict(self.stats)
        return state


class _Fanout:
    """Recording seam for a stack of open snapshots: forwards every
    mutation hook to each member, innermost first.  Installed as
    ``tree._journal`` whenever more than one snapshot is open, so hot
    paths keep their single ``self._journal is not None`` test."""

    __slots__ = ("members",)

    def __init__(self, members: Sequence[Snapshot]) -> None:
        self.members = tuple(members)

    def save_slot(self, tree: Any, i: int) -> None:
        for m in self.members:
            m.save_slot(tree, i)  # type: ignore[attr-defined]

    def save_slots(self, tree: Any, slots: Sequence[int]) -> None:
        for m in self.members:
            m.save_slots(tree, slots)  # type: ignore[attr-defined]

    def note_free_pops(self, free: List[int], take: int) -> None:
        for m in self.members:
            m.note_free_pops(free, take)  # type: ignore[attr-defined]

    def save_rng(self, tree: Any) -> None:
        for m in self.members:
            m.save_rng(tree)  # type: ignore[attr-defined]

    def record_rebuild(self, node: Any, parent: Any, leaves: Sequence[Any]) -> None:
        for m in self.members:
            m.record_rebuild(node, parent, leaves)  # type: ignore[attr-defined]

    def record_meta(self, nodes: Sequence[Any]) -> None:
        for m in self.members:
            m.record_meta(nodes)  # type: ignore[attr-defined]

    def record_items(self, leaves: Sequence[Any]) -> None:
        for m in self.members:
            m.record_items(leaves)  # type: ignore[attr-defined]


def _chain(innermost: Snapshot) -> List[Snapshot]:
    out: List[Snapshot] = []
    cur: Optional[Snapshot] = innermost
    while cur is not None:
        out.append(cur)
        cur = cur._outer
    return out


def _install_seam(tree: Any) -> None:
    txn = tree._txn
    if txn is None:
        tree._journal = None
    elif txn._outer is None:
        tree._journal = txn
    else:
        tree._journal = _Fanout(_chain(txn))


def txn_begin(tree: Any, snapshot: Snapshot) -> Snapshot:
    """Push ``snapshot`` onto ``tree``'s transaction stack and install
    the recording seam.  Nested opens stack: the new snapshot becomes
    the innermost, and the seam fans mutations out to every open
    snapshot so outer checkpoints keep observing through inner
    transactions."""
    snapshot._outer = getattr(tree, "_txn", None)
    tree._txn = snapshot
    _install_seam(tree)
    return snapshot


def _txn_end(tree: Any, snapshot: Snapshot, *, rewind: bool) -> None:
    if getattr(tree, "_txn", None) is not snapshot:
        raise SnapshotStateError(
            "transaction closed out of order: the snapshot being "
            "committed/rolled back is not the innermost open one"
        )
    if rewind:
        snapshot.restore(tree)
    tree._txn = snapshot._outer
    snapshot._outer = None
    _install_seam(tree)


def txn_commit(tree: Any, snapshot: Snapshot) -> None:
    """Pop ``snapshot`` keeping the mutations.  Outer snapshots (if
    any) have observed everything and can still rewind past it."""
    _txn_end(tree, snapshot, rewind=False)


def txn_rollback(tree: Any, snapshot: Snapshot) -> None:
    """Rewind to ``snapshot``'s capture state and pop it."""
    _txn_end(tree, snapshot, rewind=True)


# ---------------------------------------------------------------------------
# materialized states (deep capture + the persistence unit)
# ---------------------------------------------------------------------------


class SnapshotState:
    """A materialized, backend-neutral snapshot image.

    One column set serves every backend: the flat slab's 12 columns are
    copied directly (plus the free list and ``root_index``); the
    reference backend is deep-captured by a preorder walk into the
    *same* columns — ``_parent``/``_left``/``_right`` become preorder
    indices (``-1`` = nil), ``_shortcuts`` index tuples, and an extra
    ``_nid`` column preserves node ids so restore is bit-for-bit
    including ``_next_id``.

    ``handles`` is ``"live"`` when the ``_handle`` column holds the
    original handle objects (flat :class:`FlatLeaf` proxies / reference
    leaf ``BSTNode`` objects) — a live state restored into its source
    tree preserves handle identity.  States loaded from disk have
    ``handles=None`` (a presence mask was persisted) and restore with
    fresh handles.
    """

    __slots__ = (
        "backend",
        "n",
        "columns",
        "free",
        "root_index",
        "rng_state",
        "next_id",
        "highwater",
        "stats",
        "epoch",
        "handles",
        "source_id",
    )

    def __init__(self) -> None:
        self.backend = ""
        self.n = 0
        self.columns: Dict[str, List[Any]] = {}
        self.free: List[int] = []
        self.root_index = 0
        self.rng_state: Any = None
        self.next_id: Optional[int] = None
        self.highwater = 0
        self.stats: Dict[str, Any] = {}
        self.epoch = 0
        self.handles: Optional[str] = None
        self.source_id: Optional[int] = None

    # -- capture --------------------------------------------------------
    @classmethod
    def capture(cls, tree: Any) -> "SnapshotState":
        """Deep-capture ``tree``'s current state (O(n) copy; the O(1)
        copy-on-write path is :class:`FlatSnapshot` via the transaction
        stack)."""
        state = cls()
        state.epoch = _bump_epoch(tree)
        state.rng_state = tree._rng.getstate()
        state.highwater = tree._n_highwater
        state.stats = dict(tree.last_batch_stats)
        state.handles = "live"
        state.source_id = id(tree)
        if _is_flat(tree):
            state.backend = "flat"
            state.n = len(tree._parent)
            for name in FLAT_COLUMNS:
                state.columns[name] = list(getattr(tree, name))
            state.free = list(tree._free)
            state.root_index = tree.root_index
        else:
            state.backend = "reference"
            state.next_id = tree._next_id
            cls._capture_reference(tree, state)
        return state

    @classmethod
    def _capture_reference(cls, tree: Any, state: "SnapshotState") -> None:
        """Preorder deep walk of the pointer graph into flat columns."""
        order: List[Any] = []
        index: Dict[int, int] = {}
        stack = [tree.root]
        while stack:
            node = stack.pop()
            index[id(node)] = len(order)
            order.append(node)
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)
        state.n = len(order)
        cols: Dict[str, List[Any]] = {name: [] for name in FLAT_COLUMNS}
        cols["_nid"] = []
        for node in order:
            cols["_nid"].append(node.nid)
            cols["_parent"].append(
                NIL if node.parent is None else index[id(node.parent)]
            )
            cols["_left"].append(
                NIL if node.left is None else index[id(node.left)]
            )
            cols["_right"].append(
                NIL if node.right is None else index[id(node.right)]
            )
            cols["_n_leaves"].append(node.n_leaves)
            cols["_depth"].append(node.depth)
            cols["_height"].append(node.height)
            cols["_shortcuts"].append(
                None
                if node.shortcuts is None
                else tuple(index[id(s)] for s in node.shortcuts)
            )
            cols["_item"].append(node.item)
            cols["_summary"].append(node.summary)
            cols["_active"].append(node.active)
            cols["_low"].append(node.low)
            cols["_handle"].append(node if node.left is None else None)
        state.columns = cols
        state.root_index = 0

    # -- restore --------------------------------------------------------
    def restore(self, tree: Any) -> None:
        """Overwrite ``tree`` with this state, bit-for-bit (structure,
        shortcut lists, summaries, RNG state, ``last_batch_stats``).

        Live handle identity is preserved only when restoring into the
        state's source tree; restoring into any other tree (including
        every restore of a loaded-from-disk state) creates fresh
        handles.  Raises :class:`~repro.errors.SnapshotStateError` on a
        backend-family mismatch or an open transaction."""
        if getattr(tree, "_txn", None) is not None:
            raise SnapshotStateError(
                "cannot deep-restore while a transaction is open on the "
                "target (commit or roll back the open snapshot first)"
            )
        target_flat = _is_flat(tree)
        if target_flat != (self.backend == "flat"):
            raise SnapshotStateError(
                f"snapshot backend {self.backend!r} cannot restore into a "
                f"{'flat' if target_flat else 'reference'} tree"
            )
        live = self.handles == "live" and self.source_id == id(tree)
        if target_flat:
            self._restore_flat(tree, live)
        else:
            self._restore_reference(tree, live)
        tree._rng.setstate(self.rng_state)
        tree._n_highwater = self.highwater
        tree.last_batch_stats = dict(self.stats)
        _bump_epoch(tree)

    def _restore_flat(self, tree: Any, live: bool) -> None:
        from ..perf.flat_rbsts import FlatLeaf  # lazy: perf is downstream

        hooks = _io_hooks()
        hooks.restore_begin(tree)
        for name in FLAT_COLUMNS:
            col = getattr(tree, name)
            values = self.columns[name]
            if name == "_handle" and not live:
                values = [
                    FlatLeaf(tree, i) if present else None
                    for i, present in enumerate(values)
                ]
            # Uniform list-protocol replacement: plain lists and
            # SlabColumns both support tail-delete + extend.
            del col[0:]
            col.extend(values)
            hooks.restore_column(tree, name)
        tree._free[:] = list(self.free)
        tree.root_index = self.root_index
        # Replaced outside the snapshot stack: the next supervised
        # audit must walk the whole tree.
        tree._audited = False
        hooks.restore_scalars(tree)

    def _restore_reference(self, tree: Any, live: bool) -> None:
        from ..splitting.node import BSTNode  # lazy: splitting is downstream

        hooks = _io_hooks()
        hooks.restore_begin(tree)
        cols = self.columns
        nids = cols["_nid"]
        handles = cols["_handle"]
        nodes: List[Any] = []
        for i in range(self.n):
            node = handles[i] if live and handles[i] is not None else BSTNode(0)
            node.nid = nids[i]
            nodes.append(node)
        parent, left, right = cols["_parent"], cols["_left"], cols["_right"]
        shortcuts = cols["_shortcuts"]
        for i, node in enumerate(nodes):
            node.parent = None if parent[i] == NIL else nodes[parent[i]]
            node.left = None if left[i] == NIL else nodes[left[i]]
            node.right = None if right[i] == NIL else nodes[right[i]]
            node.n_leaves = cols["_n_leaves"][i]
            node.depth = cols["_depth"][i]
            node.height = cols["_height"][i]
            node.shortcuts = (
                None
                if shortcuts[i] is None
                else [nodes[s] for s in shortcuts[i]]
            )
            node.item = cols["_item"][i]
            node.summary = cols["_summary"][i]
            node.active = cols["_active"][i]
            node.low = cols["_low"][i]
        hooks.restore_column(tree, "_nodes")
        tree.root = nodes[self.root_index]
        tree._next_id = self.next_id
        hooks.restore_scalars(tree)


def _io_hooks() -> Any:
    """The persistence layer's stage-hook singleton (crash-point seam);
    imported lazily to keep core free of persistence concerns."""
    from .persist import IO_HOOKS

    return IO_HOOKS


# ---------------------------------------------------------------------------
# public convenience API
# ---------------------------------------------------------------------------


def capture(tree: Any) -> SnapshotState:
    """Materialize a backend-neutral snapshot of ``tree``'s current
    state (the deep-capture path; use ``tree._txn_begin()`` for the
    O(1) copy-on-write path)."""
    return SnapshotState.capture(tree)


def restore(tree: Any, state: SnapshotState) -> None:
    """Restore ``tree`` to ``state``, bit-for-bit."""
    state.restore(tree)
