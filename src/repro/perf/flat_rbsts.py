"""``FlatRBSTS`` — the RBSTS (§2) over a struct-of-arrays slab.

Layout.  Every tree node is a *slot* in a set of parallel Python lists
(``parent/left/right/n_leaves/depth/height`` as ints, ``-1`` = nil),
plus ``shortcuts`` (interned tuples of slot indices or ``None``),
``item``/``summary`` payload slots and the ``active``/``low`` activation
cells of Theorem 2.1.  A slab allocator with a LIFO free-list recycles
the internal slots discarded by rebuilds, so steady-state batches do no
per-node object allocation at all — the classic flat-layout win the
batch-dynamic-trees literature reports over pointer graphs.

Handles.  Leaf slots are durable across rebuilds (exactly like the
reference implementation's reused leaf objects), and callers hold them
through interned :class:`FlatLeaf` proxies — tiny objects exposing
``item`` (read/write), ``summary`` and ``is_leaf``, so the contraction
and list-prefix layers use the same handle idiom for both backends.

Equivalence contract.  ``FlatRBSTS`` consumes its master RNG in
*exactly* the same order as the reference ``RBSTS`` for the same seed
and operation sequence:

* builds draw one ``random()`` per internal slot in the same LIFO
  placement order;
* single insert/delete walks draw master-RNG coins node by node;
* batch operations draw one 64-bit substream seed per request (in
  request order) and flip each request's coins root-to-leaf from its
  substream — so the single *sorted root-to-leaf sweep* used here to
  locate all sites at once sees bit-identical coins to the reference's
  one-walk-per-request phase;
* disjoint rebuilds run in canonical left-to-right site order off the
  master RNG.

The differential harness (``tests/perf/test_flat_vs_reference.py``)
pins shapes, depths, heights, shortcut lists, summaries, sequence
contents and batch statistics op-for-op under this contract.

Order statistics.  ``leaf_at``/``index_of`` reuse ``n_leaves`` counts
(no list materialisation), and the shortcut-depth schedules come from
the interned cache in :mod:`repro.splitting.shortcuts` — a pure
function of ``(d_v, ρ)`` that the reference used to recompute per node
per rebuild.
"""

from __future__ import annotations

import math
import random
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import (
    EmptyTreeError,
    InvalidParameterError,
    PositionError,
    TreeStructureError,
    UnknownNodeError,
)
from ..pram.frames import SpanTracker
from ..splitting.build import Summarizer
from ..snapshots.core import FlatSnapshot, txn_begin, txn_commit, txn_rollback
from ..snapshots.reader import PinnedReader
from ..transactions import (
    execute_batch,
    not_position,
    validate_batch_delete,
    validate_batch_insert,
    validate_batch_update,
)
from ..splitting.shortcuts import (
    DEFAULT_RATIO,
    presence_threshold,
    shortcut_target_depths,
)

__all__ = ["FlatLeaf", "FlatRBSTS"]

NIL = -1


def _target_pick(depth: int, ratio: float) -> Callable[[List[int]], Tuple[int, ...]]:
    """Getter of a depth-``depth`` slot's shortcut targets off its
    ancestor path (root first), at C speed."""
    targets = shortcut_target_depths(depth, ratio)
    if len(targets) == 1:
        (t,) = targets
        return lambda path: (path[t],)
    return itemgetter(*targets)


class FlatLeaf:
    """Durable handle to a leaf slot of a :class:`FlatRBSTS`.

    Mirrors the reference backend's reused leaf ``BSTNode`` objects:
    the handle stays valid across arbitrary rebuilds until the leaf is
    deleted.  Only the payload is writable through the handle.
    """

    __slots__ = ("tree", "idx")

    def __init__(self, tree: "FlatRBSTS", idx: int) -> None:
        self.tree = tree
        self.idx = idx

    @property
    def is_leaf(self) -> bool:
        return True

    @property
    def item(self) -> Any:
        return self.tree._item[self.idx]

    @item.setter
    def item(self, value: Any) -> None:
        self.tree._item[self.idx] = value

    @property
    def summary(self) -> Any:
        return self.tree._summary[self.idx]

    @property
    def depth(self) -> int:
        return self.tree._depth[self.idx]

    @property
    def n_leaves(self) -> int:
        return 1

    @property
    def nid(self) -> int:
        return self.idx

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlatLeaf({self.idx}, item={self.tree._item[self.idx]!r})"


class FlatRBSTS:
    """Struct-of-arrays RBSTS; public surface mirrors
    :class:`~repro.splitting.rbsts.RBSTS` (select with
    ``RBSTS(items, backend="flat")``)."""

    def __init__(
        self,
        items: Iterable[Any],
        *,
        seed: int = 0,
        summarizer: Optional[Summarizer] = None,
        ratio: float = DEFAULT_RATIO,
    ) -> None:
        items = list(items)
        if not items:
            raise EmptyTreeError("RBSTS requires at least one initial item")
        # Transactional array-epoch journal (transactions.py); ``None``
        # outside a batch transaction.  Set before any build so the
        # construction never journals.
        self._journal: Optional[FlatSnapshot] = None
        # Innermost open snapshot in the transaction stack and the
        # MVCC epoch counter (repro.snapshots.core).
        self._txn: Optional[FlatSnapshot] = None
        self._snapshot_epoch = 0
        # depth -> shortcut-target getter for the audit (``_target_pick``)
        self._target_picks: Dict[int, Callable[[List[int]], Tuple[int, ...]]] = {}
        self._rng = random.Random(seed)
        self.summarizer = summarizer
        self.ratio = ratio
        self._n_highwater = len(items)

        # --- the slab -------------------------------------------------
        self._parent: List[int] = []
        self._left: List[int] = []
        self._right: List[int] = []
        self._n_leaves: List[int] = []
        self._depth: List[int] = []
        self._height: List[int] = []
        self._shortcuts: List[Optional[Tuple[int, ...]]] = []
        self._item: List[Any] = []
        self._summary: List[Any] = []
        self._active: List[int] = []
        self._low: List[Optional[int]] = []
        self._handle: List[Optional[FlatLeaf]] = []
        self._free: List[int] = []

        # Bulk-extend every column once: slots 0..m-1 are the initial
        # leaves (same numbering ``_alloc`` would produce one by one).
        m = len(items)
        nils = [NIL] * m
        nones = [None] * m
        zeros = [0] * m
        self._parent[:] = nils
        self._left[:] = nils
        self._right[:] = nils
        self._n_leaves[:] = [1] * m
        self._depth[:] = zeros
        self._height[:] = zeros
        self._shortcuts[:] = nones
        self._item[:] = items
        self._summary[:] = nones
        self._active[:] = zeros
        self._low[:] = nones
        self._handle[:] = nones
        leaf_slots = list(range(m))
        self.root_index: int = self._build(
            leaf_slots, base_depth=0, path=[], tracker=None
        )
        self.last_batch_stats: Dict[str, Any] = {}
        # Whether the current state is vouched for: the region audit
        # (``check_invariants(since=...)``) trusts only a pre-state that
        # passed a supervised audit or that this constructor just built
        # (the §2 construction lemma, argued in ``check_invariants``).
        # Opening a writer bracket clears it and a rewind restores the
        # capture's value (``FlatSnapshot``).
        self._audited = True

    # ------------------------------------------------------------------
    # slab allocator
    # ------------------------------------------------------------------
    def _alloc(self) -> int:
        free = self._free
        if free:
            journal = self._journal
            if journal is not None:
                journal.note_free_pops(free, 1)
                journal.save_slot(self, free[-1])
            i = free.pop()
            self._parent[i] = NIL
            self._left[i] = NIL
            self._right[i] = NIL
            self._n_leaves[i] = 1
            self._depth[i] = 0
            self._height[i] = 0
            self._shortcuts[i] = None
            self._item[i] = None
            self._summary[i] = None
            self._active[i] = 0
            self._low[i] = None
            return i
        i = len(self._parent)
        self._parent.append(NIL)
        self._left.append(NIL)
        self._right.append(NIL)
        self._n_leaves.append(1)
        self._depth.append(0)
        self._height.append(0)
        self._shortcuts.append(None)
        self._item.append(None)
        self._summary.append(None)
        self._active.append(0)
        self._low.append(None)
        self._handle.append(None)
        return i

    def _free_slot(self, i: int) -> None:
        if self._journal is not None:
            self._journal.save_slot(self, i)
        self._handle[i] = None
        self._free.append(i)

    def _alloc_internals(self, k: int) -> List[int]:
        """Allocate ``k`` slots destined to be internal nodes of one
        build, in bulk.

        Recycled slots get only the fields reset that the build passes
        won't overwrite (``shortcuts``/payload/activation cells); fresh
        slots extend every column once with a single ``list.extend``
        instead of 13 appends per slot — the allocator is the hottest
        non-build code on the batch path.  Pop order off the free list
        matches ``_alloc`` call-by-call, so slot numbering is unchanged.
        """
        free = self._free
        take = min(k, len(free))
        out: List[int] = []
        if take:
            journal = self._journal
            if journal is not None:
                journal.note_free_pops(free, take)
                journal.save_slots(self, free[len(free) - take :])
            shortcuts, item, summary = self._shortcuts, self._item, self._summary
            active, low = self._active, self._low
            append = out.append
            pop = free.pop
            for _ in range(take):
                i = pop()
                shortcuts[i] = None
                item[i] = None
                summary[i] = None
                active[i] = 0
                low[i] = None
                append(i)
        grow = k - take
        if grow:
            base = len(self._parent)
            nils = [NIL] * grow
            nones = [None] * grow
            self._parent.extend(nils)
            self._left.extend(nils)
            self._right.extend(nils)
            self._n_leaves.extend([1] * grow)
            self._depth.extend([0] * grow)
            self._height.extend([0] * grow)
            self._shortcuts.extend(nones)
            self._item.extend(nones)
            self._summary.extend(nones)
            self._active.extend([0] * grow)
            self._low.extend(nones)
            self._handle.extend(nones)
            out.extend(range(base, base + grow))
        return out

    @property
    def slab_size(self) -> int:
        """Total slots ever allocated (observability for tests/benchmarks)."""
        return len(self._parent)

    @property
    def free_slots(self) -> int:
        return len(self._free)

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    @property
    def n_leaves(self) -> int:
        return self._n_leaves[self.root_index]

    @property
    def shortcut_threshold(self) -> int:
        return presence_threshold(self._n_highwater)

    def depth(self) -> int:
        return self._height[self.root_index]

    def rng_state(self) -> Tuple:
        """Opaque master-RNG snapshot (see :meth:`RBSTS.rng_state`); the
        differential fuzzer pins reference/flat RNG-consumption parity
        with it after every operation."""
        return self._rng.getstate()

    def handle(self, idx: int) -> FlatLeaf:
        """The interned handle for leaf slot ``idx`` (created lazily)."""
        h = self._handle[idx]
        if h is None:
            h = FlatLeaf(self, idx)
            self._handle[idx] = h
        return h

    def leaves(self) -> List[FlatLeaf]:
        """All leaf handles left-to-right (O(n), iterative)."""
        return [self.handle(i) for i in self._subtree_leaf_slots(self.root_index)]

    def leaf_at(self, index: int) -> FlatLeaf:
        """Order-statistic descent on the ``n_leaves`` array; O(depth)."""
        note = not_position(index)
        if note or not 0 <= index < self.n_leaves:
            raise PositionError(f"leaf index {index!r}{note} out of range")
        left, right, counts = self._left, self._right, self._n_leaves
        node = self.root_index
        while left[node] != NIL:
            l = left[node]
            k = counts[l]
            if index < k:
                node = l
            else:
                index -= k
                node = right[node]
        return self.handle(node)

    def _check_handle(self, leaf: FlatLeaf) -> int:
        if not isinstance(leaf, FlatLeaf) or leaf.tree is not self:
            raise UnknownNodeError("leaf does not belong to this RBSTS")
        idx = leaf.idx
        if self._handle[idx] is not leaf:
            raise UnknownNodeError("leaf does not belong to this RBSTS")
        return idx

    def index_of(self, leaf: FlatLeaf) -> int:
        """Position of ``leaf`` in the sequence; O(depth), pure array walk."""
        idx = self._check_handle(leaf)
        parent, left, counts = self._parent, self._left, self._n_leaves
        pos = 0
        node = idx
        p = parent[node]
        while p != NIL:
            if left[p] != node:
                pos += counts[left[p]]
            node = p
            p = parent[node]
        if node != self.root_index:
            raise UnknownNodeError("leaf does not belong to this RBSTS")
        return pos

    def contains(self, leaf: FlatLeaf) -> bool:
        try:
            idx = self._check_handle(leaf)
        except UnknownNodeError:
            return False
        parent = self._parent
        node = idx
        while parent[node] != NIL:
            node = parent[node]
        return node == self.root_index

    # ------------------------------------------------------------------
    # traversal helpers
    # ------------------------------------------------------------------
    def _subtree_leaf_slots(self, node: int) -> List[int]:
        """Leaf slots of a subtree, left-to-right (iterative)."""
        left, right = self._left, self._right
        if left[node] == NIL:
            return [node]
        out: List[int] = []
        append = out.append
        stack = [node]
        push = stack.append
        pop = stack.pop
        while stack:
            cur = pop()
            l = left[cur]
            if l == NIL:
                append(cur)
            else:
                push(right[cur])
                push(l)
        return out

    def _subtree_slots(self, node: int) -> Tuple[List[int], List[int]]:
        """(leaf slots left-to-right, internal slots) of a subtree."""
        left, right = self._left, self._right
        leaves_out: List[int] = []
        internal_out: List[int] = []
        leaf_append = leaves_out.append
        int_append = internal_out.append
        stack = [node]
        push = stack.append
        pop = stack.pop
        while stack:
            cur = pop()
            l = left[cur]
            if l == NIL:
                leaf_append(cur)
            else:
                int_append(cur)
                push(right[cur])
                push(l)
        return leaves_out, internal_out

    def _root_path(self, node: int) -> List[int]:
        """Proper ancestors of ``node``, indexed by depth."""
        parent = self._parent
        chain: List[int] = []
        cur = parent[node]
        while cur != NIL:
            chain.append(cur)
            cur = parent[cur]
        chain.reverse()
        return chain

    def _subtree_range(self, node: int) -> Tuple[int, int]:
        parent, left, counts = self._parent, self._left, self._n_leaves
        lo = 0
        cur = node
        p = parent[cur]
        while p != NIL:
            if left[p] != cur:
                lo += counts[left[p]]
            cur = p
            p = parent[cur]
        return lo, lo + counts[node]

    # ------------------------------------------------------------------
    # construction kernel (mirrors splitting/build.py op-for-op)
    # ------------------------------------------------------------------
    def _build(
        self,
        leaf_slots: Sequence[int],
        *,
        base_depth: int,
        path: List[int],
        tracker: Optional[SpanTracker],
    ) -> int:
        """Fresh random splitting tree over existing leaf slots.

        RNG contract: one ``random()`` per internal slot, popped in the
        same LIFO order as the reference ``build_subtree``.
        """
        m = len(leaf_slots)
        if m == 0:
            raise InvalidParameterError(
                "cannot build a splitting tree over zero leaves"
            )

        # Fast paths for the tiny rebuilds that dominate batch updates
        # (most coin-fire sites cover one or two leaves).  Heights 0-1
        # never exceed the presence threshold (always >= 1), so no
        # shortcut list can appear; RNG consumption matches the general
        # kernel exactly (one draw per internal node).
        if m == 1:
            root = leaf_slots[0]
            self._left[root] = NIL
            self._right[root] = NIL
            self._height[root] = 0
            self._n_leaves[root] = 1
            self._shortcuts[root] = None
            self._depth[root] = base_depth
            if self.summarizer is not None:
                self._summary[root] = self.summarizer.of_item(self._item[root])
            if tracker is not None:
                tracker.charge(work=1, span=1)
            return root
        # Every build over two or more leaves draws: open snapshots copy
        # the master-RNG state first (copy-on-write, first call wins).
        if self._journal is not None:
            self._journal.save_rng(self)
        if m == 2:
            self._rng.random()  # the root's (degenerate) split draw
            a, b = leaf_slots
            root = self._alloc_internals(1)[0]
            left, right = self._left, self._right
            counts, depth, height = self._n_leaves, self._depth, self._height
            d = base_depth + 1
            for leaf in (a, b):
                left[leaf] = NIL
                right[leaf] = NIL
                height[leaf] = 0
                counts[leaf] = 1
                self._shortcuts[leaf] = None
                depth[leaf] = d
                self._parent[leaf] = root
            left[root] = a
            right[root] = b
            counts[root] = 2
            height[root] = 1
            depth[root] = base_depth
            self._shortcuts[root] = None
            if self.summarizer is not None:
                of_item = self.summarizer.of_item
                items = self._item
                sa = of_item(items[a])
                sb = of_item(items[b])
                summary = self._summary
                summary[a] = sa
                summary[b] = sb
                summary[root] = self.summarizer.monoid.combine(sa, sb)
            if tracker is not None:
                tracker.charge(work=3, span=3)
            return root

        parent, left, right = self._parent, self._left, self._right
        counts, depth, height = self._n_leaves, self._depth, self._height
        shortcuts, summary = self._shortcuts, self._summary
        summarizer = self.summarizer
        items = self._item

        # Reset reused leaf slots (depths assigned by the placement pass).
        if summarizer is not None:
            of_item = summarizer.of_item
            for i in leaf_slots:
                left[i] = NIL
                right[i] = NIL
                height[i] = 0
                counts[i] = 1
                shortcuts[i] = None
                summary[i] = of_item(items[i])
        else:
            for i in leaf_slots:
                left[i] = NIL
                right[i] = NIL
                height[i] = 0
                counts[i] = 1
                shortcuts[i] = None

        if m == 1:
            root = leaf_slots[0]
            depth[root] = base_depth
            if tracker is not None:
                tracker.charge(work=1, span=1)
            return root

        rnd = self._rng.random
        threshold = self.shortcut_threshold
        ratio = self.ratio

        # Pass 1 — top-down placement with uniform random splits.  A
        # splitting tree over m leaves has exactly m - 1 internal nodes,
        # so all slots come from one bulk allocation; three parallel int
        # stacks avoid per-node tuple churn.  ``created`` is consumed in
        # creation order, which lists parents before children.
        created = self._alloc_internals(m - 1)
        root = created[0]
        ci = 1  # cursor into `created`
        depth[root] = base_depth
        s_node = [root]
        s_lo = [0]
        s_hi = [m]
        while s_node:
            node = s_node.pop()
            lo = s_lo.pop()
            hi = s_hi.pop()
            count = hi - lo
            counts[node] = count
            split = lo + 1 + int(rnd() * (count - 1))
            d = depth[node] + 1
            # left child over leaf_slots[lo:split]
            if split - lo == 1:
                child = leaf_slots[lo]
            else:
                child = created[ci]
                ci += 1
                s_node.append(child)
                s_lo.append(lo)
                s_hi.append(split)
            parent[child] = node
            depth[child] = d
            left[node] = child
            # right child over leaf_slots[split:hi]
            if hi - split == 1:
                child = leaf_slots[split]
            else:
                child = created[ci]
                ci += 1
                s_node.append(child)
                s_lo.append(split)
                s_hi.append(hi)
            parent[child] = node
            depth[child] = d
            right[node] = child

        # Mirror the reference's LIFO order *exactly*: build.py pushes
        # the left range then the right range and pops LIFO, so the
        # right subtree is placed first.  The loop above pushes left
        # then right as well — consumption order matches.

        # Pass 2 — bottom-up heights and summaries (created lists
        # parents before children; reverse is a topological order).
        if summarizer is not None:
            combine = summarizer.monoid.combine
            for node in reversed(created):
                l, r = left[node], right[node]
                hl, hr = height[l], height[r]
                height[node] = 1 + (hl if hl >= hr else hr)
                summary[node] = combine(summary[l], summary[r])
        else:
            for node in reversed(created):
                hl, hr = height[left[node]], height[right[node]]
                height[node] = 1 + (hl if hl >= hr else hr)

        # Pass 3 — shortcut lists via a DFS carrying the root path as a
        # depth-indexed array; schedules come from the interned cache.
        # Heights strictly decrease towards the leaves, so once a node's
        # height drops to the threshold nothing below it can carry a
        # shortcut list and the whole subtree is pruned — the DFS visits
        # only the tall skeleton, not all 2m - 1 nodes.  (This changes
        # no output: pruned nodes would fail the height test anyway.)
        wave: List[int] = list(path)
        assert len(wave) == base_depth, "ancestor path must be depth-indexed"
        shortcut_entries = 0
        dfs: List[int] = [root]  # non-negative = enter, ~node = exit
        while dfs:
            entry = dfs.pop()
            if entry < 0:
                wave.pop()
                continue
            node = entry
            if height[node] <= threshold:
                continue  # no shortcut here or anywhere below (leaves incl.)
            if depth[node] > 0:
                targets = shortcut_target_depths(depth[node], ratio)
                shortcuts[node] = tuple([wave[t] for t in targets])
                shortcut_entries += len(targets)
            wave.append(node)
            dfs.append(~node)
            dfs.append(right[node])
            dfs.append(left[node])

        if tracker is not None:
            tracker.charge(
                work=2 * m - 1 + shortcut_entries,
                span=height[root] + int(math.ceil(math.log2(m))) + 1,
            )
        return root

    # ------------------------------------------------------------------
    # rebuild plumbing (mirrors RBSTS._rebuild_at)
    # ------------------------------------------------------------------
    def _rebuild_at(
        self,
        node: int,
        leaf_slots: Sequence[int],
        *,
        forced_split: Optional[int] = None,
        tracker: Optional[SpanTracker] = None,
        dead_internals: Optional[List[int]] = None,
    ) -> int:
        parent_idx = self._parent[node]
        was_left = parent_idx != NIL and self._left[parent_idx] == node
        base_depth = self._depth[node]
        path = self._root_path(node)
        journal = self._journal
        if journal is not None:
            # Pre-images for the splice parent and every reused leaf
            # slot, captured before the build passes overwrite them
            # (slots born inside the transaction are skipped).
            if parent_idx != NIL:
                journal.save_slot(self, parent_idx)
            journal.save_slots(self, leaf_slots)
        threshold = self.shortcut_threshold

        # Recycle the subtree's discarded internal slots *before*
        # building so the slab stays compact (leaf slots are reused by
        # the build itself, exactly like the reference's leaf objects).
        # Internal slots never carry interned handles (handles are
        # cleared when a leaf slot is freed, before any recycling), so
        # one bulk extend replaces per-slot ``_free_slot`` calls.
        if dead_internals is None:
            _, dead_internals = self._subtree_slots(node)
        self._free.extend(dead_internals)

        if forced_split is not None and len(leaf_slots) >= 2:
            s = forced_split
            if not 1 <= s <= len(leaf_slots) - 1:
                raise InvalidParameterError(
                    f"forced split {s} invalid for {len(leaf_slots)} leaves"
                )
            new_root = self._alloc()
            self._depth[new_root] = base_depth
            self._n_leaves[new_root] = len(leaf_slots)
            child_path = path + [new_root]
            lchild = self._build(
                leaf_slots[:s],
                base_depth=base_depth + 1,
                path=child_path,
                tracker=tracker,
            )
            rchild = self._build(
                leaf_slots[s:],
                base_depth=base_depth + 1,
                path=child_path,
                tracker=tracker,
            )
            self._left[new_root] = lchild
            self._right[new_root] = rchild
            self._parent[lchild] = new_root
            self._parent[rchild] = new_root
            self._height[new_root] = 1 + max(
                self._height[lchild], self._height[rchild]
            )
            if self.summarizer is not None:
                self._summary[new_root] = self.summarizer.monoid.combine(
                    self._summary[lchild], self._summary[rchild]
                )
            if base_depth > 0 and self._height[new_root] > threshold:
                targets = shortcut_target_depths(base_depth, self.ratio)
                self._shortcuts[new_root] = tuple(path[t] for t in targets)
        else:
            new_root = self._build(
                leaf_slots,
                base_depth=base_depth,
                path=path,
                tracker=tracker,
            )
        if parent_idx == NIL:
            self.root_index = new_root
            self._parent[new_root] = NIL
        else:
            if was_left:
                self._left[parent_idx] = new_root
            else:
                self._right[parent_idx] = new_root
            self._parent[new_root] = parent_idx
        return new_root

    def _update_upward(self, start: int) -> None:
        parent, left, right = self._parent, self._left, self._right
        counts, height = self._n_leaves, self._height
        chain = self._root_path(start)
        if self._journal is not None:
            self._journal.save_slots(self, chain)
        threshold = self.shortcut_threshold
        summarizer = self.summarizer
        for v in reversed(chain):
            l, r = left[v], right[v]
            counts[v] = counts[l] + counts[r]
            hl, hr = height[l], height[r]
            height[v] = 1 + (hl if hl >= hr else hr)
            if summarizer is not None:
                self._summary[v] = summarizer.monoid.combine(
                    self._summary[l], self._summary[r]
                )
        depth, shortcuts = self._depth, self._shortcuts
        for v in reversed(chain):
            if shortcuts[v] is None and depth[v] > 0 and height[v] > 2 * threshold:
                targets = shortcut_target_depths(depth[v], self.ratio)
                shortcuts[v] = tuple(chain[t] for t in targets)

    # ------------------------------------------------------------------
    # single-request updates (master-RNG walks, Theorem 2.2 rules)
    # ------------------------------------------------------------------
    def insert(
        self, index: int, item: Any, tracker: Optional[SpanTracker] = None
    ) -> FlatLeaf:
        note = not_position(index)
        if note or not 0 <= index <= self.n_leaves:
            raise PositionError(f"insert position {index!r}{note} out of range")
        if self._journal is not None:
            self._journal.save_rng(self)
        left, right, counts = self._left, self._right, self._n_leaves
        rnd = self._rng.random
        new_leaf = self._alloc()
        self._item[new_leaf] = item
        node = self.root_index
        offset = index
        while True:
            m = counts[node]
            if tracker is not None:
                tracker.tick(1)
            if left[node] == NIL or rnd() * m < 1.0:
                self._n_highwater = max(self._n_highwater, self.n_leaves + 1)
                leaf_slots, dead = self._subtree_slots(node)
                leaf_slots.insert(offset, new_leaf)
                forced = min(max(offset, 1), m)
                rebuilt = self._rebuild_at(
                    node,
                    leaf_slots,
                    forced_split=forced,
                    tracker=tracker,
                    dead_internals=dead,
                )
                self.last_batch_stats = {
                    "rebuild_mass": len(leaf_slots),
                    "sites": 1,
                }
                break
            k = counts[left[node]]
            if offset <= k:
                node = left[node]
            else:
                offset -= k
                node = right[node]
        self._update_upward(rebuilt)
        return self.handle(new_leaf)

    def delete(self, leaf: FlatLeaf, tracker: Optional[SpanTracker] = None) -> Any:
        idx = self._check_handle(leaf)
        if self.n_leaves <= 1:
            raise TreeStructureError("cannot delete the last leaf of an RBSTS")
        if self._journal is not None:
            self._journal.save_rng(self)
        left, right, counts = self._left, self._right, self._n_leaves
        rnd = self._rng.random
        j = self.index_of(leaf) + 1  # 1-based rank
        node = self.root_index
        jj = j
        while True:
            if tracker is not None:
                tracker.tick(1)
            k = counts[left[node]]
            target = left[node] if jj <= k else right[node]
            if counts[target] == 1:
                rebuilt = self._rebuild_without(node, idx, tracker)
                break
            if (jj == k or jj == k + 1) and rnd() < 0.5:
                rebuilt = self._rebuild_without(node, idx, tracker)
                break
            if jj <= k:
                node = left[node]
            else:
                jj -= k
                node = right[node]
        self.last_batch_stats = {"rebuild_mass": counts[rebuilt], "sites": 1}
        self._update_upward(rebuilt)
        item = self._item[idx]
        self._free_slot(idx)
        return item

    def _rebuild_without(
        self, node: int, doomed: int, tracker: Optional[SpanTracker]
    ) -> int:
        leaf_slots, dead = self._subtree_slots(node)
        survivors = [x for x in leaf_slots if x != doomed]
        return self._rebuild_at(
            node, survivors, tracker=tracker, dead_internals=dead
        )

    # ------------------------------------------------------------------
    # batch updates — single sorted root-to-leaf sweeps
    # ------------------------------------------------------------------
    def batch_insert(
        self,
        requests: Sequence[Tuple[int, Any]],
        tracker: Optional[SpanTracker] = None,
    ) -> List[FlatLeaf]:
        """Concurrent inserts (transactionally); all indices refer to
        the pre-batch sequence, equal indices land in request order.

        Admission control is identical to the reference backend (see
        :meth:`RBSTS.batch_insert`): an invalid request rejects the
        batch atomically with zero mutation and zero RNG consumption;
        mid-apply exceptions roll the slab back bit-for-bit via the
        array-epoch journal.
        """
        requests = list(requests)
        rejections = validate_batch_insert(self.n_leaves, requests)

        def apply(admitted: Sequence[Tuple[int, Any]]) -> List[FlatLeaf]:
            return self._batch_insert_core(admitted, tracker)

        return execute_batch(
            self, requests, rejections, apply, verb="batch_insert"
        )

    def _batch_insert_core(
        self,
        requests: Sequence[Tuple[int, Any]],
        tracker: Optional[SpanTracker] = None,
    ) -> List[FlatLeaf]:
        """Already-admitted batch insert (single sorted sweep)."""
        if not requests:
            return []
        tracker = tracker if tracker is not None else SpanTracker()
        left, right, counts = self._left, self._right, self._n_leaves

        # Per-request coin substreams, seeded in request order (identical
        # master-RNG consumption to the reference backend).
        if self._journal is not None:
            self._journal.save_rng(self)
        master = self._rng
        coins = [random.Random(master.getrandbits(64)).random for _ in requests]

        # Phase 1 — one coordinated root-to-leaf sweep locates every
        # request's topmost coin success.  The frontier carries, per
        # node, the requests routed into its subtree; each request flips
        # its own substream coins root-to-leaf, exactly as if it had
        # walked alone.
        sites: List[int] = [NIL] * len(requests)
        # ``site_lo[s]`` = index of the first leaf of s's subtree,
        # recorded for free as the sweep descends (global index minus
        # in-subtree offset) — saves one upward walk per site later.
        site_lo: Dict[int, int] = {}
        # frontier entries: (node, [(request_id, offset), ...])
        frontier: List[Tuple[int, List[Tuple[int, int]]]] = [
            (self.root_index, [(r, idx) for r, (idx, _) in enumerate(requests)])
        ]
        while frontier:
            node, reqs = frontier.pop()
            m = counts[node]
            is_leaf = left[node] == NIL
            if is_leaf:
                for r, off in reqs:
                    sites[r] = node
                    site_lo[node] = requests[r][0] - off
                continue
            k = counts[left[node]]
            go_left: List[Tuple[int, int]] = []
            go_right: List[Tuple[int, int]] = []
            for r, off in reqs:
                if coins[r]() * m < 1.0:
                    sites[r] = node
                    site_lo[node] = requests[r][0] - off
                elif off <= k:
                    go_left.append((r, off))
                else:
                    go_right.append((r, off - k))
            if go_right:
                frontier.append((right[node], go_right))
            if go_left:
                frontier.append((left[node], go_left))
        # The sweep *is* the activation procedure; charge its Theorem 2.1
        # bound exactly as the reference does for its per-request walks.
        self._charge_activation(tracker, len(requests))

        # Bulk-allocate the new leaf slots (the rebuilds' leaf-reset
        # pass overwrites every structural field, so the internal-slot
        # allocator is safe for leaves as well).
        new_slots = self._alloc_internals(len(requests))
        item_col = self._item
        for s, (_idx, item) in zip(new_slots, requests):
            item_col[s] = item

        # Phase 2 — merge nested sites (a site inside another site's
        # subtree is subsumed by the topmost one on its root path).
        parent = self._parent
        site_set = set(sites)
        maximal: Dict[int, int] = {}
        for s in sorted(site_set):
            top = s
            cur = parent[s]
            while cur != NIL:
                if cur in site_set:
                    top = cur
                cur = parent[cur]
            maximal[s] = top

        groups: Dict[int, List[Tuple[int, int, int]]] = {}
        for order, ((idx, _item), site) in enumerate(zip(requests, sites)):
            groups.setdefault(maximal[site], []).append(
                (idx, order, new_slots[order])
            )

        # Phase 3 — disjoint rebuilds in canonical left-to-right order.
        # Every group key is a coin-fire site, so ``site_lo`` has it —
        # no upward walks needed to order or offset the rebuilds.
        ordered_sites = sorted(groups, key=site_lo.__getitem__)

        def do_rebuild(site: int) -> int:
            lo = site_lo[site]
            members = sorted(groups[site], key=lambda t: (t[0], t[1]))
            old, dead = self._subtree_slots(site)
            merged: List[int] = []
            mi = 0
            n_members = len(members)
            for pos in range(len(old) + 1):
                while mi < n_members and members[mi][0] - lo == pos:
                    merged.append(members[mi][2])
                    mi += 1
                if pos < len(old):
                    merged.append(old[pos])
            forced = None
            if n_members == 1:
                o = members[0][0] - lo
                forced = min(max(o, 1), len(old))
            return self._rebuild_at(
                site,
                merged,
                forced_split=forced,
                tracker=tracker,
                dead_internals=dead,
            )

        rebuilt_roots = tracker.parallel(
            [(lambda s=site: do_rebuild(s)) for site in ordered_sites]
        )
        rebuild_mass = sum(counts[r] for r in rebuilt_roots)

        # Phase 4 — level-by-level metadata repair on the wound.
        self._levelized_repair(rebuilt_roots, tracker)
        self._n_highwater = max(self._n_highwater, self.n_leaves)
        self.last_batch_stats = {
            "rebuild_mass": rebuild_mass,
            "sites": len(groups),
            "work": tracker.work,
            "span": tracker.span,
        }
        return [self.handle(s) for s in new_slots]

    def batch_delete(
        self,
        leaves: Sequence[FlatLeaf],
        tracker: Optional[SpanTracker] = None,
    ) -> None:
        """Concurrent deletes (by handle, transactionally).

        Admission control mirrors :meth:`RBSTS.batch_delete` exactly —
        identical accept/reject behaviour and rejection reasons on both
        backends.
        """
        leaves = list(leaves)
        rejections = validate_batch_delete(
            self.n_leaves,
            leaves,
            is_leaf=lambda h: isinstance(h, FlatLeaf) and h.is_leaf,
            is_member=self.contains,
        )

        def apply(admitted: Sequence[FlatLeaf]) -> None:
            self._batch_delete_core(admitted, tracker)

        execute_batch(
            self, leaves, rejections, apply, verb="batch_delete"
        )

    def _batch_delete_core(
        self,
        leaves: Sequence[FlatLeaf],
        tracker: Optional[SpanTracker] = None,
    ) -> None:
        """Already-admitted batch delete (single sorted sweep)."""
        if not leaves:
            return
        idxs = [l.idx for l in leaves]
        tracker = tracker if tracker is not None else SpanTracker()
        left, right, counts, parent = (
            self._left,
            self._right,
            self._n_leaves,
            self._parent,
        )
        doomed = set(idxs)

        if self._journal is not None:
            self._journal.save_rng(self)
        master = self._rng
        coins = [random.Random(master.getrandbits(64)).random for _ in idxs]

        self._charge_activation(tracker, len(leaves))

        # Phase 1 — ranks via upward walks, then one sorted sweep down
        # flips each request's stationary deletion coins root-to-leaf.
        ranks = [self.index_of(l) + 1 for l in leaves]  # 1-based
        sites: List[int] = [NIL] * len(idxs)
        # ``site_lo[s]`` = index of the first leaf of s's subtree
        # (global rank minus in-subtree rank), recorded during the
        # descent — saves one upward walk per site later.
        site_lo: Dict[int, int] = {}
        frontier: List[Tuple[int, List[Tuple[int, int]]]] = [
            (self.root_index, sorted(((r, jj) for r, jj in enumerate(ranks)),
                                     key=lambda t: t[1]))
        ]
        while frontier:
            node, reqs = frontier.pop()
            k = counts[left[node]]
            go_left: List[Tuple[int, int]] = []
            go_right: List[Tuple[int, int]] = []
            for r, jj in reqs:
                target = left[node] if jj <= k else right[node]
                if counts[target] == 1:
                    sites[r] = node
                    site_lo[node] = ranks[r] - jj
                elif (jj == k or jj == k + 1) and coins[r]() < 0.5:
                    sites[r] = node
                    site_lo[node] = ranks[r] - jj
                elif jj <= k:
                    go_left.append((r, jj))
                else:
                    go_right.append((r, jj - k))
            if go_right:
                frontier.append((right[node], go_right))
            if go_left:
                frontier.append((left[node], go_left))

        # Phase 2 — merge nested sites; widen fully-doomed sites upward.
        site_set = set(sites)
        final_sites = set()
        for s in sorted(site_set):
            top = s
            cur = parent[s]
            while cur != NIL:
                if cur in site_set:
                    top = cur
                cur = parent[cur]
            final_sites.add(top)

        # Each site's subtree is collected once and the
        # (survivors, dead internals) reused by the rebuild — the
        # reference re-collects per phase; the flat core need not.
        site_cache: Dict[int, Tuple[List[int], List[int]]] = {}

        def site_data(site: int) -> Tuple[List[int], List[int]]:
            data = site_cache.get(site)
            if data is None:
                leaf_slots, dead = self._subtree_slots(site)
                keep = [x for x in leaf_slots if x not in doomed]
                data = site_cache[site] = (keep, dead)
            return data

        changed = True
        while changed:
            changed = False
            for site in sorted(final_sites):
                if not site_data(site)[0]:
                    if parent[site] == NIL:
                        raise TreeStructureError(
                            "cannot delete every leaf of an RBSTS"
                        )
                    final_sites.discard(site)
                    final_sites.add(parent[site])
                    changed = True
            for site in sorted(final_sites):
                cur = parent[site]
                while cur != NIL:
                    if cur in final_sites:
                        final_sites.discard(site)
                        break
                    cur = parent[cur]

        # Phase 3 — disjoint rebuilds in canonical left-to-right order.
        # Sites widened to a parent during phase 2 were never recorded
        # in ``site_lo``; only those fall back to an upward walk.
        def site_key(s: int) -> int:
            lo = site_lo.get(s)
            return lo if lo is not None else self._subtree_range(s)[0]

        ordered_sites = sorted(final_sites, key=site_key)

        def do_rebuild(site: int) -> int:
            keep, dead = site_data(site)
            return self._rebuild_at(
                site, keep, tracker=tracker, dead_internals=dead
            )

        rebuilt_roots = tracker.parallel(
            [(lambda s=site: do_rebuild(s)) for site in ordered_sites]
        )

        self._levelized_repair(rebuilt_roots, tracker)
        for idx in idxs:
            self._free_slot(idx)
        self.last_batch_stats = {
            "rebuild_mass": sum(counts[r] for r in rebuilt_roots),
            "sites": len(rebuilt_roots),
            "work": tracker.work,
            "span": tracker.span,
        }

    # ------------------------------------------------------------------
    # leaf payload updates
    # ------------------------------------------------------------------
    def update_leaf_item(
        self, leaf: FlatLeaf, item: Any, tracker: Optional[SpanTracker] = None
    ) -> None:
        self.batch_update_items([(leaf, item)], tracker)

    def batch_update_items(
        self,
        updates: Sequence[Tuple[FlatLeaf, Any]],
        tracker: Optional[SpanTracker] = None,
    ) -> None:
        """Replace several leaves' payloads (transactionally); mirrors
        :meth:`RBSTS.batch_update_items` admission."""
        updates = list(updates)
        rejections = validate_batch_update(
            updates,
            is_leaf=lambda h: isinstance(h, FlatLeaf) and h.is_leaf,
            is_member=self.contains,
        )

        def apply(admitted: Sequence[Tuple[FlatLeaf, Any]]) -> None:
            self._batch_update_core(admitted, tracker)

        execute_batch(
            self, updates, rejections, apply, verb="batch_update_items"
        )

    def _batch_update_core(
        self,
        updates: Sequence[Tuple[FlatLeaf, Any]],
        tracker: Optional[SpanTracker] = None,
    ) -> None:
        """Already-admitted batch relabel."""
        tracker = tracker if tracker is not None else SpanTracker()
        journal = self._journal
        starts = []
        for leaf, item in updates:
            idx = leaf.idx
            if journal is not None:
                journal.save_slot(self, idx)
            self._item[idx] = item
            if self.summarizer is not None:
                self._summary[idx] = self.summarizer.of_item(item)
            starts.append(idx)
        self._charge_activation(tracker, len(updates))
        self._levelized_repair(starts, tracker)

    # ------------------------------------------------------------------
    # transaction protocol (transactions.py drives these; the stack —
    # including nested opens and the recording-seam fanout — lives in
    # repro.snapshots.core)
    # ------------------------------------------------------------------
    def _txn_begin(self) -> FlatSnapshot:
        journal = FlatSnapshot(self)
        txn_begin(self, journal)
        self._audited = False
        return journal

    def _txn_rollback(self, journal: FlatSnapshot) -> None:
        txn_rollback(self, journal)

    def _txn_commit(self, journal: FlatSnapshot) -> None:
        txn_commit(self, journal)

    def pinned_reader(self, *, monoid: Any = None) -> PinnedReader:
        """A :class:`~repro.snapshots.reader.PinnedReader` (a context
        manager) over the current version: an O(1) epoch pin joins the
        transaction stack, and queries through the reader are O(depth)
        descents over the pinned version (copy-on-write pre-images
        overlaid on the live slab) while later mutations — and their
        rollbacks — proceed.  ``monoid`` (this tree's
        ``summarizer.monoid``) enables the fold reads
        (``prefix``/``range_fold``/``total``)."""
        return PinnedReader(self, monoid=monoid)

    # ------------------------------------------------------------------
    # shared helpers (cost accounting mirrors the reference)
    # ------------------------------------------------------------------
    def _charge_activation(self, tracker: SpanTracker, u: int) -> None:
        n = max(2, self.n_leaves)
        theta = max(1, math.ceil(math.log2(max(2, u * math.log2(n)))))
        span = math.ceil(math.log2(max(2.0, math.log2(n)))) + theta
        procs = max(1, (u * math.ceil(math.log2(n))) // theta)
        tracker.charge(work=span * procs, span=span)

    def _levelized_repair(
        self, starts: Sequence[int], tracker: SpanTracker
    ) -> None:
        parent, left, right = self._parent, self._left, self._right
        counts, height, depth = self._n_leaves, self._height, self._depth
        summarizer = self.summarizer
        wound = set()
        chains: List[List[int]] = []
        for s in starts:
            chain = self._root_path(s)
            chains.append(chain)
            wound.update(chain)
        nodes = sorted(wound, key=lambda v: -depth[v])
        if self._journal is not None:
            self._journal.save_slots(self, nodes)
        for v in nodes:
            l, r = left[v], right[v]
            counts[v] = counts[l] + counts[r]
            hl, hr = height[l], height[r]
            height[v] = 1 + (hl if hl >= hr else hr)
            if summarizer is not None:
                self._summary[v] = summarizer.monoid.combine(
                    self._summary[l], self._summary[r]
                )
        threshold = self.shortcut_threshold
        shortcuts = self._shortcuts
        for chain in chains:
            for v in reversed(chain):
                if (
                    shortcuts[v] is None
                    and depth[v] > 0
                    and height[v] > 2 * threshold
                ):
                    targets = shortcut_target_depths(depth[v], self.ratio)
                    shortcuts[v] = tuple(chain[t] for t in targets)
        size = len(wound) + 1
        tracker.charge(work=size, span=max(1, math.ceil(math.log2(size + 1))))

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def check_invariants(self, since: Optional[FlatSnapshot] = None) -> None:
        """Verify every structural invariant (the reference checks plus
        slab-specific ones: free/live disjointness, handle interning).

        ``since`` is the open snapshot bracketing a batch (the
        supervised post-apply audit passes it).  Every invariant is
        local — it relates a slot to its parent, children or ancestor
        chain — and every mutation inside the bracket goes through the
        snapshot seam, so if the state at ``since``'s capture passed an
        audit, only the batch's dirty region (:meth:`_dirty_region`)
        can break one, and only that region is checked.  The full walk
        runs instead when the capture state is not vouched for
        (``SnapshotState`` restore or persisted load, whose columns come
        from outside the constructor; ``repair`` outside a checkpoint;
        any writer bracket closed without an audit), when the shortcut
        presence threshold moved (it decides which untouched slots must
        carry shortcuts), or when the region is not smaller than the
        slab.

        Why a fresh tree counts as audited:

        * **Construction.** ``__init__`` builds every slot through
          ``_build`` and satisfies every per-slot invariant by
          construction (the §2 lemma; the tier-1
          ``tests/perf/test_flat_construction.py`` pins it for every
          size up to 300 leaves and around 2^12).  That covers the
          trees a serving shard or a session starts with and the one
          a ladder demotion rebuilds from the committed values.
        * **The fault model.** The fault plan draws only inside
          supervised operations, and ``corrupt_journaled_cell`` damages
          only slots the open snapshot saved or saw born, so its damage
          always lies in the region.
        * **Out of scope.** ``plant_metadata_damage`` and
          ``plant_link_damage`` are at-rest damage, scrub's job.  Damage
          planted before the first write is as invisible to the region
          pass as damage planted after any audited write already is.
          It is still caught by a threshold crossing's full walk, by
          ``scrub``, and by every caller without ``since`` (the chaos
          post-run checks, the fuzz oracles, the benchmark's per-round
          check).
        """
        if since is None:
            self._check_all()
            return
        region: Optional[List[int]] = None
        if since.audited and presence_threshold(
            since.highwater
        ) == presence_threshold(self._n_highwater):
            region = self._dirty_region(since)
            if len(region) >= len(self._parent):
                region = None
        if region is None:
            self._check_all()
        else:
            self._check_region(region)
        # Vouch for the state only as the outermost writer bracket: a
        # batch flattening into an outer writer opens no bracket of its
        # own, so nothing would clear the mark after it mutates.
        outer = since._outer
        while outer is not None and outer.pinned:
            outer = outer._outer
        if outer is None:
            self._audited = True

    def _slot_checker(self, free: Set[int]) -> Callable[[int, List[int]], None]:
        """The per-slot invariant checks, shared by the full walk and
        the region pass: ``check(node, path)`` audits live slot
        ``node`` whose ancestors, root first, are ``path`` (``path[t]``
        is the ancestor at depth ``t``)."""
        parent, left, right = self._parent, self._left, self._right
        counts, height, depth = self._n_leaves, self._height, self._depth
        shortcuts, active, low = self._shortcuts, self._active, self._low
        item, summary, handle = self._item, self._summary, self._handle
        limit = 2 * presence_threshold(self._n_highwater)
        ratio, picks = self.ratio, self._target_picks
        summarizer = self.summarizer
        of_item = combine = None
        if summarizer is not None:
            of_item, combine = summarizer.of_item, summarizer.monoid.combine

        def check(node: int, path: List[int]) -> None:
            if node in free:
                raise TreeStructureError(f"live slot {node} is on the free list")
            d = depth[node]
            if d != len(path):
                raise TreeStructureError(
                    f"slot {node} depth {d} != path length {len(path)}"
                )
            l, r = left[node], right[node]
            if l == NIL:
                if r != NIL:
                    raise TreeStructureError("half-internal slot")
                if counts[node] != 1 or height[node] != 0:
                    raise TreeStructureError(
                        f"leaf {node} has n={counts[node]}, h={height[node]}"
                    )
                # §3's exactly-maintained invariant reaches the leaves:
                # summary must equal of_item(item).  A corrupted *root*
                # leaf (single-leaf tree) has no internal combine above
                # it to expose the damage.
                if of_item is not None and summary[node] != of_item(item[node]):
                    raise TreeStructureError(f"bad summary at {node}")
                h = handle[node]
                if h is not None and (h.tree is not self or h.idx != node):
                    raise TreeStructureError(f"mis-interned handle at {node}")
            else:
                if r == NIL:
                    raise TreeStructureError("internal slot missing a child")
                if parent[l] != node or parent[r] != node:
                    raise TreeStructureError("broken parent link")
                if counts[node] != counts[l] + counts[r]:
                    raise TreeStructureError(f"bad n_leaves at {node}")
                hl, hr = height[l], height[r]
                if height[node] != 1 + (hl if hl >= hr else hr):
                    raise TreeStructureError(f"bad height at {node}")
                if combine is not None and combine(
                    summary[l], summary[r]
                ) != summary[node]:
                    raise TreeStructureError(f"bad summary at {node}")
            sc = shortcuts[node]
            if sc is not None:
                if d == 0:
                    raise TreeStructureError("root must not carry shortcuts")
                # Each listed slot must be the ancestor at its target
                # depth; that ancestor's own depth cell is checked at
                # the ancestor.
                pick = picks.get(d)
                if pick is None:
                    pick = picks[d] = _target_pick(d, ratio)
                if sc != pick(path):
                    raise TreeStructureError(
                        f"shortcuts at {node} are not its ancestors at "
                        f"depths {shortcut_target_depths(d, ratio)}"
                    )
            elif d > 0 and height[node] > limit:
                raise TreeStructureError(
                    f"slot {node} (h={height[node]}) must carry shortcuts"
                )
            if active[node] or low[node] is not None:
                raise TreeStructureError(f"stale activation state on {node}")

        return check

    def _walk(self, free: Set[int], within: Optional[Set[int]] = None) -> List[int]:
        """DFS from the root over child links, applying the per-slot
        checks to every slot it reaches; with ``within`` it descends
        only into those slots.  Returns the slots reached (live)."""
        left, right = self._left, self._right
        if self._parent[self.root_index] != NIL:
            raise TreeStructureError("root has a parent")
        check = self._slot_checker(free)
        reached: List[int] = []
        path: List[int] = []
        # (slot, length of its ancestor path)
        stack: List[Tuple[int, int]] = [(self.root_index, 0)]
        while stack:
            node, k = stack.pop()
            del path[k:]
            reached.append(node)
            check(node, path)
            l = left[node]
            if l != NIL:
                path.append(node)
                k += 1
                r = right[node]
                if within is None or r in within:
                    stack.append((r, k))
                if within is None or l in within:
                    stack.append((l, k))
        return reached

    def _check_all(self) -> None:
        """The full walk: every live slot, then the slab accounting
        (live + free == allocated)."""
        free = set(self._free)
        live = len(self._walk(free))
        if live + len(free) != len(self._parent):
            raise TreeStructureError(
                f"slab leak: {live} live + {len(free)} free != "
                f"{len(self._parent)} slots"
            )

    def _written_slots(self, since: FlatSnapshot) -> List[int]:
        """The live slots the batch bracketed by ``since`` wrote: its
        copy-on-write pre-images and the slots born past the capture
        length, less those on the free list now (a slot freed since
        capture sits at or above the free list's floor)."""
        freed = set(self._free[since.free_floor :])
        out = [s for s in since.saved if s not in freed]
        out.extend(
            s for s in range(since.snap_len, len(self._parent))
            if s not in freed
        )
        return out

    def _dirty_region(self, since: FlatSnapshot) -> List[int]:
        """The slots whose checks can see a cell the batch bracketed by
        ``since`` wrote, sorted.  The dirty slots are the pre-existing
        slots it wrote (the copy-on-write pre-images), the slots born
        past the capture length and the free-list entries added since
        capture; a root that changed is among them, and the walk checks
        the root anyway.  A check reads its own slot's cells, its
        children's cells and its ancestors' links, so the region adds
        the parents of every dirty slot and the children of every
        relinked one (born, or a parent/left/right cell changed) —
        before and after the batch.  Below a relinked slot's children
        nothing needs a look: their own checks tie the rest of the
        subtree's depths to theirs."""
        parent, left, right = self._parent, self._left, self._right
        born = range(since.snap_len, len(parent))
        dirty = list(since.saved)
        dirty.extend(born)
        dirty.extend(self._free[since.free_floor :])
        region = set(dirty)
        region.update(map(parent.__getitem__, dirty))
        relinked = list(born)
        pre = since.pre  # cells 0-2 of a pre-image: parent, left, right
        for s, off in since.saved.items():
            p, l, r = pre[off], pre[off + 1], pre[off + 2]
            region.add(p)
            if p != parent[s] or l != left[s] or r != right[s]:
                relinked.append(s)
                region.add(l)
                region.add(r)
        region.update(map(left.__getitem__, relinked))
        region.update(map(right.__getitem__, relinked))
        region.discard(NIL)
        return sorted(region)

    def _check_region(self, region: Sequence[int]) -> None:
        """Check the slots of ``region`` only: the walk descends just
        into the region's parent chains, so it reaches (and checks)
        each live region slot with its ancestors, O(depth) per slot.
        Any region slot it does not reach must be on the free list —
        the slab accounting, slot by slot."""
        parent = self._parent
        spine: Set[int] = set()
        for s in region:
            while s != NIL and s not in spine:
                spine.add(s)
                s = parent[s]
        free = set(self._free)
        live = set(self._walk(free, spine))
        for s in region:
            if s not in live and s not in free:
                raise TreeStructureError(
                    f"slab leak: slot {s} is neither live nor free"
                )
