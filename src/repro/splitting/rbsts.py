"""The random binary splitting tree with shortcuts — RBSTS (§2).

The RBSTS is the paper's workhorse: a full binary tree over a sequence
of leaves whose shape is a *random splitting tree* (every split point
uniform), giving expected depth ``O(log n)`` regardless of update
history, plus the shortcut lists that make processor activation fast
(Theorem 2.1).

Update rules (Theorems 2.2/2.3).  The extended abstract gives the
insertion sketch and defers exact constants; the rules implemented here
are derived to make the RBST distribution *exactly* stationary (the
derivation is in DESIGN.md §2 and verified statistically in
``tests/splitting/test_distribution.py``):

* **insert** at gap ``o`` — walking down, a subtree with ``m`` leaves is
  rebuilt with probability ``1/m``; the rebuild's root split is forced
  to the insertion point (left = old leaves before the gap, right = new
  leaf then the rest, exactly the paper's ``(v_1..v_k), (z, v_{k+1}..)``)
  with both sides rebuilt as fresh uniform RBSTs.  A leaf always
  rebuilds (``1/1``), so the walk terminates.
* **delete** of leaf ``j`` — walking down, if the child containing the
  leaf *is* the leaf, the whole subtree is rebuilt without it; otherwise
  if the leaf is adjacent to the split boundary (``j ∈ {k, k+1}`` for
  split ``k``) the subtree is rebuilt with probability ``1/2``; else
  recurse.  This spreads the double-counted boundary case back to
  uniform (DESIGN.md §2).

Batch operations implement the paper's *parallel* formulation: every
node of the wound ``PT(U)`` flips its coin independently (the marginal
rebuild probability depends only on local ``n_v``, so no sequential walk
is needed), the topmost success on each request's path becomes its
rebuild site, nested sites merge, and disjoint rebuilds then run "in
parallel" with metadata repaired level-by-level — all charged to the
span tracker per the paper's bounds.

Leaf node objects are *reused* across rebuilds, so callers may hold
leaf handles indefinitely (the expression tree and list-prefix layers
depend on this).
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import (
    EmptyTreeError,
    InvalidParameterError,
    PositionError,
    TreeStructureError,
    UnknownNodeError,
)
from ..pram.frames import SpanTracker
from ..snapshots.core import (
    ReferenceSnapshot,
    txn_begin,
    txn_commit,
    txn_rollback,
)
from ..transactions import (
    execute_batch,
    validate_batch_delete,
    validate_batch_insert,
    validate_batch_update,
)
from ..trees.traversal import subtree_leaves as _subtree_leaves
from .build import Summarizer, build_subtree
from .node import BSTNode
from .shortcuts import (
    DEFAULT_RATIO,
    presence_threshold,
    shortcut_target_depths,
    shortcuts_from_path,
)

__all__ = ["RBSTS"]


class RBSTS:
    """Random binary splitting tree with shortcuts over a leaf sequence.

    Parameters
    ----------
    items:
        Initial leaf payloads, left to right (at least one).
    seed:
        Seed for the structure's private RNG (splits and rebuild coins).
    summarizer:
        Optional :class:`~repro.splitting.build.Summarizer`; when given,
        every node maintains the monoid fold of its subtree's leaves
        (the exactly-maintained ``SUM_v`` of §3).
    ratio:
        Shortcut geometry ratio (the paper's ``2/3``; E12 ablates it).
    backend:
        ``"reference"`` (default) builds this pointer-based object-graph
        implementation; ``"flat"`` returns a
        :class:`~repro.perf.flat_rbsts.FlatRBSTS` — the struct-of-arrays
        core with the same public surface and identical seeded behaviour
        (``tests/perf/test_flat_vs_reference.py`` pins the two op-for-op).
    """

    def __new__(
        cls,
        items: Iterable[Any] = (),
        *,
        backend: str = "reference",
        **kwargs: Any,
    ) -> "RBSTS":
        if backend == "flat":
            # Imported lazily: perf depends on splitting, not vice versa.
            from ..perf.flat_rbsts import FlatRBSTS

            return FlatRBSTS(items, **kwargs)  # type: ignore[return-value]
        if backend != "reference":
            raise InvalidParameterError(f"unknown RBSTS backend {backend!r}")
        return super().__new__(cls)

    def __init__(
        self,
        items: Iterable[Any],
        *,
        seed: int = 0,
        summarizer: Optional[Summarizer] = None,
        ratio: float = DEFAULT_RATIO,
        backend: str = "reference",
    ) -> None:
        items = list(items)
        if not items:
            raise EmptyTreeError("RBSTS requires at least one initial item")
        # Transactional undo log (transactions.py); ``None`` outside a
        # batch transaction.  Set before any build so the construction
        # rebuilds never journal.
        self._journal: Optional[ReferenceSnapshot] = None
        # Innermost open snapshot in the transaction stack and the
        # MVCC epoch counter (repro.snapshots.core).
        self._txn: Optional[ReferenceSnapshot] = None
        self._snapshot_epoch = 0
        self._rng = random.Random(seed)
        self.summarizer = summarizer
        self.ratio = ratio
        self._next_id = 0
        self._n_highwater = len(items)
        leaves = []
        for item in items:
            leaf = self._new_node()
            leaf.item = item
            leaves.append(leaf)
        self.root: BSTNode = build_subtree(
            leaves,
            self._rng,
            base_depth=0,
            ancestor_path=(),
            shortcut_height_threshold=self.shortcut_threshold,
            new_node=self._new_node,
            summarizer=summarizer,
            ratio=ratio,
        )
        # Statistics for the most recent batch operation (experiment E4).
        self.last_batch_stats: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    def _new_node(self) -> BSTNode:
        node = BSTNode(self._next_id)
        self._next_id += 1
        return node

    @property
    def n_leaves(self) -> int:
        return self.root.n_leaves

    @property
    def shortcut_threshold(self) -> int:
        """Presence threshold from the high-water leaf count (thresholds
        only ever ratchet up; the paper's relaxed rule absorbs the lag)."""
        return presence_threshold(self._n_highwater)

    def depth(self) -> int:
        """Height of the splitting tree (expected ``O(log n)``)."""
        return self.root.height

    def rng_state(self) -> Tuple:
        """Opaque snapshot of the master RNG state.

        The fuzzing harness (:mod:`repro.testing`) compares this across
        backends after every operation: the flat backend's equivalence
        contract promises draw-for-draw identical RNG consumption, so
        any divergence is a bug even when the shapes still agree.
        """
        return self._rng.getstate()

    def leaves(self) -> List[BSTNode]:
        """All leaves left-to-right (O(n)); the canonical iterative
        collector in :mod:`repro.trees.traversal` does the walking."""
        return _subtree_leaves(self.root)

    def leaf_at(self, index: int) -> BSTNode:
        """The leaf at position ``index`` (0-based); O(depth)."""
        if not 0 <= index < self.n_leaves:
            raise PositionError(f"leaf index {index} out of range")
        node = self.root
        while not node.is_leaf:
            k = node.left.n_leaves  # type: ignore[union-attr]
            if index < k:
                node = node.left  # type: ignore[assignment]
            else:
                index -= k
                node = node.right  # type: ignore[assignment]
        return node

    def index_of(self, leaf: BSTNode) -> int:
        """Position of ``leaf`` in the sequence; O(depth)."""
        idx = 0
        node = leaf
        while node.parent is not None:
            if node is node.parent.right:
                idx += node.parent.left.n_leaves  # type: ignore[union-attr]
            node = node.parent
        if node is not self.root:
            raise UnknownNodeError("leaf does not belong to this RBSTS")
        return idx

    def contains(self, leaf: BSTNode) -> bool:
        node = leaf
        while node.parent is not None:
            node = node.parent
        return node is self.root

    # ------------------------------------------------------------------
    # rebuild plumbing
    # ------------------------------------------------------------------
    def _root_path(self, node: BSTNode) -> List[BSTNode]:
        """Proper ancestors of ``node`` indexed by depth."""
        chain: List[BSTNode] = []
        cur = node.parent
        while cur is not None:
            chain.append(cur)
            cur = cur.parent
        chain.reverse()
        return chain

    def _rebuild_at(
        self,
        node: BSTNode,
        leaves: Sequence[BSTNode],
        *,
        forced_split: Optional[int] = None,
        tracker: Optional[SpanTracker] = None,
    ) -> BSTNode:
        """Replace the subtree rooted at ``node`` with a fresh random tree
        over ``leaves``.  ``forced_split`` forces the new root's split
        (number of leaves in its left subtree) per the insertion rule.
        Returns the new subtree root; does *not* fix metadata above."""
        parent = node.parent
        # Capture the anchor depth first: when the old subtree root is a
        # leaf it is also *in* ``leaves`` and build_subtree will mutate
        # its depth field.
        base_depth = node.depth
        path = self._root_path(node)
        if self._journal is not None:
            # Capture the splice link and the reused leaves' placement
            # pre-images *before* build_subtree mutates them.
            self._journal.record_rebuild(node, parent, leaves)
        threshold = self.shortcut_threshold
        if forced_split is not None and len(leaves) >= 2:
            s = forced_split
            if not 1 <= s <= len(leaves) - 1:
                raise InvalidParameterError(
                    f"forced split {s} invalid for {len(leaves)} leaves"
                )
            new_root = self._new_node()
            new_root.depth = base_depth
            new_root.n_leaves = len(leaves)
            child_path = path + [new_root]
            left = build_subtree(
                leaves[:s],
                self._rng,
                base_depth=base_depth + 1,
                ancestor_path=child_path,
                shortcut_height_threshold=threshold,
                new_node=self._new_node,
                summarizer=self.summarizer,
                ratio=self.ratio,
                tracker=tracker,
            )
            right = build_subtree(
                leaves[s:],
                self._rng,
                base_depth=base_depth + 1,
                ancestor_path=child_path,
                shortcut_height_threshold=threshold,
                new_node=self._new_node,
                summarizer=self.summarizer,
                ratio=self.ratio,
                tracker=tracker,
            )
            new_root.left, new_root.right = left, right
            left.parent = right.parent = new_root
            new_root.height = 1 + max(left.height, right.height)
            if self.summarizer is not None:
                new_root.summary = self.summarizer.monoid.combine(
                    left.summary, right.summary
                )
            if new_root.depth > 0 and new_root.height > threshold:
                new_root.shortcuts = shortcuts_from_path(new_root, path, self.ratio)
        else:
            new_root = build_subtree(
                leaves,
                self._rng,
                base_depth=base_depth,
                ancestor_path=path,
                shortcut_height_threshold=threshold,
                new_node=self._new_node,
                summarizer=self.summarizer,
                ratio=self.ratio,
                tracker=tracker,
            )
        if parent is None:
            self.root = new_root
            new_root.parent = None
        else:
            if parent.left is node:
                parent.left = new_root
            else:
                parent.right = new_root
            new_root.parent = parent
        return new_root

    def _update_upward(self, start: BSTNode) -> None:
        """Refresh ``n_leaves``/``height``/``summary`` on the root path of
        ``start`` and repair stale shortcut presence (see shortcuts.py)."""
        chain = self._root_path(start)  # depth-indexed proper ancestors
        if self._journal is not None:
            self._journal.record_meta(chain)
        threshold = self.shortcut_threshold
        for v in reversed(chain):
            v.n_leaves = v.left.n_leaves + v.right.n_leaves  # type: ignore[union-attr]
            v.height = 1 + max(v.left.height, v.right.height)  # type: ignore[union-attr]
            if self.summarizer is not None:
                v.summary = self.summarizer.monoid.combine(
                    v.left.summary, v.right.summary  # type: ignore[union-attr]
                )
        for v in reversed(chain):
            if v.shortcuts is None and v.depth > 0 and v.height > 2 * threshold:
                v.shortcuts = shortcuts_from_path(v, chain, self.ratio)

    # ------------------------------------------------------------------
    # single-request updates (sequential walks; Theorem 2.2 rules)
    # ------------------------------------------------------------------
    def insert(
        self, index: int, item: Any, tracker: Optional[SpanTracker] = None
    ) -> BSTNode:
        """Insert a new leaf so that it lands at position ``index``
        (``0 <= index <= n``).  Returns the new leaf handle."""
        if not 0 <= index <= self.n_leaves:
            raise PositionError(f"insert position {index} out of range")
        new_leaf = self._new_node()
        new_leaf.item = item
        node = self.root
        offset = index
        while True:
            m = node.n_leaves
            if tracker is not None:
                tracker.tick(1)
            if node.is_leaf or self._rng.random() * m < 1.0:
                self._n_highwater = max(self._n_highwater, self.n_leaves + 1)
                leaves = _subtree_leaves(node)
                leaves.insert(offset, new_leaf)
                forced = min(max(offset, 1), m)
                rebuilt = self._rebuild_at(
                    node, leaves, forced_split=forced, tracker=tracker
                )
                self.last_batch_stats = {
                    "rebuild_mass": len(leaves),
                    "sites": 1,
                }
                break
            k = node.left.n_leaves  # type: ignore[union-attr]
            if offset <= k:
                node = node.left  # type: ignore[assignment]
            else:
                offset -= k
                node = node.right  # type: ignore[assignment]
        self._update_upward(rebuilt)
        return new_leaf

    def delete(self, leaf: BSTNode, tracker: Optional[SpanTracker] = None) -> Any:
        """Remove ``leaf`` (by handle).  Returns its item."""
        if not leaf.is_leaf:
            raise TreeStructureError("delete target must be a leaf")
        if self.n_leaves <= 1:
            raise TreeStructureError("cannot delete the last leaf of an RBSTS")
        j = self.index_of(leaf) + 1  # 1-based rank, as in the analysis
        node = self.root
        jj = j
        while True:
            if tracker is not None:
                tracker.tick(1)
            k = node.left.n_leaves  # type: ignore[union-attr]
            target = node.left if jj <= k else node.right
            if target.n_leaves == 1:  # type: ignore[union-attr]
                # The child *is* the leaf: rebuild this subtree without it.
                leaves = [x for x in _subtree_leaves(node) if x is not leaf]
                rebuilt = self._rebuild_at(node, leaves, tracker=tracker)
                break
            adjacent = jj == k or jj == k + 1
            if adjacent and self._rng.random() < 0.5:
                leaves = [x for x in _subtree_leaves(node) if x is not leaf]
                rebuilt = self._rebuild_at(node, leaves, tracker=tracker)
                break
            if jj <= k:
                node = node.left  # type: ignore[assignment]
            else:
                jj -= k
                node = node.right  # type: ignore[assignment]
        self.last_batch_stats = {"rebuild_mass": rebuilt.n_leaves, "sites": 1}
        self._update_upward(rebuilt)
        return leaf.item

    # ------------------------------------------------------------------
    # batch updates (parallel-coin formulation; Theorems 2.2/2.3)
    # ------------------------------------------------------------------
    def batch_insert(
        self,
        requests: Sequence[Tuple[int, Any]],
        tracker: Optional[SpanTracker] = None,
    ) -> List[BSTNode]:
        """Insert a set of leaves concurrently (transactionally).

        ``requests`` is a list of ``(index, item)`` pairs; *all indices
        refer to the sequence as it is before the batch*.  Requests with
        equal indices land in request order.

        Admission control validates the whole batch up front: any
        invalid request rejects the batch atomically — no mutation, no
        RNG consumption, ``last_batch_stats`` reset to ``{}`` — and
        raises a :class:`~repro.errors.BatchValidationError` subclass
        carrying per-request rejections.  On success, returns new leaf
        handles in request order.  Any exception escaping mid-apply
        (including injected crash faults) rolls the structure back
        bit-for-bit to its pre-batch state.
        """
        requests = list(requests)
        rejections = validate_batch_insert(self.n_leaves, requests)

        def apply(admitted: Sequence[Tuple[int, Any]]) -> List[BSTNode]:
            return self._batch_insert_core(admitted, tracker)

        return execute_batch(
            self, requests, rejections, apply, verb="batch_insert"
        )

    def _batch_insert_core(
        self,
        requests: Sequence[Tuple[int, Any]],
        tracker: Optional[SpanTracker] = None,
    ) -> List[BSTNode]:
        """Already-admitted batch insert (parallel-coin formulation)."""
        if not requests:
            return []
        tracker = tracker if tracker is not None else SpanTracker()

        # Phase 1 — wound location: every node on every request's path
        # flips its rebuild coin; the topmost success is the site.  The
        # marginal is identical to the sequential walk (DESIGN.md §2).
        # Each request draws its coins from a private substream seeded
        # off the master RNG *in request order*: coin consumption is then
        # independent of traversal order, so the flat backend's single
        # sorted root-to-leaf sweep sees bit-identical coins to these
        # per-request walks (the differential harness relies on this).
        plans = []  # (site, global_index, request_order, new_leaf)
        new_leaves: List[BSTNode] = []
        coin_rngs = [
            random.Random(self._rng.getrandbits(64)) for _ in requests
        ]

        def locate(idx: int, coin: random.Random) -> BSTNode:
            node = self.root
            offset = idx
            while True:
                m = node.n_leaves
                if node.is_leaf or coin.random() * m < 1.0:
                    return node
                k = node.left.n_leaves  # type: ignore[union-attr]
                if offset <= k:
                    node = node.left  # type: ignore[assignment]
                else:
                    offset -= k
                    node = node.right  # type: ignore[assignment]

        sites = tracker.parallel(
            [
                (lambda i=idx, c=coin: locate(i, c))
                for (idx, _), coin in zip(requests, coin_rngs)
            ]
        )
        # Coin phase span: one round (coins are simultaneous); the path
        # identification itself is the activation procedure, charged here
        # by its Theorem 2.1 bound.
        self._charge_activation(tracker, len(requests))

        for order, ((idx, item), site) in enumerate(zip(requests, sites)):
            leaf = self._new_node()
            leaf.item = item
            new_leaves.append(leaf)
            plans.append((site, idx, order, leaf))

        # Phase 2 — merge nested sites: a site strictly inside another
        # site's subtree is subsumed by it.
        site_set = {id(s): s for s, _, _, _ in plans}
        maximal: Dict[int, BSTNode] = {}
        for s in site_set.values():
            top = s
            cur = s.parent
            while cur is not None:
                if id(cur) in site_set:
                    top = cur
                cur = cur.parent
            maximal[id(s)] = top

        groups: Dict[int, List[Tuple[int, int, BSTNode]]] = {}
        group_site: Dict[int, BSTNode] = {}
        for site, idx, order, leaf in plans:
            top = maximal[id(site)]
            groups.setdefault(id(top), []).append((idx, order, leaf))
            group_site[id(top)] = top

        # Phase 3 — execute disjoint rebuilds "in parallel".  Rebuild
        # order is canonicalised left-to-right by the sites' leaf ranges
        # so master-RNG consumption is a pure function of the wound (the
        # flat backend rebuilds in the same canonical order).
        rebuild_mass = 0
        rebuilt_roots: List[BSTNode] = []
        # Precompute each group's original leaf range before any mutation.
        ranges = {
            gid: self._subtree_range(site) for gid, site in group_site.items()
        }
        ordered_gids = sorted(group_site, key=lambda gid: ranges[gid][0])

        def do_rebuild(gid: int) -> BSTNode:
            site = group_site[gid]
            lo, _hi = ranges[gid]
            members = sorted(groups[gid], key=lambda t: (t[0], t[1]))
            old = _subtree_leaves(site)
            merged: List[BSTNode] = []
            mi = 0
            for pos in range(len(old) + 1):
                while mi < len(members) and members[mi][0] - lo == pos:
                    merged.append(members[mi][2])
                    mi += 1
                if pos < len(old):
                    merged.append(old[pos])
            forced = None
            if len(members) == 1:
                o = members[0][0] - lo
                forced = min(max(o, 1), len(old))
            return self._rebuild_at(site, merged, forced_split=forced, tracker=tracker)

        rebuilt_roots = tracker.parallel(
            [(lambda g=gid: do_rebuild(g)) for gid in ordered_gids]
        )
        rebuild_mass = sum(r.n_leaves for r in rebuilt_roots)

        # Phase 4 — level-by-level metadata repair on the wound (charged
        # as contraction re-evaluation per §3/§4.2: span O(log |PT(U)|)).
        self._levelized_repair(rebuilt_roots, tracker)
        self._n_highwater = max(self._n_highwater, self.root.n_leaves)
        self.last_batch_stats = {
            "rebuild_mass": rebuild_mass,
            "sites": len(group_site),
            "work": tracker.work,
            "span": tracker.span,
        }
        return new_leaves

    def batch_delete(
        self,
        leaves: Sequence[BSTNode],
        tracker: Optional[SpanTracker] = None,
    ) -> None:
        """Delete a set of leaves concurrently (by handle,
        transactionally).

        Admission control validates the whole batch up front (not a
        leaf, unknown handle, duplicate handle, deleting every leaf);
        any invalid request rejects the batch atomically with zero
        mutation and zero RNG consumption.  Mid-apply exceptions roll
        back bit-for-bit.
        """
        leaves = list(leaves)
        rejections = validate_batch_delete(
            self.n_leaves,
            leaves,
            is_leaf=lambda h: isinstance(h, BSTNode) and h.is_leaf,
            is_member=self.contains,
        )

        def apply(admitted: Sequence[BSTNode]) -> None:
            self._batch_delete_core(admitted, tracker)

        execute_batch(
            self, leaves, rejections, apply, verb="batch_delete"
        )

    def _batch_delete_core(
        self,
        leaves: Sequence[BSTNode],
        tracker: Optional[SpanTracker] = None,
    ) -> None:
        """Already-admitted batch delete (parallel-coin formulation)."""
        if not leaves:
            return
        tracker = tracker if tracker is not None else SpanTracker()
        doomed = {id(l) for l in leaves}

        self._charge_activation(tracker, len(leaves))

        # Phase 1 — per-request site location (read-only walks with the
        # stationary deletion coins; see module docstring).  Coins come
        # from per-request substreams seeded in request order, exactly as
        # in batch_insert, so the flat backend's sorted sweep consumes
        # identical randomness.
        coin_rngs = [random.Random(self._rng.getrandbits(64)) for _ in leaves]

        def locate(leaf: BSTNode, coin: random.Random) -> BSTNode:
            j = self.index_of(leaf) + 1
            node = self.root
            jj = j
            while True:
                k = node.left.n_leaves  # type: ignore[union-attr]
                target = node.left if jj <= k else node.right
                if target.n_leaves == 1:  # type: ignore[union-attr]
                    return node
                if (jj == k or jj == k + 1) and coin.random() < 0.5:
                    return node
                if jj <= k:
                    node = node.left  # type: ignore[assignment]
                else:
                    jj -= k
                    node = node.right  # type: ignore[assignment]

        sites = tracker.parallel(
            [
                (lambda l=leaf, c=coin: locate(l, c))
                for leaf, coin in zip(leaves, coin_rngs)
            ]
        )

        # Phase 2 — merge nested sites, then widen any site whose whole
        # subtree is doomed until it keeps at least one survivor.
        site_set = {id(s): s for s in sites}
        widened: Dict[int, BSTNode] = {}
        for s in site_set.values():
            top = s
            cur = s.parent
            while cur is not None:
                if id(cur) in site_set:
                    top = cur
                cur = cur.parent
            widened[id(s)] = top

        def survivors(site: BSTNode) -> List[BSTNode]:
            return [x for x in _subtree_leaves(site) if id(x) not in doomed]

        # Resolve groups; widen empty ones upward (rare: a fully doomed
        # subtree), re-merging as needed.
        final_sites: Dict[int, BSTNode] = {}
        for s in sites:
            final_sites[id(widened[id(s)])] = widened[id(s)]
        changed = True
        while changed:
            changed = False
            for gid, site in list(final_sites.items()):
                if not survivors(site):
                    if site.parent is None:
                        raise TreeStructureError(
                            "cannot delete every leaf of an RBSTS"
                        )
                    del final_sites[gid]
                    final_sites[id(site.parent)] = site.parent
                    changed = True
            # drop sites nested under other (possibly new) sites
            for gid, site in list(final_sites.items()):
                cur = site.parent
                while cur is not None:
                    if id(cur) in final_sites:
                        del final_sites[gid]
                        break
                    cur = cur.parent

        # Phase 3 — disjoint rebuilds, in canonical left-to-right site
        # order (same master-RNG schedule as the flat backend).
        def do_rebuild(site: BSTNode) -> BSTNode:
            return self._rebuild_at(site, survivors(site), tracker=tracker)

        ordered_sites = sorted(
            final_sites.values(), key=lambda s: self._subtree_range(s)[0]
        )
        rebuilt_roots = tracker.parallel(
            [(lambda s=site: do_rebuild(s)) for site in ordered_sites]
        )

        self._levelized_repair(rebuilt_roots, tracker)
        self.last_batch_stats = {
            "rebuild_mass": sum(r.n_leaves for r in rebuilt_roots),
            "sites": len(rebuilt_roots),
            "work": tracker.work,
            "span": tracker.span,
        }

    # ------------------------------------------------------------------
    # leaf payload updates (summary maintenance, §3)
    # ------------------------------------------------------------------
    def update_leaf_item(
        self, leaf: BSTNode, item: Any, tracker: Optional[SpanTracker] = None
    ) -> None:
        """Replace a leaf's payload and refresh summaries on its path."""
        self.batch_update_items([(leaf, item)], tracker)

    def batch_update_items(
        self,
        updates: Sequence[Tuple[BSTNode, Any]],
        tracker: Optional[SpanTracker] = None,
    ) -> None:
        """Replace several leaves' payloads (transactionally); summaries
        on the wound ``PT(U)`` are recomputed level-by-level (charged as
        parse-tree contraction per Theorem 3.1).

        The whole batch is validated up front (targets must be leaves of
        *this* structure); any invalid request rejects it atomically.
        """
        updates = list(updates)
        rejections = validate_batch_update(
            updates,
            is_leaf=lambda h: isinstance(h, BSTNode) and h.is_leaf,
            is_member=self.contains,
        )

        def apply(admitted: Sequence[Tuple[BSTNode, Any]]) -> None:
            self._batch_update_core(admitted, tracker)

        execute_batch(
            self, updates, rejections, apply, verb="batch_update_items"
        )

    def _batch_update_core(
        self,
        updates: Sequence[Tuple[BSTNode, Any]],
        tracker: Optional[SpanTracker] = None,
    ) -> None:
        """Already-admitted batch relabel."""
        tracker = tracker if tracker is not None else SpanTracker()
        if self._journal is not None:
            self._journal.record_items([leaf for leaf, _ in updates])
        for leaf, item in updates:
            leaf.item = item
            if self.summarizer is not None:
                leaf.summary = self.summarizer.of_item(item)
        self._charge_activation(tracker, len(updates))
        self._levelized_repair([leaf for leaf, _ in updates], tracker)

    # ------------------------------------------------------------------
    # transaction protocol (transactions.py drives these; the stack —
    # including nested opens and the recording-seam fanout — lives in
    # repro.snapshots.core)
    # ------------------------------------------------------------------
    def _txn_begin(self) -> ReferenceSnapshot:
        journal = ReferenceSnapshot(self)
        txn_begin(self, journal)
        return journal

    def _txn_rollback(self, journal: ReferenceSnapshot) -> None:
        txn_rollback(self, journal)

    def _txn_commit(self, journal: ReferenceSnapshot) -> None:
        txn_commit(self, journal)

    def pinned_reader(self, *, monoid: Any = None):
        """Context manager yielding a
        :class:`~repro.snapshots.reader.PinnedReader` over the current
        version: queries through it keep answering from this epoch
        while later mutations (and their rollbacks) proceed on the
        live tree.  The pointer-graph backend pays an O(n) deep capture
        at pin time; the flat family pins in O(1).  ``monoid`` (this
        tree's ``summarizer.monoid``) enables the fold reads
        (``prefix``/``range_fold``/``total``)."""
        from ..snapshots.reader import pinned_reader

        return pinned_reader(self, monoid=monoid)

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _charge_activation(self, tracker: SpanTracker, u: int) -> None:
        """Charge the Theorem 2.1 activation cost of locating a wound of
        ``u`` requests (the actual activation algorithm lives in
        activation.py and is measured separately; batch updates charge
        its bound so their spans reflect the full §4 pipeline)."""
        n = max(2, self.n_leaves)
        theta = max(1, math.ceil(math.log2(max(2, u * math.log2(n)))))
        span = math.ceil(math.log2(max(2.0, math.log2(n)))) + theta
        procs = max(1, (u * math.ceil(math.log2(n))) // theta)
        tracker.charge(work=span * procs, span=span)

    def _subtree_range(self, node: BSTNode) -> Tuple[int, int]:
        """Original-sequence index range [lo, hi) of a subtree's leaves."""
        lo = 0
        cur = node
        while cur.parent is not None:
            if cur is cur.parent.right:
                lo += cur.parent.left.n_leaves  # type: ignore[union-attr]
            cur = cur.parent
        return lo, lo + node.n_leaves

    def _levelized_repair(
        self, starts: Sequence[BSTNode], tracker: SpanTracker
    ) -> None:
        """Recompute ``n_leaves``/``height``/``summary`` for the union of
        root paths of ``starts``, bottom-up by level, then repair shortcut
        presence.  Work O(|wound|); span charged O(log |wound|) — the
        wound re-evaluation is a tree contraction over associative ops
        (§3, Theorem 4.2), not a level-by-level sweep.
        """
        wound: Dict[int, BSTNode] = {}
        chains: List[List[BSTNode]] = []
        for s in starts:
            chain = self._root_path(s)
            chains.append(chain)
            for v in chain:
                wound[id(v)] = v
        nodes = sorted(wound.values(), key=lambda v: -v.depth)
        if self._journal is not None:
            self._journal.record_meta(nodes)
        for v in nodes:
            v.n_leaves = v.left.n_leaves + v.right.n_leaves  # type: ignore[union-attr]
            v.height = 1 + max(v.left.height, v.right.height)  # type: ignore[union-attr]
            if self.summarizer is not None:
                v.summary = self.summarizer.monoid.combine(
                    v.left.summary, v.right.summary  # type: ignore[union-attr]
                )
        threshold = self.shortcut_threshold
        for chain in chains:
            for v in reversed(chain):
                if v.shortcuts is None and v.depth > 0 and v.height > 2 * threshold:
                    v.shortcuts = shortcuts_from_path(v, chain, self.ratio)
        size = len(wound) + 1
        tracker.charge(work=size, span=max(1, math.ceil(math.log2(size + 1))))

    # ------------------------------------------------------------------
    # invariants (used heavily by the test suite)
    # ------------------------------------------------------------------
    def check_invariants(self, since: Any = None) -> None:
        """Verify every structural invariant; raise on violation.

        ``since`` (the open snapshot bracketing a batch) is accepted for
        parity with the flat backend's region audit; the pointer graph
        always runs the full walk."""
        threshold = presence_threshold(self._n_highwater)
        # Iterative DFS carrying the root path for shortcut verification.
        path: List[BSTNode] = []
        order: List[Tuple[BSTNode, bool]] = [(self.root, True)]
        if self.root.parent is not None:
            raise TreeStructureError("root has a parent")
        while order:
            node, entering = order.pop()
            if not entering:
                path.pop()
                continue
            if node.depth != len(path):
                raise TreeStructureError(
                    f"node {node.nid} depth {node.depth} != path length {len(path)}"
                )
            if node.is_leaf:
                if node.right is not None:
                    raise TreeStructureError("half-internal node")
                if node.n_leaves != 1 or node.height != 0:
                    raise TreeStructureError(
                        f"leaf {node.nid} has n={node.n_leaves}, h={node.height}"
                    )
                if self.summarizer is not None:
                    # §3's exactly-maintained invariant reaches the
                    # leaves: summary must equal of_item(item).  A
                    # corrupted *root* leaf (single-leaf tree) has no
                    # internal combine above it to expose the damage.
                    if node.summary != self.summarizer.of_item(node.item):
                        raise TreeStructureError(
                            f"bad summary at {node.nid}"
                        )
            else:
                left, right = node.left, node.right
                if left is None or right is None:
                    raise TreeStructureError("internal node missing a child")
                if left.parent is not node or right.parent is not node:
                    raise TreeStructureError("broken parent pointer")
                if node.n_leaves != left.n_leaves + right.n_leaves:
                    raise TreeStructureError(f"bad n_leaves at {node.nid}")
                if node.height != 1 + max(left.height, right.height):
                    raise TreeStructureError(f"bad height at {node.nid}")
                if self.summarizer is not None:
                    expect = self.summarizer.monoid.combine(
                        left.summary, right.summary
                    )
                    if expect != node.summary:
                        raise TreeStructureError(f"bad summary at {node.nid}")
            if node.shortcuts is not None:
                if node.depth == 0:
                    raise TreeStructureError("root must not carry shortcuts")
                targets = list(shortcut_target_depths(node.depth, self.ratio))
                if [s.depth for s in node.shortcuts] != targets:
                    raise TreeStructureError(
                        f"shortcut depths wrong at {node.nid}"
                    )
                for s, t in zip(node.shortcuts, targets):
                    if s is not path[t]:
                        raise TreeStructureError(
                            f"shortcut at {node.nid} is not the ancestor "
                            f"at depth {t}"
                        )
            elif node.depth > 0 and node.height > 2 * threshold:
                raise TreeStructureError(
                    f"node {node.nid} (h={node.height}) must carry shortcuts"
                )
            if node.active or node.low is not None:
                raise TreeStructureError(
                    f"stale activation state on node {node.nid}"
                )
            if not node.is_leaf:
                path.append(node)
                order.append((node, False))
                order.append((node.right, True))  # type: ignore[arg-type]
                order.append((node.left, True))  # type: ignore[arg-type]
