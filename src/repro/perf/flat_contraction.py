"""``FlatContraction`` — the struct-of-arrays rake-tree backend (§4.2).

The reference :class:`~repro.contraction.rake_tree.RakeTrace` replays
the rake schedule over per-node ``RTNode`` objects: one allocation per
label, pointer-chased parent/child links, and per-node tuple math.
This module keeps the *same replay semantics* — including the memoised
reuse rule whose fresh-node count is the Theorem 4.1 wound — but stores
the rake tree as parallel columns in one persistent slab:

* topology: ``_kind`` / ``_lchild`` / ``_rchild`` / ``_rparent``
  (row ids, ``-1`` = none), plus ``_rid`` (monotone creation stamp,
  shared with the reference trace's ``RTNode.rid`` numbering);
* labels: ``_labA`` / ``_labB`` (exact ring elements, unboxed);
* per-row ``_op`` (the raking parent's ``Op``, identity-compared by
  the memo rule exactly like the reference).

The first replay builds every row fresh in schedule order.  Every
later replay follows one structural batch and is *change propagation*
over the previous run's trace (DESIGN.md §10): the replay products —
base rows, each event's ``(p, w, g)`` and row pair, the removal and
position-death records — are persistent columns patched in place, and
each T node keeps the time-ordered list of events that touch it.  Only
the events whose inputs can differ are re-run, in the new schedule's
time order; each re-run event applies the memo rule with integer
column compares (row ids stand in for the reference's object identity —
safe because the mark-sweep collector below never frees a row the
current records can still name), and a re-run whose writes changed
marks the later events that read them.  Every event left alone is one
the memo rule would have reused, so fresh rows, rid stamps, rounds and
records match a full replay.  Labels of the fresh rows are evaluated
afterwards in one pass in creation order: ``_rid`` is a topological
stamp (every composite row is stamped after both of its children), so
the label row kernel :func:`~repro.contraction.labels.relabel_rows`
(the one home of the §4.2 rules for these columns, shared with
:meth:`FlatContraction.heal`) applies each rule from settled inputs.

Rows no replay can reach any more are reclaimed by an occasional
mark-sweep over the slab (roots: current base rows, current event
rows, the RT root) onto a free-list once the rows in use pass
``_GC_FACTOR`` per live T node — the slab stays ``O(tree)`` no matter
how many batches or ids the tree has seen.

The public surface mirrors :class:`RakeTrace`'s trace protocol
(``value`` / ``size`` / ``set_leaf_label`` / ``set_rake_op`` /
``heal`` / ``death_record`` / ``removal_kind``) and is pinned by lint
rule R003 (``contraction-trace`` pair) plus the differential fuzzer:
identical values, rounds, wound sizes and fresh-node counts as the
reference backend.
"""

from __future__ import annotations

import gc
import math
from heapq import heapify, heappop, heappush
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..algebra.rings import Ring
from ..contraction.labels import (
    ROW_COMPRESS,
    ROW_INIT,
    ROW_LEAF,
    ROW_RAKE,
    relabel_rows,
)
from ..errors import TreeStructureError
from ..pram.frames import SpanTracker
from ..trees.expr import ExprTree
from ..trees.nodes import Op

__all__ = ["FlatContraction"]

# Row kinds (column ``_kind``), the format the label row kernel reads.
_LEAF, _INIT, _RAKE, _COMPRESS = ROW_LEAF, ROW_INIT, ROW_RAKE, ROW_COMPRESS

#: Slab occupancy (rows in use vs. a linear bound on the live rake
#: tree: this many rows per live T node) above which replay finishes
#: with a mark-sweep.
_GC_FACTOR = 8

#: Event time stamp: ``(round << _ROUND_SHIFT) | label(u)``, with leaf
#: order labels spaced ``_LAB_GAP`` apart (so up to 2**28 leaves) and
#: respaced when a gap runs out; heap entries append the raked leaf id
#: below ``_U_MASK``.
_ROUND_SHIFT = 60
_LAB_GAP = 1 << 32
_U_MASK = (1 << 32) - 1

# Tuple constants for the fresh rake+compress pair extends.
_PAIR_KINDS = (_RAKE, _COMPRESS)
_PAIR_NEG1 = (-1, -1)
_PAIR_NONE = (None, None)
_PAIR_ZERO = b"\x00\x00"


class FlatContraction:
    """Rake-tree trace over parallel columns; one instance persists
    across replays of the same :class:`DynamicTreeContraction`."""

    def __init__(self, ring: Ring) -> None:
        self.ring = ring
        # -- persistent slab columns (row-indexed) ----------------------
        self._kind: List[int] = []
        self._lchild: List[int] = []
        self._rchild: List[int] = []
        self._rparent: List[int] = []
        self._op: List[Optional[Op]] = []
        self._rid: List[int] = []
        self._labA: List[Any] = []
        self._labB: List[Any] = []
        self._free: List[int] = []
        self._is_free = bytearray()
        # -- replay products, patched in place (T-node-indexed) ----------
        # per raked leaf u: its event's contracted parent p, sibling w,
        # w's new parent g and the side of g it took (``_ev_gs``), its
        # row pair, time stamp and the two positions it killed
        self._base: List[int] = []
        self._ev_p: List[int] = []
        self._ev_w: List[int] = []
        self._ev_g: List[int] = []
        self._ev_gs = bytearray()
        self._ev_rake: List[int] = []
        self._ev_comp: List[int] = []
        self._ev_key: List[int] = []
        self._ev_pu: List[int] = []
        self._ev_pw: List[int] = []
        # removal / position-death records, each with its owning event
        self._rm_kind = bytearray()
        self._rm_row: List[int] = []
        self._rm_w: List[int] = []
        self._rm_ev: List[int] = []
        self._death_kind = bytearray()
        self._death_row: List[int] = []
        self._death_w: List[int] = []
        self._death_k0: List[int] = []
        self._death_k1: List[int] = []
        self._death_ev: List[int] = []
        # -- change-propagation index -------------------------------------
        # T itself (the contracted view before any event), leaf order
        # labels, and per T node the events touching it in time order
        self._tpar: List[int] = []
        self._tlft: List[int] = []
        self._trgt: List[int] = []
        self._troot = -1
        self._lab: List[int] = []
        self._touch: List[List[int]] = []
        # leaves whose value is not ``eq`` to itself (a NaN under the
        # float ring): the memo rule mints them a fresh base row on
        # every replay
        self._unstable: Set[int] = set()
        # the first build's schedule, until the index above is built
        self._pending: Optional["FlatSchedule"] = None
        self._root_row = -1
        self._removal_cache: Optional[Dict[int, Tuple]] = None
        self.final_tnode: Optional[int] = None
        self.final_pos: Optional[int] = None
        self.rounds = 0
        self.next_rid = 0
        self.fresh_nodes = 0  # rows NOT reused from the prior replay
        self.visited_events = 0  # events the last replay re-ran

    # ------------------------------------------------------------------
    # trace protocol — queries
    # ------------------------------------------------------------------
    @property
    def value(self) -> Any:
        """The whole expression's value: the final label is ``(0, v)``."""
        assert self._root_row >= 0
        return self._labB[self._root_row]

    def size(self) -> int:
        """Number of distinct rows reachable from the RT root."""
        seen = bytearray(len(self._kind))
        stack = [self._root_row]
        count = 0
        while stack:
            row = stack.pop()
            if row < 0 or seen[row]:
                continue
            seen[row] = 1
            count += 1
            stack.append(self._lchild[row])
            stack.append(self._rchild[row])
        return count

    def death_record(self, pid: int) -> Optional[Tuple]:
        """Normalised position-death record for value queries:
        ``('raked', B)`` or ``('sibling', (A, B), w_tnode, kids)``."""
        if pid >= len(self._death_kind):
            return None
        k = self._death_kind[pid]
        if k == 0:
            return None
        row = self._death_row[pid]
        if k == 1:
            return ("raked", self._labB[row])
        k0 = self._death_k0[pid]
        kids = None if k0 < 0 else (k0, self._death_k1[pid])
        return (
            "sibling",
            (self._labA[row], self._labB[row]),
            self._death_w[pid],
            kids,
        )

    def removal_kind(self, nid: int) -> Optional[str]:
        """``'raked'`` / ``'compressed'`` / ``None`` for T node ``nid``
        (mirrors the reference trace's removal-record kinds)."""
        if nid >= len(self._rm_kind):
            return None
        k = self._rm_kind[nid]
        if k == 0:
            return None
        return "raked" if k == 1 else "compressed"

    @property
    def removal(self) -> Dict[int, Tuple]:
        """Reference-shaped removal map (``tnode -> ('raked', row)`` or
        ``('compressed', rake_row, survivor)``), materialised lazily —
        the fuzz executor samples it to pick ``set_op`` candidates."""
        cached = self._removal_cache
        if cached is None:
            cached = {}
            rm_kind, rm_row, rm_w = self._rm_kind, self._rm_row, self._rm_w
            for nid in range(len(rm_kind)):
                k = rm_kind[nid]
                if k == 1:
                    cached[nid] = ("raked", rm_row[nid])
                elif k == 2:
                    cached[nid] = ("compressed", rm_row[nid], rm_w[nid])
            self._removal_cache = cached
        return cached

    # ------------------------------------------------------------------
    # trace protocol — label updates (Theorem 4.2 healing)
    # ------------------------------------------------------------------
    def set_leaf_label(self, nid: int, value: Any) -> int:
        """Overwrite leaf ``nid``'s base label with ``(0, value)``;
        returns the dirty row (a heal token)."""
        row = self._base[nid]
        self._labA[row] = self.ring.zero
        self._labB[row] = value
        if self.ring.eq(value, value):
            self._unstable.discard(nid)
        else:
            self._unstable.add(nid)
        return row

    def set_rake_op(self, nid: int, op: Op) -> int:
        """Swap the op baked into the rake event that removed internal
        node ``nid``; returns the dirty rake row (a heal token)."""
        if self.removal_kind(nid) != "compressed":
            raise TreeStructureError(  # pragma: no cover - pre-admitted
                f"node {nid} has no rake event (is it a leaf?)"
            )
        row = self._rm_row[nid]
        self._op[row] = op
        return row

    def heal(
        self, tokens: List[int], tracker: Optional[SpanTracker] = None
    ) -> int:
        """Recompute ``RT(W)`` — every row on a path from a dirty token
        to the RT root — in one pass in ascending ``_rid`` order.  The
        tracker is charged the Theorem 4.2 level-by-level PRAM cost;
        on one CPU any topological order yields the same labels.
        Returns the wound size ``|RT(W)|``."""
        rparent = self._rparent
        seen: Set[int] = set()
        mark = seen.add
        for row in tokens:
            while row >= 0 and row not in seen:
                mark(row)
                row = rparent[row]
        wound = sorted(seen, key=self._rid.__getitem__)
        relabel_rows(
            self.ring, wound, self._kind, self._lchild, self._rchild,
            self._labA, self._labB, self._op,
        )
        if tracker is not None:
            k = len(wound) + 1
            tracker.charge(
                work=k, span=max(1, 2 * math.ceil(math.log2(k + 1)))
            )
        return len(wound)

    # ------------------------------------------------------------------
    # replay (first build / change propagation)
    # ------------------------------------------------------------------
    def replay(
        self,
        tree: ExprTree,
        schedule: "FlatSchedule",
        changed: Sequence[Tuple[int, int, int]] = (),
    ) -> "FlatContraction":
        """Run (or re-run) the contraction over ``tree`` with the flat
        ``schedule`` — the port of
        :func:`~repro.contraction.rake_tree.build_trace` with
        ``old=self``.

        The first call builds everything fresh from a full schedule.
        Later calls take the incremental schedule of one structural
        batch and ``changed``, its T edits as ``(node, left, right)``
        triples: a grown leaf with its two new children, or a pruned
        node with its two deleted ones.  They re-run only the events
        whose inputs can differ (change propagation, DESIGN.md §10);
        every other event is one the memo rule would reuse."""
        if self._kind:
            self._propagate(tree, schedule, changed)
        else:
            self._build(tree, schedule)
        return self

    def _build(self, tree: ExprTree, schedule: "FlatSchedule") -> None:
        """First build on a virgin slab: nothing can be reused, so the
        base columns are built in bulk — one C-level comprehension per
        column over the preorder node list — and every event appends a
        fresh row pair.  Row index equals creation order, so the rid
        numbering matches the reference trace's exactly."""
        ring = tree.ring
        zero, one = ring.zero, ring.one
        m = tree._next_id
        self._extend(m)

        kind, lch, rch = self._kind, self._lchild, self._rchild
        rpar, ops_col = self._rparent, self._op
        rid_col, labA, labB = self._rid, self._labA, self._labB

        # -- the contracted view starts as T itself ----------------------
        parent_t, left_t, right_t = self._tpar, self._tlft, self._trgt
        ops_t: List[Optional[Op]] = [None] * m
        order: List[Any] = []
        push = order.append
        stack = [tree.root]
        while stack:
            node = stack.pop()
            push(node)
            l = node.left
            if l is not None:
                nid = node.nid
                r = node.right
                left_t[nid] = l.nid
                right_t[nid] = r.nid
                parent_t[l.nid] = nid
                parent_t[r.nid] = nid
                ops_t[nid] = node.op
                stack.append(r)
                stack.append(l)
        n_live = len(order)
        kind += [_LEAF if nd.op is None else _INIT for nd in order]
        lch += [-1] * n_live
        rch += [-1] * n_live
        rpar += [-1] * n_live
        ops_col += [None] * n_live
        rid_col += range(n_live)
        labA += [zero if nd.op is None else one for nd in order]
        labB += [nd.value if nd.op is None else zero for nd in order]
        self._is_free += bytes(n_live)
        base = self._base
        for row, nd in enumerate(order):
            base[nd.nid] = row
        # The static T view the events read positions from.
        tl_t, tr_t = left_t[:], right_t[:]
        self._tpar, self._tlft, self._trgt = parent_t[:], tl_t, tr_t
        self._troot = tree.root.nid
        cur = base[:]

        ev_p, ev_w, ev_g, ev_gs = self._ev_p, self._ev_w, self._ev_g, self._ev_gs
        ev_rake, ev_comp = self._ev_rake, self._ev_comp
        ev_pu, ev_pw = self._ev_pu, self._ev_pw
        rm_kind, rm_row, rm_w = self._rm_kind, self._rm_row, self._rm_w
        death_kind, death_row, death_w = (
            self._death_kind, self._death_row, self._death_w
        )
        death_k0, death_k1 = self._death_k0, self._death_k1
        first = len(kind)
        rk = first
        last_w = self._troot
        for u in schedule.raked:
            p = parent_t[u]
            if p < 0:
                raise TreeStructureError(
                    f"raked leaf {u} has no contracted parent (schedule "
                    "out of sync with the expression tree)"
                )
            if left_t[p] == u:
                w = right_t[p]
                pu, pw = tl_t[p], tr_t[p]
            else:
                w = left_t[p]
                pu, pw = tr_t[p], tl_t[p]
            op = ops_t[p]
            if op is None:
                raise TreeStructureError(
                    f"contracted parent {p} has no operation"
                )
            cu, cp, cw = cur[u], cur[p], cur[w]
            ck = rk + 1
            kind += _PAIR_KINDS
            lch += (cu, rk)
            rch += (cp, cw)
            rpar += (ck, -1)
            ops_col += (op, None)
            labA += _PAIR_NONE
            labB += _PAIR_NONE
            rpar[cu] = rk
            rpar[cp] = rk
            rpar[cw] = ck
            rm_kind[u] = 1
            rm_row[u] = cu
            rm_kind[p] = 2
            rm_row[p] = rk
            rm_w[p] = w
            death_kind[pu] = 1
            death_row[pu] = cu
            death_kind[pw] = 2
            death_row[pw] = cw
            death_w[pw] = w
            death_k0[pw] = tl_t[w]
            death_k1[pw] = tr_t[w]
            # splice p out of the contracted view
            g = parent_t[p]
            parent_t[w] = g
            if g >= 0:
                if left_t[g] == p:
                    left_t[g] = w
                else:
                    right_t[g] = w
                    ev_gs[u] = 1
            ev_p[u] = p
            ev_w[u] = w
            ev_g[u] = g
            ev_rake[u] = rk
            ev_comp[u] = ck
            ev_pu[u] = pu
            ev_pw[u] = pw
            cur[w] = ck
            last_w = w
            rk += 2
        n_rows = len(kind)
        rid_col += range(first, n_rows)
        self._is_free += bytes(n_rows - first)
        if n_rows - first + 1 != n_live:
            raise TreeStructureError(
                f"contraction left {n_live - (n_rows - first)} live nodes "
                "(schedule out of sync with the expression tree)"
            )
        self.rounds = schedule.n_rounds
        self.visited_events = (n_rows - first) // 2
        # The change-propagation index is built on the first structural
        # batch: engines that only ever heal never pay for it.
        self._pending = schedule
        self._finish(
            n_live, cur[last_w], n_rows, n_rows, range(first, n_rows), last_w
        )

    def _propagate(
        self,
        tree: ExprTree,
        schedule: "FlatSchedule",
        changed: Sequence[Tuple[int, int, int]],
    ) -> None:
        """Change propagation over the previous run's trace.

        Every event is keyed by its raked leaf ``u`` and stamped with its
        time ``(round << 60) | label(u)``; ``_touch[x]`` lists, in time
        order, the events that touch T node ``x`` (as ``u``, ``p``,
        ``w`` or ``g``).  An event reads ``u``'s and ``p``'s
        compression state (current row and contracted parent), ``p``'s
        and ``g``'s children and ``w``'s row, each fixed by the last
        earlier writer in that node's touch list, and writes ``w``'s
        state and one child of ``g``.  Seeds: the events of the T
        nodes the batch edited, new and vanished events, and events
        whose new time reorders a touch list.  A visited event whose
        writes differ (or that is new) marks the later readers of each
        cell it wrote, up to that cell's next writer.  Everything else
        keeps its rows and records (DESIGN.md §10)."""
        ring = tree.ring
        eq = ring.eq
        nodes = tree._nodes
        if self._pending is not None:
            self._index(nodes)
        m = tree._next_id
        self._extend(m)
        troot = self._troot = tree.root.nid

        kind, lch, rch = self._kind, self._lchild, self._rchild
        rpar, ops_col = self._rparent, self._op
        rid_col, labA, labB = self._rid, self._labA, self._labB
        free, is_free = self._free, self._is_free
        base, lab, unstable = self._base, self._lab, self._unstable
        tpar, tlft, trgt = self._tpar, self._tlft, self._trgt
        ev_p, ev_w, ev_g, ev_gs = self._ev_p, self._ev_w, self._ev_g, self._ev_gs
        ev_rake, ev_comp, ev_key = self._ev_rake, self._ev_comp, self._ev_key
        ev_pu, ev_pw = self._ev_pu, self._ev_pw
        rm_kind, rm_row, rm_w, rm_ev = (
            self._rm_kind, self._rm_row, self._rm_w, self._rm_ev
        )
        death_kind, death_row, death_w = (
            self._death_kind, self._death_row, self._death_w
        )
        death_k0, death_k1, death_ev = (
            self._death_k0, self._death_k1, self._death_ev
        )
        touch = self._touch
        next_rid = self.next_rid
        fresh = 0
        seeds: List[int] = []

        # -- 1. the batch's T edits; the events they remove ---------------
        grown: List[int] = []
        gone: List[int] = []
        minted: List[Tuple[int, int]] = []  # (nid, rank under its label)
        for x, a, b in changed:
            seeds.extend(touch[x])
            if nodes[x].left is not None:  # grown: leaf x -> x(a, b)
                tlft[x], trgt[x] = a, b
                tpar[a] = tpar[b] = x
                lab[a] = lab[x]
                grown.append(x)
                gone.append(x)
                minted += ((x, 0), (a, 1), (b, 0))
            else:  # pruned: x(a, b) -> leaf x
                tlft[x] = trgt[x] = -1
                lab[x] = lab[a]
                gone += (a, b)
                minted.append((x, 0))
                seeds.extend(touch[a])
                seeds.extend(touch[b])
                for y in (a, b):
                    base[y] = tpar[y] = -1
                    rm_kind[y] = death_kind[y] = 0
                    rm_ev[y] = death_ev[y] = -1
        for u in gone:
            t = ev_key[u]
            if t < 0:
                continue  # the rightmost leaf fires no event
            p, w, g = ev_p[u], ev_w[u], ev_g[u]
            touch[u].remove(u)
            for x in (p, w, g):
                if x < 0:
                    continue
                lst = touch[x]
                lst.remove(u)
                for f in reversed(lst):
                    if ev_key[f] < t:
                        break
                    seeds.append(f)
            if rm_ev[u] == u:
                rm_kind[u] = 0
                rm_ev[u] = -1
            if rm_ev[p] == u:
                rm_kind[p] = 0
                rm_ev[p] = -1
            for pid in (ev_pu[u], ev_pw[u]):
                if death_ev[pid] == u:
                    death_kind[pid] = 0
                    death_ev[pid] = -1
            ev_p[u] = ev_w[u] = ev_g[u] = ev_key[u] = -1
            ev_rake[u] = ev_comp[u] = -1

        # -- 2. order labels for the new right leaves --------------------
        for x in grown:
            b = trgt[x]
            lo = lab[x]
            c, q = x, tpar[x]
            while q >= 0 and trgt[q] == c:
                c, q = q, tpar[q]
            if q < 0:
                hi = lo + 2 * _LAB_GAP
            else:
                c = trgt[q]
                while tlft[c] >= 0:
                    c = tlft[c]
                hi = lab[c]
            if hi - lo < 2 or hi >> _ROUND_SHIFT:
                self._renumber_leaves()
                break
            lab[b] = (lo + hi) >> 1

        # -- 3. fresh base rows, in the reference's preorder -------------
        for x in sorted(unstable):
            nd = nodes.get(x)
            if nd is None or nd.op is not None:
                unstable.discard(x)
            elif base[x] >= 0:
                minted.append((x, 0))
                seeds.extend(touch[x])
        def preorder(entry: Tuple[int, int]) -> Tuple[int, int]:
            # A grown node sorts just before its left child, which
            # took over its leaf label.
            x, rank = entry
            return (lab[x] if tlft[x] < 0 else lab[tlft[x]], rank)

        minted.sort(key=preorder)
        for x, _ in minted:
            nd = nodes[x]
            if nd.op is None:
                row = self._new_row(_LEAF, next_rid, ring.zero, nd.value)
                if eq(nd.value, nd.value):
                    unstable.discard(x)
                else:
                    unstable.add(x)
            else:
                row = self._new_row(_INIT, next_rid, ring.one, ring.zero)
            base[x] = row
            next_rid += 1
            fresh += 1

        def child(x: int, side: int, t: int) -> int:
            # x's contracted child on ``side`` just before time t.
            for f in reversed(touch[x]):
                if ev_g[f] == x and ev_gs[f] == side and ev_key[f] < t:
                    return ev_w[f]
            return trgt[x] if side else tlft[x]

        def mark_readers(x: int, side: int, t: int) -> None:
            # The readers after t of a cell of x — its compression state
            # (side -1) or its child on ``side`` — up to and including
            # the cell's next writer, which reads it too.
            lst = touch[x]
            n = len(lst)
            i = n
            while i and ev_key[lst[i - 1]] > t:
                i -= 1
            while i < n:
                f = lst[i]
                if not queued[f]:
                    queued[f] = 1
                    heappush(heap, (ev_key[f] << 32) | f)
                if (ev_w[f] == x) if side < 0 else (
                    ev_g[f] == x and ev_gs[f] == side
                ):
                    return
                i += 1

        def insort(lst: List[int], u: int, t: int) -> None:
            i = len(lst)
            while i and ev_key[lst[i - 1]] > t:
                i -= 1
            lst.insert(i, u)

        queued = bytearray(m)
        heap: List[int] = []

        # -- 4. event times from the incremental schedule ---------------
        moved: List[int] = []
        born: List[int] = []
        for u, rnd in zip(schedule.raked, schedule.rounds):
            key = (rnd << _ROUND_SHIFT) | lab[u]
            old = ev_key[u]
            if old != key:
                ev_key[u] = key
                if old < 0:
                    born.append(u)
                else:
                    moved.append(u)
        if moved:
            # A touch list left unsorted has an adjacent pair out of
            # order, and one of the two events moved.
            broken: Set[int] = set()
            for u in moved:
                k = ev_key[u]
                for x in (u, ev_p[u], ev_w[u], ev_g[u]):
                    if x < 0 or x in broken:
                        continue
                    lst = touch[x]
                    i = lst.index(u)
                    if (i and ev_key[lst[i - 1]] > k) or (
                        i + 1 < len(lst) and ev_key[lst[i + 1]] < k
                    ):
                        broken.add(x)
            key_of = ev_key.__getitem__
            for x in sorted(broken):
                lst = touch[x]
                new = sorted(lst, key=key_of)
                i = 0
                while lst[i] == new[i]:
                    i += 1
                seeds.extend(new[i:])
                lst[:] = new

        for u in born:
            insort(touch[u], u, ev_key[u])
        seeds.extend(born)

        # -- 5. visit in time order --------------------------------------
        for u in seeds:
            if not queued[u] and ev_key[u] >= 0:
                queued[u] = 1
                heap.append((ev_key[u] << 32) | u)
        heapify(heap)

        fresh_rows: List[int] = []
        visited = 0
        while heap:
            u = heappop(heap) & _U_MASK
            t = ev_key[u]
            visited += 1
            # reads: u's and p's compression state, p's children
            for f in reversed(touch[u]):
                if ev_w[f] == u and ev_key[f] < t:
                    cu, p = ev_comp[f], ev_g[f]
                    break
            else:
                cu, p = base[u], tpar[u]
            if p < 0:
                raise TreeStructureError(
                    f"raked leaf {u} has no contracted parent (schedule "
                    "out of sync with the expression tree)"
                )
            # p's state and both its children, in one backward scan
            cp = lc = rc = -2
            for f in reversed(touch[p]):
                if ev_key[f] >= t:
                    continue
                if ev_w[f] == p:
                    if cp == -2:
                        cp, g = ev_comp[f], ev_g[f]
                elif ev_g[f] == p:
                    if ev_gs[f]:
                        if rc == -2:
                            rc = ev_w[f]
                    elif lc == -2:
                        lc = ev_w[f]
                if cp != -2 and lc != -2 and rc != -2:
                    break
            if cp == -2:
                cp, g = base[p], tpar[p]
            if (tlft[p] if lc == -2 else lc) == u:
                w = trgt[p] if rc == -2 else rc
                pu, pw = tlft[p], trgt[p]
            else:
                w = tlft[p] if lc == -2 else lc
                pu, pw = trgt[p], tlft[p]
            for f in reversed(touch[w]):
                if ev_w[f] == w and ev_key[f] < t:
                    cw = ev_comp[f]
                    break
            else:
                cw = base[w]
            op = nodes[p].op
            if op is None:
                raise TreeStructureError(
                    f"contracted parent {p} has no operation"
                )
            # the memo rule
            op_, ow, og = ev_p[u], ev_w[u], ev_g[u]
            ork, ock = ev_rake[u], ev_comp[u]
            if (
                op_ == p
                and ow == w
                and ops_col[ork] is op
                and lch[ork] == cu
                and rch[ork] == cp
                and rch[ock] == cw
            ):
                # A memo hit keeps its rows and records; only the node
                # its sibling moves under can differ.
                if og == g:
                    continue
                ogs = ev_gs[u]
                if og >= 0:
                    touch[og].remove(u)
                    mark_readers(og, ogs, t)
                if g >= 0:
                    insort(touch[g], u, t)
                    gs = ev_gs[u] = 0 if child(g, 0, t) == p else 1
                    mark_readers(g, gs, t)
                ev_g[u] = g
                mark_readers(w, -1, t)
                continue
            if len(free) > 1:
                rk = free.pop()
                ck = free.pop()
                is_free[rk] = is_free[ck] = 0
                kind[rk] = _RAKE
                kind[ck] = _COMPRESS
                rid_col[rk] = next_rid
                rid_col[ck] = next_rid + 1
                ops_col[ck] = None
            elif free:
                rk = self._new_row(_RAKE, next_rid, None, None)
                ck = self._new_row(_COMPRESS, next_rid + 1, None, None)
            else:
                # Fresh pair appended together: tuple extends halve
                # the interpreted call count of the common path.
                rk = len(kind)
                ck = rk + 1
                kind += _PAIR_KINDS
                lch += _PAIR_NEG1
                rch += _PAIR_NEG1
                rpar += _PAIR_NEG1
                ops_col += _PAIR_NONE
                rid_col += (next_rid, next_rid + 1)
                labA += _PAIR_NONE
                labB += _PAIR_NONE
                is_free += _PAIR_ZERO
            lch[rk] = cu
            rch[rk] = cp
            ops_col[rk] = op
            lch[ck] = rk
            rch[ck] = cw
            rpar[cu] = rk
            rpar[cp] = rk
            rpar[cw] = ck
            rpar[rk] = ck
            rpar[ck] = -1
            next_rid += 2
            fresh += 2
            fresh_rows.append(rk)
            fresh_rows.append(ck)
            if op_ == p and ow == w:
                # Same event, new rows: the records keep their places
                # (p's T children fix the positions) and take the rows.
                rm_row[u] = cu
                rm_row[p] = rk
                death_row[pu] = cu
                death_row[pw] = cw
                death_k0[pw] = tlft[w]
                death_k1[pw] = trgt[w]
            else:
                # clear what this event owned, then write
                if op_ >= 0:
                    if rm_ev[op_] == u:
                        rm_kind[op_] = 0
                        rm_ev[op_] = -1
                    for pid in (ev_pu[u], ev_pw[u]):
                        if death_ev[pid] == u:
                            death_kind[pid] = 0
                            death_ev[pid] = -1
                rm_kind[u] = 1
                rm_row[u] = cu
                rm_ev[u] = u
                rm_kind[p] = 2
                rm_row[p] = rk
                rm_w[p] = w
                rm_ev[p] = u
                death_kind[pu] = 1
                death_row[pu] = cu
                death_ev[pu] = u
                death_kind[pw] = 2
                death_row[pw] = cw
                death_w[pw] = w
                death_k0[pw] = tlft[w]
                death_k1[pw] = trgt[w]
                death_ev[pw] = u
                ev_pu[u] = pu
                ev_pw[u] = pw
            ev_rake[u] = rk
            ev_comp[u] = ck
            ogs = ev_gs[u]
            if op_ != p or og != g:
                # The side of g that p hangs from is fixed by T.
                ev_gs[u] = 0 if g < 0 or child(g, 0, t) == p else 1
            gs = ev_gs[u]
            # touch-list membership, then the writes' later readers
            if op_ != p or ow != w or og != g:
                was = (op_, ow, og)
                now = (p, w, g)
                for x in was:
                    if x >= 0 and x not in now:
                        touch[x].remove(u)
                for x in now:
                    if x >= 0 and x not in was:
                        insort(touch[x], u, t)
                ev_p[u] = p
                ev_w[u] = w
                ev_g[u] = g
            mark_readers(w, -1, t)
            if ow >= 0 and ow != w:
                mark_readers(ow, -1, t)
            if ow != w or og != g or ogs != gs:
                if g >= 0:
                    mark_readers(g, gs, t)
                if og >= 0 and (og != g or ogs != gs):
                    mark_readers(og, ogs, t)

        self.visited_events = visited
        last = schedule.last
        self.rounds = schedule.n_rounds
        root = base[troot] if last is None else ev_comp[last]
        final = troot if last is None else ev_w[last]
        self._finish(len(nodes), root, next_rid, fresh, fresh_rows, final)
    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _index(self, nodes: Dict[int, Any]) -> None:
        """Build the change-propagation index of the first build: leaf
        order labels, event time stamps, record owners, the unstable
        leaves and the touch lists — the latter filled in schedule
        order, which is time order, so each comes out sorted."""
        schedule = self._pending
        assert schedule is not None
        self._pending = None
        self._renumber_leaves()
        lab, ev_key = self._lab, self._ev_key
        ev_p, ev_w, ev_g = self._ev_p, self._ev_w, self._ev_g
        ev_pu, ev_pw = self._ev_pu, self._ev_pw
        rm_ev, death_ev = self._rm_ev, self._death_ev
        eq = self.ring.eq
        self._unstable = {
            x for x, nd in nodes.items()
            if nd.op is None and not eq(nd.value, nd.value)
        }
        # Thousands of fresh lists at once would trip a cascade of full
        # collections over the whole heap, and none of them is garbage.
        collecting = gc.isenabled()
        gc.disable()
        try:
            touch = self._touch = [[] for _ in range(len(self._base))]
        finally:
            if collecting:
                gc.enable()
        for u, rnd in zip(schedule.raked, schedule.rounds):
            ev_key[u] = (rnd << _ROUND_SHIFT) | lab[u]
            p, w, g = ev_p[u], ev_w[u], ev_g[u]
            rm_ev[u] = rm_ev[p] = death_ev[ev_pu[u]] = death_ev[ev_pw[u]] = u
            touch[u].append(u)
            touch[p].append(u)
            touch[w].append(u)
            if g >= 0:
                touch[g].append(u)

    def _finish(
        self,
        n_live: int,
        root: int,
        next_rid: int,
        fresh: int,
        fresh_rows: Any,
        final: int,
    ) -> None:
        """Install one replay's root and counters and evaluate the
        fresh rows' labels."""
        self._removal_cache = None
        self.final_tnode = final
        # The last survivor occupies the T root's position.
        self.final_pos = self._troot
        self._root_row = root
        # A reused root may retain a stale parent pointer into a
        # discarded consumer from the prior replay; the new root has no
        # consumer.
        self._rparent[root] = -1
        self.next_rid = next_rid
        self.fresh_nodes = fresh
        relabel_rows(
            self.ring, fresh_rows, self._kind, self._lchild, self._rchild,
            self._labA, self._labB, self._op,
        )
        in_use = len(self._kind) - len(self._free)
        if in_use > _GC_FACTOR * max(64, n_live):
            self._sweep()

    def _new_row(self, kind: int, rid: int, a: Any, b: Any) -> int:
        """One fresh slab row (free-list first), unlinked."""
        if self._free:
            row = self._free.pop()
            self._is_free[row] = 0
            self._kind[row] = kind
            self._lchild[row] = self._rchild[row] = self._rparent[row] = -1
            self._op[row] = None
            self._rid[row] = rid
            self._labA[row] = a
            self._labB[row] = b
            return row
        self._kind.append(kind)
        self._lchild.append(-1)
        self._rchild.append(-1)
        self._rparent.append(-1)
        self._op.append(None)
        self._rid.append(rid)
        self._labA.append(a)
        self._labB.append(b)
        self._is_free.append(0)
        return len(self._kind) - 1

    def _extend(self, m: int) -> None:
        """Size every T-node-indexed column to ``m`` ids."""
        k = m - len(self._base)
        if k <= 0:
            return
        pad = [-1] * k
        for col in (
            self._base, self._ev_p, self._ev_w, self._ev_g, self._ev_rake,
            self._ev_comp, self._ev_key, self._ev_pu, self._ev_pw,
            self._rm_row, self._rm_w, self._rm_ev, self._death_row,
            self._death_w, self._death_k0, self._death_k1, self._death_ev,
            self._tpar, self._tlft, self._trgt, self._lab,
        ):
            col += pad
        zeros = bytes(k)
        self._ev_gs += zeros
        self._rm_kind += zeros
        self._death_kind += zeros
        if self._kind:  # the first build leaves the touch lists to _index
            self._touch += [[] for _ in range(k)]

    def _renumber_leaves(self) -> None:
        """Respace the leaf order labels (a batch of grows ran a gap
        out) and restamp every event; time order is unchanged."""
        tlft, trgt, lab = self._tlft, self._trgt, self._lab
        stack = [self._troot]
        gap = 0
        while stack:
            x = stack.pop()
            if tlft[x] < 0:
                lab[x] = gap
                gap += _LAB_GAP
            else:
                stack.append(trgt[x])
                stack.append(tlft[x])
        ev_key = self._ev_key
        for u, key in enumerate(ev_key):
            if key >= 0:
                ev_key[u] = (key >> _ROUND_SHIFT << _ROUND_SHIFT) | lab[u]

    def _sweep(self) -> None:
        """Mark-sweep the slab: rows unreachable from the current
        replay's products can never be named again (the memo rule only
        consults the latest base/event rows), so they go to the
        free-list.  Labels of freed rows are dropped to release the
        ring elements."""
        n = len(self._kind)
        marked = bytearray(n)
        stack: List[int] = [self._root_row]
        stack.extend(r for r in self._base if r >= 0)
        stack.extend(r for r in self._ev_rake if r >= 0)
        stack.extend(r for r in self._ev_comp if r >= 0)
        lch, rch = self._lchild, self._rchild
        while stack:
            row = stack.pop()
            if row < 0 or marked[row]:
                continue
            marked[row] = 1
            stack.append(lch[row])
            stack.append(rch[row])
        free, is_free = self._free, self._is_free
        labA, labB, ops_col = self._labA, self._labB, self._op
        for row in range(n):
            if not marked[row] and not is_free[row]:
                is_free[row] = 1
                free.append(row)
                labA[row] = None
                labB[row] = None
                ops_col[row] = None
