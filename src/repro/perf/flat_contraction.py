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

Replay is two-phase.  Phase 1 walks the schedule and settles *only
topology*: reuse checks are integer column compares (row ids stand in
for the reference's object identity — safe because the mark-sweep
collector below never frees a row the previous replay's records can
still name).  Phase 2 evaluates the labels of the fresh rows in one
pass in creation order: ``_rid`` is a topological stamp (every
composite row is stamped after both of its children), so one loop over
the rows applies each label rule inline from settled inputs, with no
per-row node objects or tuples.  Label pairs live interned in the slab
across replays: a reused event re-reads its old rows instead of
re-allocating, which is what makes the memoised path allocation-free.

Rows no replay can reach any more are reclaimed by an occasional
mark-sweep over the slab (roots: current base rows, current event
rows, the RT root) onto a free-list — the slab stays ``O(tree)`` no
matter how many batches run.

The public surface mirrors :class:`RakeTrace`'s trace protocol
(``value`` / ``size`` / ``set_leaf_label`` / ``set_rake_op`` /
``heal`` / ``death_record`` / ``removal_kind``) and is pinned by lint
rule R003 (``contraction-trace`` pair) plus the differential fuzzer:
identical values, rounds, wound sizes and fresh-node counts as the
reference backend.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from ..algebra.rings import Ring
from ..errors import TreeStructureError
from ..pram.frames import SpanTracker
from ..trees.expr import ExprTree
from ..trees.nodes import Op

__all__ = ["FlatContraction"]

# Row kinds (column ``_kind``).
_LEAF, _INIT, _RAKE, _COMPRESS = 0, 1, 2, 3

#: Slab occupancy (rows in use vs. a linear bound on the live rake
#: tree) above which replay finishes with a mark-sweep.
_GC_FACTOR = 8

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
        # -- replay products (tnode-/position-indexed arrays) ------------
        self._base: List[int] = []
        self._ev_p: List[int] = []
        self._ev_w: List[int] = []
        self._ev_rake: List[int] = []
        self._ev_comp: List[int] = []
        self._rm_kind = bytearray()
        self._rm_row: List[int] = []
        self._rm_w: List[int] = []
        self._death_kind = bytearray()
        self._death_row: List[int] = []
        self._death_w: List[int] = []
        self._death_k0: List[int] = []
        self._death_k1: List[int] = []
        self._root_row = -1
        self._removal_cache: Optional[Dict[int, Tuple]] = None
        self.final_tnode: Optional[int] = None
        self.final_pos: Optional[int] = None
        self.rounds = 0
        self.next_rid = 0
        self.fresh_nodes = 0  # rows NOT reused from the prior replay

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
        seen: Dict[int, bool] = {}
        for row in tokens:
            while row >= 0 and row not in seen:
                seen[row] = True
                row = rparent[row]
        wound = sorted(seen, key=self._rid.__getitem__)
        self._relabel(wound)
        if tracker is not None:
            k = len(wound) + 1
            tracker.charge(
                work=k, span=max(1, 2 * math.ceil(math.log2(k + 1)))
            )
        return len(wound)

    # ------------------------------------------------------------------
    # replay (build / memoised rebuild)
    # ------------------------------------------------------------------
    def replay(self, tree: ExprTree, schedule: "FlatSchedule") -> "FlatContraction":
        """Run (or re-run) the contraction over ``tree`` with the flat
        ``schedule``, reusing every event whose signature and input
        rows are unchanged — the port of
        :func:`~repro.contraction.rake_tree.build_trace` with
        ``old=self`` (first call: empty slab, everything fresh)."""
        ring = tree.ring
        eq = ring.eq
        zero, one = ring.zero, ring.one
        m = tree._next_id

        # Previous replay's products drive the memo rule.
        prev_base = self._base
        prev_ev_p, prev_ev_w = self._ev_p, self._ev_w
        prev_ev_rake, prev_ev_comp = self._ev_rake, self._ev_comp
        prev_n = len(prev_base)

        # Slab columns as locals (hot loop).
        kind, lch, rch = self._kind, self._lchild, self._rchild
        rpar, ops_col = self._rparent, self._op
        rid_col, labA, labB = self._rid, self._labA, self._labB
        free, is_free = self._free, self._is_free
        next_rid = self.next_rid
        fresh = 0

        # Contracted-tree view + replay products (tnode-indexed).
        parent_t = [-1] * m
        left_t = [-1] * m
        right_t = [-1] * m
        ops_t: List[Optional[Op]] = [None] * m
        cur = [-1] * m
        pos = [-1] * m
        base = [-1] * m
        ev_p = [-1] * m
        ev_w = [-1] * m
        ev_rake = [-1] * m
        ev_comp = [-1] * m
        rm_kind = bytearray(m)
        rm_row = [-1] * m
        rm_w = [-1] * m
        death_kind = bytearray(m)
        death_row = [-1] * m
        death_w = [-1] * m
        death_k0 = [-1] * m
        death_k1 = [-1] * m

        # -- pass 1: contracted view + base rows (with reuse) ------------
        if not kind:
            # Virgin slab (first build): nothing can possibly be reused,
            # so the base columns are built in bulk — one C-level
            # comprehension per column over the preorder node list
            # instead of ten interpreted appends per node.  Row index
            # equals preorder position, so the rid numbering matches the
            # reference trace's assignment order exactly.
            order: List[Any] = []
            push = order.append
            stack = [tree.root]
            while stack:
                node = stack.pop()
                push(node)
                nid = node.nid
                pos[nid] = nid
                l = node.left
                if l is not None:
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
            rid_col += range(next_rid, next_rid + n_live)
            labA += [zero if nd.op is None else one for nd in order]
            labB += [nd.value if nd.op is None else zero for nd in order]
            is_free += bytes(n_live)
            next_rid += n_live
            fresh += n_live
            for row, nd in enumerate(order):
                base[nd.nid] = row
                cur[nd.nid] = row
        else:
            n_live = 0
            stack = [tree.root]
            while stack:
                node = stack.pop()
                nid = node.nid
                n_live += 1
                pos[nid] = nid
                op = node.op
                if op is None:
                    row = prev_base[nid] if nid < prev_n else -1
                    if row < 0 or kind[row] != _LEAF or not eq(
                        labB[row], node.value
                    ):
                        if free:
                            row = free.pop()
                            is_free[row] = 0
                            kind[row] = _LEAF
                            lch[row] = rch[row] = rpar[row] = -1
                            ops_col[row] = None
                            rid_col[row] = next_rid
                            labA[row] = zero
                            labB[row] = node.value
                        else:
                            row = len(kind)
                            kind.append(_LEAF)
                            lch.append(-1)
                            rch.append(-1)
                            rpar.append(-1)
                            ops_col.append(None)
                            rid_col.append(next_rid)
                            labA.append(zero)
                            labB.append(node.value)
                            is_free.append(0)
                        next_rid += 1
                        fresh += 1
                else:
                    l, r = node.left, node.right
                    left_t[nid] = l.nid
                    right_t[nid] = r.nid
                    parent_t[l.nid] = nid
                    parent_t[r.nid] = nid
                    ops_t[nid] = op
                    stack.append(r)
                    stack.append(l)
                    row = prev_base[nid] if nid < prev_n else -1
                    if row < 0 or kind[row] != _INIT:
                        if free:
                            row = free.pop()
                            is_free[row] = 0
                            kind[row] = _INIT
                            lch[row] = rch[row] = rpar[row] = -1
                            ops_col[row] = None
                            rid_col[row] = next_rid
                            labA[row] = one
                            labB[row] = zero
                        else:
                            row = len(kind)
                            kind.append(_INIT)
                            lch.append(-1)
                            rch.append(-1)
                            rpar.append(-1)
                            ops_col.append(None)
                            rid_col.append(next_rid)
                            labA.append(one)
                            labB.append(zero)
                            is_free.append(0)
                        next_rid += 1
                        fresh += 1
                base[nid] = row
                cur[nid] = row

        if n_live == 1:
            # Mirrors the reference early return: a single-leaf tree has
            # no events and its trace reports zero rounds.
            self.rounds = 0
            final = tree.root.nid
            self._finish(
                tree, final, pos, base, cur,
                ev_p, ev_w, ev_rake, ev_comp,
                rm_kind, rm_row, rm_w,
                death_kind, death_row, death_w, death_k0, death_k1,
                next_rid, fresh, [],
            )
            return self
        self.rounds = schedule.n_rounds

        # -- pass 2: schedule replay (topology only) ---------------------
        fresh_rows: List[int] = []
        last_w = -1
        for u in schedule.raked:
            p = parent_t[u]
            if p < 0:
                # u is the last remaining node; nothing to rake.
                continue
            w = right_t[p] if left_t[p] == u else left_t[p]
            op = ops_t[p]
            if op is None:
                raise TreeStructureError(
                    f"contracted parent {p} has no operation"
                )
            cu, cp, cw = cur[u], cur[p], cur[w]
            rk = ck = -1
            if u < prev_n and prev_ev_p[u] == p and prev_ev_w[u] == w:
                ork, ock = prev_ev_rake[u], prev_ev_comp[u]
                if (
                    ops_col[ork] is op
                    and lch[ork] == cu
                    and rch[ork] == cp
                    and rch[ock] == cw
                ):
                    rk, ck = ork, ock
            if rk < 0:
                nf = len(free)
                if nf == 0:
                    # Fresh pair appended together: tuple extends halve
                    # the interpreted call count of the common path.
                    rk = len(kind)
                    ck = rk + 1
                    kind += _PAIR_KINDS
                    lch += (cu, rk)
                    rch += (cp, cw)
                    rpar += _PAIR_NEG1
                    ops_col += (op, None)
                    rid_col += (next_rid, next_rid + 1)
                    labA += _PAIR_NONE
                    labB += _PAIR_NONE
                    is_free += _PAIR_ZERO
                elif nf == 1:
                    rk = free.pop()
                    is_free[rk] = 0
                    kind[rk] = _RAKE
                    lch[rk] = cu
                    rch[rk] = cp
                    ops_col[rk] = op
                    rid_col[rk] = next_rid
                    ck = len(kind)
                    kind.append(_COMPRESS)
                    lch.append(rk)
                    rch.append(cw)
                    rpar.append(-1)
                    ops_col.append(None)
                    rid_col.append(next_rid + 1)
                    labA.append(None)
                    labB.append(None)
                    is_free.append(0)
                else:
                    rk = free.pop()
                    ck = free.pop()
                    is_free[rk] = 0
                    is_free[ck] = 0
                    kind[rk] = _RAKE
                    kind[ck] = _COMPRESS
                    lch[rk] = cu
                    lch[ck] = rk
                    rch[rk] = cp
                    rch[ck] = cw
                    rpar[ck] = -1
                    ops_col[rk] = op
                    ops_col[ck] = None
                    rid_col[rk] = next_rid
                    rid_col[ck] = next_rid + 1
                next_rid += 2
                fresh += 2
                rpar[cu] = rk
                rpar[cp] = rk
                rpar[cw] = ck
                rpar[rk] = ck
                fresh_rows.append(rk)
                fresh_rows.append(ck)
            rm_kind[u] = 1
            rm_row[u] = cu
            rm_kind[p] = 2
            rm_row[p] = rk
            rm_w[p] = w
            ev_p[u] = p
            ev_w[u] = w
            ev_rake[u] = rk
            ev_comp[u] = ck
            # Position deaths (value-query records).
            pu = pos[u]
            death_kind[pu] = 1
            death_row[pu] = cu
            pw = pos[w]
            wl = left_t[w]
            death_kind[pw] = 2
            death_row[pw] = cw
            death_w[pw] = w
            if wl >= 0:
                death_k0[pw] = pos[wl]
                death_k1[pw] = pos[right_t[w]]
            pos[w] = pos[p]
            cur[w] = ck
            # splice p out of the contracted view
            g = parent_t[p]
            parent_t[w] = g
            if g >= 0:
                if left_t[g] == p:
                    left_t[g] = w
                else:
                    right_t[g] = w
            parent_t[u] = -1
            parent_t[p] = -1
            n_live -= 2
            last_w = w

        if n_live != 1:
            raise TreeStructureError(
                f"contraction left {n_live} live nodes (schedule out of "
                "sync with the expression tree)"
            )
        self._finish(
            tree, last_w, pos, base, cur,
            ev_p, ev_w, ev_rake, ev_comp,
            rm_kind, rm_row, rm_w,
            death_kind, death_row, death_w, death_k0, death_k1,
            next_rid, fresh, fresh_rows,
        )
        return self

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _finish(
        self, tree, final, pos, base, cur,
        ev_p, ev_w, ev_rake, ev_comp,
        rm_kind, rm_row, rm_w,
        death_kind, death_row, death_w, death_k0, death_k1,
        next_rid, fresh, fresh_rows,
    ) -> None:
        """Install one replay's products and evaluate fresh labels."""
        self._base = base
        self._ev_p, self._ev_w = ev_p, ev_w
        self._ev_rake, self._ev_comp = ev_rake, ev_comp
        self._rm_kind, self._rm_row, self._rm_w = rm_kind, rm_row, rm_w
        self._death_kind, self._death_row = death_kind, death_row
        self._death_w = death_w
        self._death_k0, self._death_k1 = death_k0, death_k1
        self._removal_cache = None
        self.final_tnode = final
        self.final_pos = pos[final]
        root = cur[final]
        self._root_row = root
        # A reused root may retain a stale parent pointer into a
        # discarded consumer from the prior replay; the new root has no
        # consumer.
        self._rparent[root] = -1
        self.next_rid = next_rid
        self.fresh_nodes = fresh
        self._relabel(fresh_rows)
        in_use = len(self._kind) - len(self._free)
        if in_use > _GC_FACTOR * max(64, tree._next_id):
            self._sweep()

    def _relabel(self, rows: List[int]) -> None:
        """Evaluate the composite rows of ``rows`` in one pass; base
        rows carry their labels already and are skipped.  ``rows`` must
        be in ascending ``_rid`` order: every composite row is stamped
        after both of its children, so its inputs are settled when it
        is reached.  Each rule keeps the exact operation order of
        :mod:`~repro.contraction.labels`, so float labels match the
        reference bitwise."""
        kind, lch, rch = self._kind, self._lchild, self._rchild
        labA, labB, ops_col = self._labA, self._labB, self._op
        add, mul = self.ring.add, self.ring.mul
        for row in rows:
            k = kind[row]
            if k == _COMPRESS:
                l, r = lch[row], rch[row]
                a = labA[l]
                labA[row] = mul(a, labA[r])
                labB[row] = add(mul(a, labB[r]), labB[l])
            elif k == _RAKE:
                r = rch[row]
                b, c = labB[lch[row]], labA[r]
                op = ops_col[row]
                if op.kind == "add":
                    if op.const is not None:
                        b = add(b, op.const)
                    labA[row] = c
                    labB[row] = add(mul(c, b), labB[r])
                else:
                    labA[row] = mul(c, b)
                    labB[row] = labB[r]

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
