"""The rake tree ``RT`` (§4.2) and its construction/replay.

``RT`` records every binary label operation the contraction performs:
whenever a label is produced from two labels, the two operand nodes are
joined under a parent labelled with the producing function.  There is a
one-to-one correspondence between ``RT`` nodes and all labels ever
assigned; the final label (the whole tree's value) is the ``RT`` root.
Evaluating ``RT`` bottom-up recomputes every label, and because each
operation is affine in each argument, a *wounded fragment* ``RT(W)`` can
be re-evaluated by tree contraction itself (see evaluator.py).

Construction replays the :mod:`~repro.contraction.schedule` over a
contracted-tree view of the expression tree.  Replay is *memoising*:
given the previous trace, an event whose signature (raked leaf, current
parent, current sibling, parent op) and whose three input ``RT`` nodes
are unchanged reuses the previous trace's ``RT`` nodes outright.  The
number of *fresh* ``RT`` nodes per update batch is therefore exactly the
paper's wound size — the quantity Theorem 4.1 bounds by
``O(|U| log n)`` and experiment E6 measures.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..algebra.rings import Ring
from ..errors import TreeStructureError
from ..trees.expr import ExprTree
from ..trees.nodes import Op
from .labels import compress_label, init_label, leaf_label, rake_label
from .schedule import Schedule

__all__ = ["RTNode", "RakeTrace", "build_trace"]


class RTNode:
    """One label in the contraction history.

    ``kind``:

    * ``'leaf'``  — a T-leaf's base label ``(0, value)``;
    * ``'init'``  — a T-internal node's initial label ``(1, 0)``;
    * ``'rake'``  — small-rake output (children: raked leaf label, old
      parent label; carries the parent's ``Op``);
    * ``'compress'`` — small-compress output (children: the rake output,
      the old sibling label).
    """

    __slots__ = ("rid", "kind", "left", "right", "parent", "op", "label", "tnode")

    def __init__(
        self,
        rid: int,
        kind: str,
        tnode: int,
        label: Tuple[Any, Any],
        left: Optional["RTNode"] = None,
        right: Optional["RTNode"] = None,
        op: Optional[Op] = None,
    ) -> None:
        self.rid = rid
        self.kind = kind
        self.tnode = tnode
        self.label = label
        self.left = left
        self.right = right
        self.parent: Optional[RTNode] = None
        self.op = op
        if left is not None:
            left.parent = self
        if right is not None:
            right.parent = self

    def recompute(self, ring: Ring) -> None:
        """Refresh ``label`` from children (no-op for base labels)."""
        if self.kind == "rake":
            assert self.left is not None and self.right is not None
            assert self.op is not None
            self.label = rake_label(ring, self.op, self.left.label, self.right.label)
        elif self.kind == "compress":
            assert self.left is not None and self.right is not None
            self.label = compress_label(ring, self.left.label, self.right.label)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RTNode({self.rid}, {self.kind}, t={self.tnode})"


class RakeTrace:
    """The rake tree plus the per-T-node removal records needed for
    value queries (the expansion direction)."""

    def __init__(self, ring: Ring) -> None:
        self.ring = ring
        self.base: Dict[int, RTNode] = {}  # T-node id -> its base RT node
        # T-node id -> ('raked', leaf_label_rt) or
        #              ('compressed', rake_rt, survivor_tnode)
        self.removal: Dict[int, Tuple] = {}
        # raked T-leaf id -> (parent_tnode, sibling_tnode, rake_rt, compress_rt)
        self.event_by_leaf: Dict[int, Tuple[int, int, RTNode, RTNode]] = {}
        # Position-death records for value queries (the expansion
        # direction).  Contraction *positions* mirror the original tree:
        # when leaf u is raked into p and p is compressed into sibling
        # w, the positions of u and w die (their subtree values become
        # recoverable) and w moves up to occupy p's position.
        #   position id -> ('raked', leaf_label_rt)                (u side)
        #                | ('sibling', label_rt, w_tnode, kids)    (w side)
        # where kids is None if w was a contracted leaf, else the pair
        # of positions of w's contracted children at event time.
        self.death: Dict[int, Tuple] = {}
        self.root_rt: Optional[RTNode] = None
        self.final_tnode: Optional[int] = None
        self.final_pos: Optional[int] = None
        self.rounds = 0
        self.next_rid = 0
        self.fresh_nodes = 0  # RT nodes NOT reused from the prior trace

    def new_node(self, *args, **kwargs) -> RTNode:
        node = RTNode(self.next_rid, *args, **kwargs)
        self.next_rid += 1
        self.fresh_nodes += 1
        return node

    @property
    def value(self) -> Any:
        """The whole expression's value: the final label is ``(0, v)``."""
        assert self.root_rt is not None
        return self.root_rt.label[1]

    def size(self) -> int:
        """Number of distinct RT nodes reachable from the root."""
        seen = set()
        stack = [self.root_rt]
        while stack:
            node = stack.pop()
            if node is None or id(node) in seen:
                continue
            seen.add(id(node))
            stack.append(node.left)
            stack.append(node.right)
        return len(seen)

    # -- trace protocol (shared with FlatContraction; lint rule R003
    # pins the two surfaces together) ----------------------------------
    def set_leaf_label(self, nid: int, value: Any) -> RTNode:
        """Overwrite leaf ``nid``'s base label with ``(0, value)``;
        returns the dirty RT node (a heal token)."""
        base = self.base[nid]
        base.label = (self.ring.zero, value)
        return base

    def set_rake_op(self, nid: int, op: Op) -> RTNode:
        """Swap the op baked into the rake event that removed internal
        node ``nid``; returns the dirty rake RT node (a heal token)."""
        rec = self.removal.get(nid)
        if rec is None or rec[0] != "compressed":
            raise TreeStructureError(  # pragma: no cover - pre-admitted
                f"node {nid} has no rake event (is it a leaf?)"
            )
        rake_rt = rec[1]
        rake_rt.op = op
        return rake_rt

    def heal(
        self, tokens: Any, tracker: Optional[Any] = None
    ) -> int:
        """Recompute ``RT(W)`` from the dirty ``tokens`` bottom-up;
        returns the wound size and charges the Theorem 4.2 cost."""
        from .evaluator import collect_wound, heal_bottom_up

        wound = collect_wound(tokens)
        heal_bottom_up(self.ring, wound, tracker)
        return len(wound)

    def death_record(self, pid: int) -> Optional[Tuple]:
        """Normalised position-death record for value queries:
        ``('raked', B)`` or ``('sibling', (A, B), w_tnode, kids)``."""
        rec = self.death.get(pid)
        if rec is None:
            return None
        if rec[0] == "raked":
            return ("raked", rec[1].label[1])
        _, label_rt, w_id, kids = rec
        return ("sibling", label_rt.label, w_id, kids)

    def removal_kind(self, nid: int) -> Optional[str]:
        """``'raked'`` / ``'compressed'`` / ``None`` for T node
        ``nid``'s removal record."""
        rec = self.removal.get(nid)
        return None if rec is None else rec[0]


def build_trace(
    tree: ExprTree,
    schedule: Schedule,
    old: Optional[RakeTrace] = None,
) -> RakeTrace:
    """Run (or re-run) the contraction, producing the rake tree.

    With ``old`` given, events whose signature and inputs are unchanged
    reuse the old trace's RT nodes; ``trace.fresh_nodes`` then counts
    the wound (§4.2's ``RT(W)`` plus the structural splices).

    Replay keys every event on the *raked T-leaf id* and the identity
    of its input RT nodes, never on ``ev.pt_node``, so PT node reuse
    across rebuilds cannot alias a stale event.
    """
    ring = tree.ring
    trace = RakeTrace(ring)
    if old is not None:
        trace.next_rid = old.next_rid

    # Contracted-tree view (plain dicts for speed; ids are T-node ids).
    parent: Dict[int, Optional[int]] = {}
    left: Dict[int, Optional[int]] = {}
    right: Dict[int, Optional[int]] = {}
    current: Dict[int, RTNode] = {}  # current label holder per live T node

    for node in tree.nodes_preorder():
        nid = node.nid
        parent[nid] = node.parent.nid if node.parent else None
        left[nid] = node.left.nid if node.left else None
        right[nid] = node.right.nid if node.right else None
        if node.is_leaf:
            base = None
            if old is not None:
                prev = old.base.get(nid)
                if (
                    prev is not None
                    and prev.kind == "leaf"
                    and ring.eq(prev.label[1], node.value)
                ):
                    base = prev
            if base is None:
                base = trace.new_node("leaf", nid, leaf_label(ring, node.value))
        else:
            base = None
            if old is not None:
                prev = old.base.get(nid)
                if prev is not None and prev.kind == "init":
                    base = prev
            if base is None:
                base = trace.new_node("init", nid, init_label(ring))
        trace.base[nid] = base
        current[nid] = base

    # Position tracking: pos[x] = the original tree position the live
    # contracted node x currently occupies.
    pos: Dict[int, int] = {nid: nid for nid in parent}

    n_live = len(parent)
    if n_live == 1:
        only = next(iter(parent))
        trace.root_rt = trace.base[only]
        trace.final_tnode = only
        trace.final_pos = only
        return trace

    def sibling_of(nid: int) -> int:
        p = parent[nid]
        assert p is not None
        sib = right[p] if left[p] == nid else left[p]
        assert sib is not None
        return sib

    trace.rounds = schedule.n_rounds
    for rnd in schedule.rounds:
        for ev in rnd:
            u = ev.raked
            p = parent.get(u)
            if p is None:
                # u is the last remaining node; nothing to rake.
                continue
            w = sibling_of(u)
            op = tree.node(p).op
            if op is None:
                raise TreeStructureError(
                    f"contracted parent {p} has no operation"
                )
            rake_rt: Optional[RTNode] = None
            comp_rt: Optional[RTNode] = None
            if old is not None:
                prev = old.event_by_leaf.get(u)
                if prev is not None:
                    old_p, old_w, old_rake, old_comp = prev
                    if (
                        old_p == p
                        and old_w == w
                        and old_rake.op is op
                        and old_rake.left is current[u]
                        and old_rake.right is current[p]
                        and old_comp.right is current[w]
                    ):
                        rake_rt, comp_rt = old_rake, old_comp
            if rake_rt is None or comp_rt is None:
                rake_rt = trace.new_node(
                    "rake",
                    p,
                    rake_label(ring, op, current[u].label, current[p].label),
                    left=current[u],
                    right=current[p],
                    op=op,
                )
                comp_rt = trace.new_node(
                    "compress",
                    w,
                    compress_label(ring, rake_rt.label, current[w].label),
                    left=rake_rt,
                    right=current[w],
                )
            trace.removal[u] = ("raked", current[u])
            trace.removal[p] = ("compressed", rake_rt, w)
            trace.event_by_leaf[u] = (p, w, rake_rt, comp_rt)
            # Position deaths: u's position yields a constant (leaf
            # labels keep A = 0); w's position yields its pre-compress
            # label applied to the op over its children's positions.
            trace.death[pos[u]] = ("raked", current[u])
            wl = left.get(w)
            kids = None if wl is None else (pos[wl], pos[right[w]])  # type: ignore[index]
            trace.death[pos[w]] = ("sibling", current[w], w, kids)
            pos[w] = pos[p]
            del pos[u], pos[p]
            current[w] = comp_rt
            # splice p out of the contracted view
            g = parent[p]
            parent[w] = g
            if g is not None:
                if left[g] == p:
                    left[g] = w
                else:
                    right[g] = w
            del parent[u], current[u]
            del parent[p], current[p], left[p], right[p]
            n_live -= 2

    if n_live != 1:
        raise TreeStructureError(
            f"contraction left {n_live} live nodes (schedule out of sync "
            "with the expression tree)"
        )
    final = next(iter(current))
    trace.final_tnode = final
    trace.final_pos = pos[final]
    trace.root_rt = current[final]
    # A reused root may retain a stale parent pointer into a discarded
    # consumer from the prior trace; the new root has no consumer.
    trace.root_rt.parent = None
    return trace
