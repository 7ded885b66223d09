"""The RBSTS-guided randomized rake schedule (§4.2, first paragraph).

The randomized variant of Kosaraju–Delcher contraction: build an RBSTS
``PT`` over the leaves of the expression tree in left-to-right order and
let it drive the rakes.  Each round considers the set ``S`` of ``PT``
internal nodes whose two children are both current ``PT`` leaves; the
*left* child's corresponding ``T``-leaf is raked, the node is removed
from ``PT``, and the exposed parent corresponds to the unraked right
child.  No two siblings are ever raked in one round (left children of
disjoint sibling pairs are never adjacent), and one ``PT`` level
disappears per round, so the number of rounds is the depth of the RBSTS
— expected ``O(log n)`` (experiment E11).

The schedule is a *pure function of the RBSTS shape*: node ``x`` fires
in round ``1 + max(round(left), round(right))`` (leaves fire at round
0), raking the rightmost ``T``-leaf of its left child's interval.  This
determinism is what makes incremental healing possible: a rebuild only
changes the events at rebuilt ``PT`` nodes and on their root paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set

from ..splitting.node import BSTNode

__all__ = [
    "RakeEvent",
    "Schedule",
    "FlatSchedule",
    "build_schedule",
    "build_flat_schedule",
]


@dataclass(frozen=True)
class RakeEvent:
    """One rake: remove ``raked`` (a T-leaf id) and its current parent.

    ``pt_node`` is the RBSTS node the event fires at; ``survivor`` is
    the T-leaf the exposed parent will correspond to (the right child's
    representative).
    """

    pt_node: int  # RBSTS node id
    raked: int  # T-leaf id (rightmost leaf item of the left PT child)
    survivor: int  # T-leaf id (rightmost leaf item of the right PT child)
    round: int


@dataclass
class Schedule:
    rounds: List[List[RakeEvent]]

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    def events(self) -> List[RakeEvent]:
        return [ev for rnd in self.rounds for ev in rnd]


class FlatSchedule:
    """The rake schedule as flat columns for the flat replay.

    ``raked`` lists raked T-leaf ids and ``rounds`` their rounds
    (1-based).  A full build lists every event round-major (and, within
    a round, in the same left-to-right emission order as the reference
    :class:`Schedule`); an incremental one lists only the events fired
    by the PT slots a batch wrote and their ancestors, a superset of
    the events whose round or raked leaf changed.  ``n_rounds`` is the
    schedule depth and ``last`` the leaf raked in the final round (the
    PT root's event; ``None`` for a one-leaf PT).  Survivors and PT
    provenance are omitted: the flat replay re-derives the sibling from
    its contracted-tree view, exactly like
    :func:`~repro.contraction.rake_tree.build_trace` does — the raked
    leaf id is the only event key either replay uses.

    ``rep`` persists across batches: per PT slot, the slot of the
    rightmost leaf below it, so an incremental build recomputes it on
    the written slots' root paths only.
    """

    __slots__ = ("raked", "rounds", "n_rounds", "last", "rep")

    def __init__(
        self,
        raked: List[int],
        rounds: List[int],
        n_rounds: int,
        last: Optional[int],
        rep: List[int],
    ) -> None:
        self.raked = raked
        self.rounds = rounds
        self.n_rounds = n_rounds
        self.last = last
        self.rep = rep


def build_schedule(root: BSTNode) -> Schedule:
    """Derive the rake schedule from an RBSTS over T-leaf-id items.

    One iterative post-order pass computes, per internal node, its round
    and its interval representative (rightmost leaf's item).  Events in
    a round are emitted left-to-right (in-order), which is the hazard
    -free application order (see rake_tree.py).
    """
    rounds_of: Dict[int, int] = {}
    repr_of: Dict[int, Any] = {}
    events_by_round: List[List[RakeEvent]] = []
    # Post-order via reversed-preorder trick is wrong for this (need both
    # children before parent in left-to-right order); use an explicit
    # two-phase stack that emits parents after children, children in
    # left-right order.
    stack: List[tuple[BSTNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node.is_leaf:
            rounds_of[node.nid] = 0
            repr_of[node.nid] = node.item
            continue
        if not expanded:
            stack.append((node, True))
            stack.append((node.right, False))  # type: ignore[arg-type]
            stack.append((node.left, False))  # type: ignore[arg-type]
            continue
        left, right = node.left, node.right
        rnd = 1 + max(rounds_of[left.nid], rounds_of[right.nid])  # type: ignore[union-attr]
        rounds_of[node.nid] = rnd
        repr_of[node.nid] = repr_of[right.nid]  # type: ignore[union-attr]
        while len(events_by_round) < rnd:
            events_by_round.append([])
        events_by_round[rnd - 1].append(
            RakeEvent(
                pt_node=node.nid,
                raked=repr_of[left.nid],  # type: ignore[union-attr]
                survivor=repr_of[right.nid],  # type: ignore[union-attr]
                round=rnd,
            )
        )
    # The post-order pass emits a round's events in left-to-right leaf
    # order already (children of earlier intervals complete first within
    # the same round ordering); sort defensively by raked id order in
    # the leaf sequence is unnecessary — left-to-right emission follows
    # from the in-order traversal structure.
    return Schedule(rounds=events_by_round)


def build_flat_schedule(
    tree: Any,
    prev: Optional[FlatSchedule] = None,
    written: Iterable[int] = (),
) -> FlatSchedule:
    """:class:`FlatSchedule` over a
    :class:`~repro.perf.flat_rbsts.FlatRBSTS`.

    Without ``prev``: the full build.  One post-order pass computes per
    slot its round (``1 + max(children)``) and rightmost-leaf slot, with
    the visit state packed into the stack entry's sign (``~slot`` marks
    the post-visit), emitting bare raked-leaf ids round-major — the
    same stream, round by round, as the reference schedule's for equal
    PT shapes.

    With ``prev``: the incremental build after one batch.  ``written``
    lists the live slots the batch wrote (its journal's pre-images and
    born slots) plus leaf slots whose item the caller changed.  A
    slot's round and representative are functions of its subtree, so
    only the written slots and their ancestors can change; their round
    is the slab's maintained ``_height``, and each of them re-emits its
    event.  Cost: the size of that region, not of the PT.
    """
    if prev is None:
        return _full_flat_schedule(tree)
    parent, left, right = tree._parent, tree._left, tree._right
    item, height = tree._item, tree._height
    rep = prev.rep
    if len(rep) < len(left):
        rep.extend([-1] * (len(left) - len(rep)))
    region: Set[int] = set()
    for s in written:
        while s != -1 and s not in region:
            region.add(s)
            s = parent[s]
    raked: List[int] = []
    rounds: List[int] = []
    for v in sorted(region, key=height.__getitem__):
        l = left[v]
        if l == -1:
            rep[v] = v
            continue
        rep[v] = rep[right[v]]
        raked.append(item[rep[l]])
        rounds.append(height[v])
    root = tree.root_index
    l = left[root]
    last = None if l == -1 else item[rep[l]]
    return FlatSchedule(raked, rounds, height[root], last, rep)


def _full_flat_schedule(tree: Any) -> FlatSchedule:
    left, right, item = tree._left, tree._right, tree._item
    n = len(left)
    rounds_of = [0] * n
    rep = [-1] * n
    raked_by_round: List[List[int]] = []
    stack: List[int] = [tree.root_index]
    while stack:
        v = stack.pop()
        if v >= 0:
            l = left[v]
            if l == -1:  # leaf slot
                rep[v] = v
                continue
            stack.append(~v)
            stack.append(right[v])
            stack.append(l)
            continue
        v = ~v
        l, r = left[v], right[v]
        rl, rr = rounds_of[l], rounds_of[r]
        rnd = (rl if rl > rr else rr) + 1
        rounds_of[v] = rnd
        rep[v] = rep[r]
        if rnd > len(raked_by_round):
            raked_by_round.append([])
        raked_by_round[rnd - 1].append(item[rep[l]])
    raked: List[int] = []
    rounds: List[int] = []
    for rnd, batch in enumerate(raked_by_round, 1):
        raked.extend(batch)
        rounds.extend([rnd] * len(batch))
    last = raked[-1] if raked else None
    return FlatSchedule(raked, rounds, len(raked_by_round), last, rep)
