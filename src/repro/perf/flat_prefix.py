"""Extended parse-tree flattening (``P̂T(U)``, §3) over the flat arrays.

The reference pipeline (:mod:`repro.splitting.parse_tree`) walks the
activated pointer graph and keys membership by ``id(node)``; here the
activated set is a set of slot indices and the walk reads the
``left``/``right`` arrays directly.  The produced
:class:`~repro.splitting.parse_tree.ExtendedParseTree` is structurally
identical — same entry order, same kinds, same summaries — so
:class:`~repro.listprefix.structure.IncrementalListPrefix` consumes it
without backend-specific code downstream of construction:

* real ``U``-leaf entries carry the *interned* :class:`FlatLeaf`
  handle, so the caller's ``id(handle)`` keyed read-off works
  unchanged;
* foreign subtrees become :class:`FlatSummaryRef` stubs exposing just
  ``summary`` and ``n_leaves`` (all the prefix/range-fold passes read).

:func:`flat_prefix_fold` is the sequential one-leaf prefix walk of
§1.2 over the arrays.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Set

from ..algebra.monoid import Monoid
from ..errors import ParseTreeError
from ..splitting.parse_tree import ExtendedParseTree, PTEntry
from .flat_rbsts import NIL, FlatLeaf, FlatRBSTS

__all__ = [
    "FlatSummaryRef",
    "flat_extended_parse_tree",
    "flat_prefix_fold",
]


class FlatSummaryRef:
    """A summarised foreign subtree in ``P̂T(U)``: one slot snapshot
    exposing exactly what the prefix passes read."""

    __slots__ = ("slot", "summary", "n_leaves")

    def __init__(self, slot: int, summary: Any, n_leaves: int) -> None:
        self.slot = slot
        self.summary = summary
        self.n_leaves = n_leaves

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlatSummaryRef(slot={self.slot}, n_leaves={self.n_leaves})"


def flat_extended_parse_tree(
    tree: FlatRBSTS,
    members: Set[int],
    u_leaves: Sequence[FlatLeaf],
) -> ExtendedParseTree:
    """Flatten ``P̂T(U)`` given the activated *slot* set ``members``
    (from :func:`~repro.perf.flat_activation.flat_activate`).

    Walks only the ``O(|PT(U)|)`` activated region; children outside
    ``members`` become summary entries without being descended into.
    """
    u_slots = {tree._check_handle(h) for h in u_leaves}
    left, right = tree._left, tree._right
    summary, counts = tree._summary, tree._n_leaves
    entries: List[PTEntry] = []
    pt_size = 0
    root = tree.root_index
    if root not in members:
        raise ParseTreeError("root is not part of the activated parse tree")
    stack: List[int] = [root]
    while stack:
        node = stack.pop()
        if node in members:
            pt_size += 1
            if left[node] == NIL:
                if node in u_slots:
                    entries.append(PTEntry(tree.handle(node), "leaf"))
                else:
                    entries.append(
                        PTEntry(FlatSummaryRef(node, summary[node], 1), "summary")
                    )
            else:
                stack.append(right[node])
                stack.append(left[node])
        else:
            entries.append(
                PTEntry(
                    FlatSummaryRef(node, summary[node], counts[node]), "summary"
                )
            )
    root_ref = FlatSummaryRef(root, summary[root], counts[root])
    return ExtendedParseTree(root=root_ref, entries=entries, pt_size=pt_size)  # type: ignore[arg-type]


def flat_prefix_fold(tree: FlatRBSTS, monoid: Monoid, handle: FlatLeaf) -> Any:
    """Inclusive prefix fold at one leaf; O(depth) sequential walk over
    the ``parent``/``left`` arrays (the 'known sequential algorithm' of
    §1.2)."""
    idx = tree._check_handle(handle)
    parent, left, summary = tree._parent, tree._left, tree._summary
    acc_left = monoid.identity
    node = idx
    p = parent[node]
    while p != NIL:
        if left[p] != node:
            acc_left = monoid.combine(summary[left[p]], acc_left)
        node = p
        p = parent[node]
    return monoid.combine(acc_left, summary[idx])

