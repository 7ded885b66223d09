"""Nodes of the binary splitting tree with shortcuts (BSTS, §2).

Each node stores the supplemental information the paper requires:

* ``ACTIVE`` flag (``active``) — initially 0; used by the processor
  activation procedure and reset afterwards;
* ``d_v`` (``depth``) — depth, root has 0.  Depths are assigned at
  (re)build time; because rebuilds replace a subtree in place, the depth
  of a node never changes while the node exists;
* ``n_v`` (``n_leaves``) — number of leaves in the subtree (the paper
  counts nodes; for full binary trees ``nodes = 2*leaves - 1`` so the
  two are interchangeable);
* ``height`` — depth of the subtree below the node (0 for leaves);
* shortcut list ``s_{v,1..m_v}`` (``shortcuts``) — ancestors at depths
  ``⌊d_v · (1 − ρ^i)⌋`` for ratio ``ρ = 2/3``; ``s_{v,0}`` is the root.

Leaves carry an opaque ``item`` payload (a linked-list cell for §3, an
expression-tree leaf for §4) and a ``summary`` slot used to *exactly
maintain* monoid sums over subtrees (SUM_v of §3).
"""

from __future__ import annotations

from typing import Any, List, Optional

__all__ = ["BSTNode"]


class BSTNode:
    __slots__ = (
        "nid",
        "parent",
        "left",
        "right",
        "n_leaves",
        "depth",
        "height",
        "shortcuts",
        "active",
        "low",
        "item",
        "summary",
    )

    def __init__(self, nid: int) -> None:
        self.nid = nid
        self.parent: Optional["BSTNode"] = None
        self.left: Optional["BSTNode"] = None
        self.right: Optional["BSTNode"] = None
        self.n_leaves = 1
        self.depth = 0
        self.height = 0
        # Strictly-increasing-depth ancestor list; None when the node's
        # height is below the presence threshold.
        self.shortcuts: Optional[List["BSTNode"]] = None
        self.active = 0
        # Lower end of the depth range this node's activation processor
        # must cover (CRCW MIN-combining cell; see activation.py).
        self.low: Optional[int] = None
        self.item: Any = None
        self.summary: Any = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "leaf" if self.is_leaf else "node"
        return (
            f"BSTNode({self.nid}, {kind}, d={self.depth}, "
            f"n={self.n_leaves}, h={self.height})"
        )
