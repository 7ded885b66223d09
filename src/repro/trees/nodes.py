"""Node and operation types for the dynamic binary expression tree ``T``.

The paper's tree is a *full* binary tree (every internal node has exactly
two children) of bounded size but **unbounded depth** — the data
structures must not assume balance.  Leaves carry ring values; internal
nodes carry a binary ring operation.

Operations are ``x + y + c`` (addition with an optional constant, which
lets applications express e.g. ``size = size_l + size_r + 1``) and
``x * y``.  Both fit the (A, B)-label contraction rules of §4.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..algebra.rings import Ring
from ..errors import LabelError

__all__ = ["Op", "TreeNode", "add_op", "mul_op"]


@dataclass(frozen=True)
class Op:
    """A binary node operation: ``add`` (with constant) or ``mul``.

    ``kind`` is ``"add"`` or ``"mul"``; ``const`` applies only to ``add``
    (the node computes ``x + y + const``).
    """

    kind: str
    const: Any = None  # ring element; None means the ring's zero

    def apply(self, ring: Ring, x: Any, y: Any) -> Any:
        if self.kind == "add":
            out = ring.add(x, y)
            if self.const is not None:
                out = ring.add(out, self.const)
            return out
        if self.kind == "mul":
            return ring.mul(x, y)
        raise LabelError(f"unknown op kind {self.kind!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind == "add" and self.const is not None:
            return f"Op(+ const={self.const!r})"
        return f"Op({'+' if self.kind == 'add' else '*'})"


def add_op(const: Any = None) -> Op:
    """Addition node operation ``x + y [+ const]``."""
    return Op("add", const)


def mul_op() -> Op:
    """Multiplication node operation ``x * y``."""
    return Op("mul")


class TreeNode:
    """One node of the expression tree.

    A node is a leaf iff ``op is None``; leaves hold ``value``, internal
    nodes hold ``op`` and two children.  Identity is the integer ``nid``
    assigned by the owning :class:`~repro.trees.expr.ExprTree` — requests
    in batch updates refer to nodes by id.
    """

    __slots__ = ("nid", "parent", "left", "right", "op", "value")

    def __init__(self, nid: int) -> None:
        self.nid = nid
        self.parent: Optional["TreeNode"] = None
        self.left: Optional["TreeNode"] = None
        self.right: Optional["TreeNode"] = None
        self.op: Optional[Op] = None
        self.value: Any = None

    @property
    def is_leaf(self) -> bool:
        return self.op is None

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_leaf:
            return f"Leaf({self.nid}, value={self.value!r})"
        return f"Node({self.nid}, op={self.op!r})"
