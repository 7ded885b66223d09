"""The (A, B) label calculus of §4.2.

Every node of the (partially contracted) expression tree carries a label
``(A, B)`` over the ring, meaning: *if ``x`` is the value of the one
remaining uncontracted subtree below this node, the node's value is
``A·x + B``*.  Leaves start at ``(0, value)``; internal nodes at
``(1, 0)``.

A rake of leaf ``v`` into parent ``p`` (operation ``op_p``), followed by
the compress of ``p`` into sibling ``w``, uses exactly the paper's three
update rules:

* small-rake, ``op_p = +``:  ``(A,B), (C,D) -> (C, C·B + D)``
  (generalised here to ``x + y + c`` constants: ``(C, C·(B+c) + D)``);
* small-rake, ``op_p = ×``:  ``(A,B), (C,D) -> (C·B, D)``;
* small-compress:            ``(A,B), (C,D) -> (A·C, A·D + B)``
  (function composition — associative, the linchpin of Theorem 4.2).

Raked nodes are always leaves, so their ``A`` component is always the
ring zero; the rules above rely on that.

:func:`relabel_rows` is the same three rules applied to the rows of a
flat rake tree (:class:`~repro.perf.flat_contraction.FlatContraction`'s
columns); it is the only other place the rules are written.  Over a
ring from :func:`~repro.algebra.rings.modular_ring` it runs them as
native int arithmetic with one ``% p`` per output cell, which gives the
same ints as the scalar rules (see its docstring).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..algebra.rings import Ring
from ..errors import LabelError
from ..trees.nodes import Op

__all__ = [
    "leaf_label",
    "init_label",
    "rake_label",
    "compress_label",
    "apply_label",
    "relabel_rows",
    "ROW_LEAF",
    "ROW_INIT",
    "ROW_RAKE",
    "ROW_COMPRESS",
]

Label = Tuple[Any, Any]

#: Row kinds of a flat rake-tree ``kind`` column: base rows (a leaf's
#: ``(0, value)``, an internal node's ``(1, 0)``) carry their labels;
#: a rake row is the raking parent's label, a compress row the
#: composition.
ROW_LEAF, ROW_INIT, ROW_RAKE, ROW_COMPRESS = 0, 1, 2, 3


def leaf_label(ring: Ring, value: Any) -> Label:
    """``(0, value)`` — a known constant."""
    return (ring.zero, value)


def init_label(ring: Ring) -> Label:
    """``(1, 0)`` — the identity label internal nodes start with."""
    return (ring.one, ring.zero)


def rake_label(ring: Ring, op: Op, leaf: Label, parent: Label) -> Label:
    """Label of ``p`` after small-raking leaf ``v`` into it."""
    _, b = leaf
    c, d = parent
    if op.kind == "add":
        if op.const is not None:
            b = ring.add(b, op.const)
        return (c, ring.add(ring.mul(c, b), d))
    if op.kind == "mul":
        return (ring.mul(c, b), d)
    raise LabelError(f"unknown op kind {op.kind!r}")


def compress_label(ring: Ring, outer: Label, inner: Label) -> Label:
    """Label of ``w`` after compressing ``p`` (label ``outer``) into it:
    the composition ``outer ∘ inner``."""
    a, b = outer
    c, d = inner
    return (ring.mul(a, c), ring.add(ring.mul(a, d), b))


def apply_label(ring: Ring, label: Label, x: Any) -> Any:
    """Evaluate ``A·x + B``."""
    a, b = label
    return ring.add(ring.mul(a, x), b)


def relabel_rows(
    ring: Ring,
    rows: Sequence[int],
    kind: Sequence[int],
    lch: Sequence[int],
    rch: Sequence[int],
    lab_a: List[Any],
    lab_b: List[Any],
    ops: Sequence[Optional[Op]],
) -> None:
    """Evaluate the composite rows of ``rows`` over flat rake-tree
    columns in place; base rows carry their labels and are skipped.

    A rake row's left child is the raked leaf's row and its right child
    the raking parent's row, with the parent's op in ``ops``; a
    compress row's left child is the outer label and its right child
    the inner one.  ``rows`` must be in an order that settles both
    children before their consumer (ascending creation stamp does).

    The generic form calls ``ring.add``/``ring.mul`` in exactly the
    operation order of :func:`rake_label` and :func:`compress_label`,
    so float labels match them bitwise.  Over ``Z/p`` (``ring.modulus``
    set) each output cell that the scalar rules compute is one native
    int expression reduced once, e.g. the compress ``B`` becomes
    ``(A_l·B_r + B_l) % p`` for ``((A_l·B_r) % p + B_l) % p``: equal
    mod ``p`` and both in ``[0, p)``, so the same int.  Cells the rules
    copy (the rake-add ``A``, the rake-mul ``B``) are copied by both
    forms, unreduced leaf values included.
    """
    p = ring.modulus
    if p is not None:
        for row in rows:
            k = kind[row]
            if k == ROW_COMPRESS:
                l, r = lch[row], rch[row]
                a = lab_a[l]
                lab_a[row] = a * lab_a[r] % p
                lab_b[row] = (a * lab_b[r] + lab_b[l]) % p
            elif k == ROW_RAKE:
                r = rch[row]
                b, c = lab_b[lch[row]], lab_a[r]
                op = ops[row]
                if op.kind == "add":
                    if op.const is not None:
                        b = b + op.const
                    lab_a[row] = c
                    lab_b[row] = (c * b + lab_b[r]) % p
                else:
                    lab_a[row] = c * b % p
                    lab_b[row] = lab_b[r]
        return
    add, mul = ring.add, ring.mul
    for row in rows:
        k = kind[row]
        if k == ROW_COMPRESS:
            l, r = lch[row], rch[row]
            a = lab_a[l]
            lab_a[row] = mul(a, lab_a[r])
            lab_b[row] = add(mul(a, lab_b[r]), lab_b[l])
        elif k == ROW_RAKE:
            r = rch[row]
            b, c = lab_b[lch[row]], lab_a[r]
            op = ops[row]
            if op.kind == "add":
                if op.const is not None:
                    b = add(b, op.const)
                lab_a[row] = c
                lab_b[row] = add(mul(c, b), lab_b[r])
            else:
                lab_a[row] = mul(c, b)
                lab_b[row] = lab_b[r]
