"""Commutative rings and semirings used as label domains (§4.2).

The rake-tree label machinery works over any *commutative semiring*: the
label of a contracted node is a pair ``(A, B)`` meaning the node
contributes ``A*x + B`` where ``x`` is the (unknown) value of the subtree
hanging below it.  The paper states the construction for commutative
rings; everything here only needs associativity, commutativity and
distributivity, so semirings such as boolean ``(or, and)`` and tropical
``(min, +)`` are supported as well and exercised by the test suite.

Ring elements are plain Python values (ints, floats, tuples); a
:class:`Ring` instance supplies the operations.  Keeping elements
unboxed avoids per-element object overhead in the hot contraction loops,
per the HPC guides' "avoid needless wrappers in inner loops" advice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from ..errors import InvalidParameterError

__all__ = [
    "Ring",
    "INTEGER",
    "FLOAT",
    "BOOLEAN",
    "modular_ring",
    "tropical_semiring",
]


@dataclass(frozen=True)
class Ring:
    """A commutative (semi)ring given by its two operations and constants.

    Attributes
    ----------
    name:
        Human-readable identifier (used in reprs and error messages).
    zero, one:
        Additive and multiplicative identities.
    add, mul:
        Binary operations.  Both must be associative and commutative and
        ``mul`` must distribute over ``add``.
    eq:
        Equality predicate on elements (defaults to ``==``; overridden
        for floats to use a tolerance).
    modulus:
        ``p`` for a ring built by :func:`modular_ring`, else ``None``.
        It is not a constructor argument: only :func:`modular_ring`
        sets it, next to the ``add``/``mul`` it describes, so no ring
        can claim a modulus its operations do not implement.  The
        label row kernel (:func:`~repro.contraction.labels.relabel_rows`)
        reads it to run native ``Z/p`` arithmetic.
    """

    name: str
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    eq: Callable[[Any, Any], bool] = lambda a, b: a == b
    modulus: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Ring({self.name})"

    # -- convenience ------------------------------------------------------
    def sum(self, items: Iterable[Any]) -> Any:
        """Fold ``add`` over an iterable (``zero`` if empty)."""
        acc = self.zero
        for x in items:
            acc = self.add(acc, x)
        return acc

    def product(self, items: Iterable[Any]) -> Any:
        """Fold ``mul`` over an iterable (``one`` if empty)."""
        acc = self.one
        for x in items:
            acc = self.mul(acc, x)
        return acc


def _int_add(a: Any, b: Any) -> Any:
    return a + b


def _int_mul(a: Any, b: Any) -> Any:
    return a * b


INTEGER = Ring("Z", 0, 1, _int_add, _int_mul)
"""The ring of Python integers (arbitrary precision — no overflow)."""

FLOAT = Ring(
    "R",
    0.0,
    1.0,
    _int_add,
    _int_mul,
    eq=lambda a, b: abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b)),
)
"""Floating-point reals with a relative-tolerance equality."""

BOOLEAN = Ring("B", False, True, lambda a, b: a or b, lambda a, b: a and b)
"""The boolean semiring ``(or, and)`` — used e.g. for AND/OR circuits."""


def modular_ring(p: int) -> Ring:
    """The ring of integers modulo ``p`` (``p >= 2``)."""
    if p < 2:
        raise InvalidParameterError(f"modulus must be >= 2, got {p}")
    ring = Ring(
        f"Z/{p}",
        0,
        1 % p,
        lambda a, b: (a + b) % p,
        lambda a, b: (a * b) % p,
    )
    object.__setattr__(ring, "modulus", p)
    return ring


_INF = float("inf")


def tropical_semiring() -> Ring:
    """The (min, +) tropical semiring.

    ``add = min`` with identity ``+inf``; ``mul = +`` with identity ``0``.
    Useful for shortest-path style tree computations; exercised by the
    ablation tests to show the contraction machinery is ring-agnostic.
    """
    return Ring(
        "Trop(min,+)",
        _INF,
        0.0,
        min,
        lambda a, b: a + b,
    )
