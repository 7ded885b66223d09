"""Monoids — the summary domain of the incremental list-prefix structure.

§3 stores ``SUM_v`` at every splitting-tree node.  Nothing in the
construction needs more than associativity and an identity, so the
structure is parameterised by a :class:`Monoid`; the paper's prefix sums
use :func:`sum_monoid`, while the LCA application (§5) uses
:func:`argmin_monoid` over (depth, node) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from .rings import Ring

__all__ = [
    "Monoid",
    "sum_monoid",
    "min_monoid",
    "max_monoid",
    "argmin_monoid",
    "count_monoid",
]


@dataclass(frozen=True)
class Monoid:
    """An associative operation with identity.

    ``ring`` is set only when ``combine`` *is* that ring's addition
    (``sum_monoid``): it asserts the monoid is ring-sum, which lets the
    flat backend fold prefixes through the exact vectorized
    doubling scan instead of the sequential Python loop.  General
    monoids leave it ``None`` and always fold sequentially.
    """

    name: str
    identity: Any
    combine: Callable[[Any, Any], Any]
    ring: Optional[Ring] = None

    def fold(self, items: Iterable[Any]) -> Any:
        acc = self.identity
        for x in items:
            acc = self.combine(acc, x)
        return acc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Monoid({self.name})"


def sum_monoid(ring: Ring) -> Monoid:
    """Addition in ``ring`` (the paper's SUM_v)."""
    return Monoid(f"sum[{ring.name}]", ring.zero, ring.add, ring=ring)


def count_monoid() -> Monoid:
    """Integer counting (e.g. 'number of enter-events so far')."""
    return Monoid("count", 0, lambda a, b: a + b)


_INF = float("inf")


def min_monoid() -> Monoid:
    return Monoid("min", _INF, min)


def max_monoid() -> Monoid:
    return Monoid("max", -_INF, max)


def argmin_monoid() -> Monoid:
    """Minimum over ``(key, payload)`` pairs, comparing by key only.

    Ties keep the *leftmost* pair, which makes prefix queries
    deterministic.  Identity is ``(inf, None)``.
    """

    def combine(a: Any, b: Any) -> Any:
        return b if b[0] < a[0] else a

    return Monoid("argmin", (_INF, None), combine)
