"""The positional list: the sequential comparator of §3, with no tree.

A batch addresses the *pre-batch* sequence and is applied as one unit
(§2, Theorems 2.2/2.3); queries are left-to-right monoid folds (§3).
:class:`SequentialList` is that contract on a Python list, with the
method names and argument shapes of ``ResilientListSession``.  It is
the repository's one list model: the ladder's sequential rung and
every list oracle.  It checks nothing; callers send it admitted
requests only.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from ..algebra.monoid import Monoid

__all__ = ["SequentialList", "apply_phase"]


class SequentialList:
    """A Python list driven by ``monoid`` with positional batch verbs."""

    def __init__(self, monoid: Monoid, values: Sequence[Any]) -> None:
        self.monoid = monoid
        self.items: List[Any] = list(values)

    def __len__(self) -> int:
        return len(self.items)

    def values(self) -> List[Any]:
        return list(self.items)

    # -- updates ---------------------------------------------------------
    def insert(self, index: int, value: Any) -> None:
        self.items.insert(index, value)

    def delete(self, index: int) -> Any:
        return self.items.pop(index)

    def batch_insert(self, pairs: Sequence[Tuple[int, Any]]) -> int:
        """Pre-batch positions; equal positions land in request order,
        ahead of the original occupant."""
        by_pos: Dict[int, List[Any]] = {}
        for pos, value in pairs:
            by_pos.setdefault(pos, []).append(value)
        items = self.items
        out: List[Any] = []
        for pos in range(len(items) + 1):
            out.extend(by_pos.get(pos, ()))
            out.extend(items[pos : pos + 1])
        self.items = out
        return len(pairs)

    def batch_delete(self, positions: Sequence[int]) -> int:
        dead = set(positions)
        self.items = [v for i, v in enumerate(self.items) if i not in dead]
        return len(positions)

    def batch_set(self, pairs: Sequence[Tuple[int, Any]]) -> int:
        """Later pairs win on a repeated position."""
        for pos, value in pairs:
            self.items[pos] = value
        return len(pairs)

    # -- queries ---------------------------------------------------------
    def prefix(self, index: int) -> Any:
        return self.monoid.fold(self.items[: index + 1])

    def range_fold(self, i: int, j: int) -> Any:
        return self.monoid.fold(self.items[i : j + 1])

    def total(self) -> Any:
        return self.monoid.fold(self.items)


def apply_phase(target: Any, verb: str, payload: Sequence[Any]) -> Any:
    """Apply one serve phase — ``"insert"`` ``(pos, value)`` pairs,
    ``"delete"`` positions or ``"set"`` ``(pos, value)`` pairs — through
    ``target``'s positional batch verbs (a :class:`SequentialList` or a
    ``ResilientListSession``)."""
    if verb == "insert":
        return target.batch_insert(list(payload))
    if verb == "delete":
        return target.batch_delete(list(payload))
    return target.batch_set(list(payload))
