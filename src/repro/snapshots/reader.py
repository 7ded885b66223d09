"""Pinned-epoch readers over the MVCC snapshot layer (PR 10).

:class:`PinnedReader` answers queries from a pinned version while
batches mutate the live structure.  ``len``, ``value_at``, ``prefix``,
``range_fold`` and ``total`` are O(depth) descents over the pinned
``_n_leaves``/``_summary`` columns (the sequential algorithm of §1.2):
none copies the slab or walks the leaves.

* **Flat family** (``FlatRBSTS`` / ``ParallelRBSTS``): pinning is O(1)
  — a :class:`_PinnedFlatSnapshot` joins the transaction stack and
  records copy-on-write pre-images through the journal seam.  From
  the pinned root, a query reads slot ``i`` from ``saved[i]`` if it
  was written since the pin, else from the live column.  Slots born
  later are unreachable from that root and slots freed or reused are
  in ``saved``, so the overlay stays exact while writers opened after
  the pin mutate, commit or roll back.
* **Reference backend**: no O(1) epoch pin exists, so the reader
  deep-captures a :class:`~repro.snapshots.core.SnapshotState` at pin
  time (O(n)) and runs the same descents over its columns.

``values()`` and ``state()`` cut the whole image (``materialize`` on
the flat family, cached); once cut, every query answers from it, so a
reader materialized before ``close()`` keeps answering afterwards.

A pinned snapshot is **not** a rollback owner: the ``pinned`` flag
tells :func:`repro.transactions.execute_batch` to open its own nested
transaction instead of flattening into the reader.  Exits must nest:
close the reader only when no writer transaction opened after it is
still open (the stack raises :class:`~repro.errors.SnapshotStateError`
otherwise).  Entry points: ``RBSTS.pinned_reader()`` /
``FlatRBSTS.pinned_reader()`` (the parallel backend inherits the flat
one) and ``DynamicTreeContraction.pinned_reader()``; ``repro.serve``
answers every read from one of these pins.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Tuple

from ..errors import InvalidParameterError, PositionError
from .core import FLAT_COLUMNS, NIL, FlatSnapshot, SnapshotState, txn_begin, txn_commit

__all__ = ["PinnedReader", "pinned_reader"]


class _PinnedFlatSnapshot(FlatSnapshot):
    """A flat snapshot that only observes for a reader (``pinned``:
    writer batches under it keep their own rollback bracket)."""

    __slots__ = ()

    pinned = True


class PinnedReader:
    """Query surface over one pinned capture-epoch version.

    Every answer comes from the pinned version and is immune to writer
    mutations (and writer rollbacks) while the pin is open.  Folds
    combine the tree's maintained leaf summaries, so they need the
    tree's own summary monoid (``tree.summarizer.monoid``); structural
    reads need no monoid.
    """

    def __init__(self, tree: Any, *, monoid: Any = None) -> None:
        own = getattr(tree.summarizer, "monoid", None)  # None: no summaries
        if monoid is not None and monoid is not own:
            raise InvalidParameterError(
                "fold reads combine the tree's maintained summaries: "
                "monoid must be tree.summarizer.monoid"
            )
        self._tree = tree
        self._monoid = monoid
        self._snap: Optional[_PinnedFlatSnapshot] = None
        self._state: Optional[SnapshotState] = None
        if hasattr(tree, "root_index"):
            self._snap = _PinnedFlatSnapshot(tree)
            txn_begin(tree, self._snap)
        else:
            # Pointer graph: no O(1) epoch pin exists; deep-capture now.
            self._state = SnapshotState.capture(tree)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release the pin, keeping the writer's mutations.  Idempotent."""
        if self._snap is not None:
            txn_commit(self._tree, self._snap)
            self._snap = None

    # -- the pinned version ---------------------------------------------
    def state(self) -> SnapshotState:
        """The materialized capture-epoch image (cut on first call on
        the flat family and cached — the pinned version is immutable)."""
        if self._state is None and self._snap is not None:
            self._state = self._snap.materialize(self._tree)
        if self._state is None:
            raise InvalidParameterError(
                "pinned reader was closed before its image was "
                "materialized; query it inside the pinned_reader() block"
            )
        return self._state

    def _columns(self, *names: str) -> Tuple[int, List[Callable[[int], Any]]]:
        """The pinned root slot and one per-slot getter per column."""
        snap = self._snap
        if self._state is not None or snap is None:
            state = self.state()
            return state.root_index, [state.columns[n].__getitem__ for n in names]
        saved = snap.saved

        def overlay(k: int, live: Any) -> Callable[[int], Any]:
            return lambda i: saved[i][k] if i in saved else live[i]

        return snap.root_index, [
            overlay(FLAT_COLUMNS.index(n), getattr(self._tree, n)) for n in names
        ]

    # -- structural reads ----------------------------------------------
    def __len__(self) -> int:
        root, (counts,) = self._columns("_n_leaves")
        return counts(root)

    def values(self) -> List[Any]:
        """Leaf items in sequence order, at the pinned epoch (O(n))."""
        state = self.state()
        left, right, items = (state.columns[n] for n in ("_left", "_right", "_item"))
        out: List[Any] = []
        stack = [state.root_index]
        while stack:
            v = stack.pop()
            if left[v] == NIL:
                out.append(items[v])
            else:
                stack += (right[v], left[v])
        return out

    def value_at(self, index: int) -> Any:
        """Leaf item at ``index``: the one-leaf cover, an
        order-statistic descent on ``_n_leaves``."""
        return next(self._cover(index, index, "_item"))

    def _cover(self, lo: int, hi: int, column: str) -> Iterator[Any]:
        """``column`` at the O(depth) canonical subtrees tiling
        positions ``[lo, hi]`` of the pinned version, left to right."""
        root, (left, right, counts, get) = self._columns(
            "_left", "_right", "_n_leaves", column
        )
        if not 0 <= lo <= hi < counts(root):
            raise PositionError(
                f"pinned read range [{lo}, {hi}] out of range for "
                f"{counts(root)} leaves"
            )
        stack = [(root, lo, hi)]
        while stack:  # the left part pops first
            v, lo, hi = stack.pop()
            if lo == 0 and hi == counts(v) - 1:
                yield get(v)
                continue
            k = counts(left(v))
            if hi >= k:
                stack.append((right(v), max(lo - k, 0), hi - k))
            if lo < k:
                stack.append((left(v), lo, min(hi, k - 1)))

    # -- fold reads (monoid required) ----------------------------------
    def range_fold(self, i: int, j: int) -> Any:
        """Fold of ``values()[i..j]`` (inclusive), pinned-epoch: the
        summaries of the canonical subtrees, never leaf by leaf."""
        if self._monoid is None:
            raise InvalidParameterError(
                "fold reads need a monoid: construct the reader with "
                "pinned_reader(monoid=...)"
            )
        return self._monoid.fold(self._cover(i, j, "_summary"))

    def prefix(self, index: int) -> Any:
        """Fold of ``values()[0..index]`` (inclusive), pinned-epoch."""
        return self.range_fold(0, index)

    def total(self) -> Any:
        """Fold of every value, pinned-epoch."""
        return self.range_fold(0, len(self) - 1)


@contextmanager
def pinned_reader(
    tree: Any, *, monoid: Any = None
) -> Iterator[PinnedReader]:
    """Pin ``tree``'s current version and yield a :class:`PinnedReader`
    answering from it while the caller keeps mutating the live tree.
    The pin is released on exit (writer mutations are kept)."""
    reader = PinnedReader(tree, monoid=monoid)
    try:
        yield reader
    finally:
        reader.close()
