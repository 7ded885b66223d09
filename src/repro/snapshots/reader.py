"""Pinned-epoch readers over the MVCC snapshot layer (PR 10).

:class:`PinnedReader` answers queries from a pinned version while
batches mutate the live structure.  ``len``, ``value_at``, ``prefix``,
``range_fold`` and ``total`` are O(depth) descents over the pinned
``_n_leaves``/``_summary`` columns (the sequential algorithm of §1.2):
none copies the slab or walks the leaves.

* **Flat backend** (``FlatRBSTS``): pinning is O(1)
  — a :class:`_PinnedFlatSnapshot` joins the transaction stack and
  records copy-on-write pre-images through the journal seam; it copies
  the master-RNG state only if something draws under it.  While the
  pin holds no pre-images, a query walks the live columns from the
  pinned root directly.  Otherwise it reads slot ``i``'s cell from the
  snapshot's flat pre-image list if the slot was written since the
  pin, else from the live column (one ``saved`` probe per slot read).
  Slots born later are unreachable from that root and slots freed or
  reused are in ``saved``, so the overlay stays exact while writers
  opened after the pin mutate, commit or roll back.
* **Reference backend**: no O(1) epoch pin exists, so the reader
  deep-captures a :class:`~repro.snapshots.core.SnapshotState` at pin
  time (O(n)) and runs the same descents over its columns.

Every fold combines the summaries of the canonical cover of ``[i, j]``
(the maximal subtrees inside the range) left to right from the
monoid's identity, exactly as ``monoid.fold`` over that cover would, so
float answers are bitwise stable.

``values()`` and ``state()`` cut the whole image (``materialize`` on
the flat family, cached); once cut, every query answers from it, so a
reader materialized before ``close()`` keeps answering afterwards.

A pinned snapshot is **not** a rollback owner: the ``pinned`` flag
tells :func:`repro.transactions.execute_batch` to open its own nested
transaction instead of flattening into the reader.  Exits must nest:
close the reader only when no writer transaction opened after it is
still open (the stack raises :class:`~repro.errors.SnapshotStateError`
otherwise).  The reader is its own context manager; entry points:
``RBSTS.pinned_reader()`` / ``FlatRBSTS.pinned_reader()`` and
``DynamicTreeContraction.pinned_reader()``; ``repro.serve`` answers
every read from one of these pins.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import InvalidParameterError, PositionError
from ..transactions import not_position
from .core import FLAT_COLUMNS, NIL, FlatSnapshot, SnapshotState, txn_begin, txn_commit

__all__ = ["PinnedReader", "pinned_reader"]

#: Column name -> cell offset within a ``FlatSnapshot`` pre-image: slot
#: ``i``'s cell of that column is ``snap.pre[snap.saved[i] + k]`` (the
#: pre-images share one flat list, no tuple per slot; see
#: :class:`~repro.snapshots.core.FlatSnapshot`).
_SLOT_INDEX: Dict[str, int] = {name: k for k, name in enumerate(FLAT_COLUMNS)}


class _PinnedFlatSnapshot(FlatSnapshot):
    """A flat snapshot that only observes for a reader (``pinned``:
    writer batches under it keep their own rollback bracket)."""

    __slots__ = ()

    pinned = True


class _Overlay:
    """One pinned column while the pin holds pre-images: slot ``i``
    reads its cell from the snapshot's flat pre-image list,
    ``pre[saved[i] + k]``, if it was written since the pin, else the
    live column."""

    __slots__ = ("live", "saved", "pre", "k")

    def __init__(self, live: Sequence[Any], snap: FlatSnapshot, name: str) -> None:
        self.live = live
        self.saved = snap.saved
        self.pre = snap.pre
        self.k = _SLOT_INDEX[name]

    def __getitem__(self, i: int) -> Any:
        off = self.saved.get(i)
        return self.live[i] if off is None else self.pre[off + self.k]


def _check_range(lo: int, hi: int, n: int) -> None:
    note = not_position(lo) or not_position(hi)
    if note or not 0 <= lo <= hi < n:
        raise PositionError(
            f"pinned read range [{lo!r}, {hi!r}]{note} out of range for "
            f"{n} leaves"
        )


def _prefix_fold(
    combine: Callable[[Any, Any], Any],
    acc: Any,
    v: int,
    hi: int,
    left: Any,
    right: Any,
    counts: Any,
    values: Any,
) -> Any:
    """``acc`` combined, left to right, with the canonical cover of
    positions ``[0, hi]`` of subtree ``v``."""
    while hi != counts[v] - 1:
        lc = left[v]
        k = counts[lc]
        if hi < k:
            v = lc
        else:  # all of the left child, then a prefix of the right one
            acc = combine(acc, values[lc])
            hi -= k
            v = right[v]
    return combine(acc, values[v])


def _suffix_cover(v: int, lo: int, left: Any, right: Any, counts: Any) -> List[int]:
    """The canonical cover of positions ``[lo, end]`` of subtree ``v``,
    right to left."""
    out: List[int] = []
    while lo:
        lc = left[v]
        k = counts[lc]
        if lo >= k:
            lo -= k
            v = right[v]
        else:  # a suffix of the left child, then all of the right one
            out.append(right[v])
            v = lc
    out.append(v)
    return out


class PinnedReader:
    """Query surface over one pinned capture-epoch version.

    Every answer comes from the pinned version and is immune to writer
    mutations (and writer rollbacks) while the pin is open.  Folds
    combine the tree's maintained leaf summaries, so they need the
    tree's own summary monoid (``tree.summarizer.monoid``); structural
    reads need no monoid.  ``with reader:`` closes the pin on exit.
    """

    def __init__(self, tree: Any, *, monoid: Any = None) -> None:
        if monoid is not None and monoid is not getattr(tree.summarizer, "monoid", None):
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

    def __enter__(self) -> "PinnedReader":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

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

    def _columns(self, value: str) -> Tuple[int, Any, Any, Any, Any]:
        """The pinned root slot and the ``_left``, ``_right``,
        ``_n_leaves`` and ``value`` columns of the pinned version."""
        snap = self._snap
        if self._state is None and snap is not None:
            tree = self._tree
            if not snap.saved:  # nothing written since the pin: live is pinned
                return (
                    snap.root_index,
                    tree._left,
                    tree._right,
                    tree._n_leaves,
                    getattr(tree, value),
                )
            left, right, counts, values = (
                _Overlay(getattr(tree, name), snap, name)
                for name in ("_left", "_right", "_n_leaves", value)
            )
            return snap.root_index, left, right, counts, values
        state = self.state()
        cols = state.columns
        return (
            state.root_index,
            cols["_left"],
            cols["_right"],
            cols["_n_leaves"],
            cols[value],
        )

    def _fold_monoid(self) -> Any:
        if self._monoid is None:
            raise InvalidParameterError(
                "fold reads need a monoid: construct the reader with "
                "pinned_reader(monoid=...)"
            )
        return self._monoid

    # -- structural reads ----------------------------------------------
    def __len__(self) -> int:
        root, _, _, counts, _ = self._columns("_n_leaves")
        return counts[root]

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
        """Leaf item at ``index``: an order-statistic descent on
        ``_n_leaves``."""
        v, left, right, counts, items = self._columns("_item")
        _check_range(index, index, counts[v])
        while counts[v] != 1:
            lc = left[v]
            k = counts[lc]
            if index < k:
                v = lc
            else:
                index -= k
                v = right[v]
        return items[v]

    # -- fold reads (monoid required) ----------------------------------
    def range_fold(self, i: int, j: int) -> Any:
        """Fold of ``values()[i..j]`` (inclusive), pinned-epoch: the
        summaries of the canonical subtrees, never leaf by leaf."""
        monoid = self._fold_monoid()
        combine = monoid.combine
        v, left, right, counts, summary = self._columns("_summary")
        _check_range(i, j, counts[v])
        lo, hi = i, j
        while lo:  # descend while the range lies inside one child
            lc = left[v]
            k = counts[lc]
            if hi < k:
                v = lc
            elif lo >= k:
                lo -= k
                hi -= k
                v = right[v]
            else:  # straddles v's split: a suffix of lc, a prefix of the right
                acc = monoid.identity
                for u in reversed(_suffix_cover(lc, lo, left, right, counts)):
                    acc = combine(acc, summary[u])
                return _prefix_fold(
                    combine, acc, right[v], hi - k, left, right, counts, summary
                )
        return _prefix_fold(
            combine, monoid.identity, v, hi, left, right, counts, summary
        )

    def prefix(self, index: int) -> Any:
        """Fold of ``values()[0..index]`` (inclusive), pinned-epoch."""
        return self.range_fold(0, index)

    def total(self) -> Any:
        """Fold of every value, pinned-epoch (the cover is the root)."""
        monoid = self._fold_monoid()
        root, _, _, _, summary = self._columns("_summary")
        return monoid.combine(monoid.identity, summary[root])


def pinned_reader(tree: Any, *, monoid: Any = None) -> PinnedReader:
    """Pin ``tree``'s current version and return a :class:`PinnedReader`
    answering from it while the caller keeps mutating the live tree.
    Use it as a context manager: the pin is released on exit (writer
    mutations are kept)."""
    return PinnedReader(tree, monoid=monoid)
