"""Incremental list prefix (§3, Theorem 3.1).

Maintains a sequence of monoid values in an RBSTS whose nodes carry the
exactly-maintained subtree fold ``SUM_v``.  A batch of prefix queries at
leaves ``U`` is answered by:

1. activating the parse tree ``PT(U)`` (Theorem 2.1);
2. flattening the *extended* parse tree ``P̂T(U)`` — each missing child
   of a ``PT(U)`` node becomes one summary leaf carrying ``SUM`` of the
   whole foreign subtree;
3. running an ordinary parallel prefix over the ``O(|U| log n)`` entry
   summaries (span ``O(log |P̂T(U)|)``) and reading off the queried
   positions.

The same machinery answers *range folds* (fold of the values strictly
between two leaves, inclusive), which §5 uses for LCA via Euler tours.

All parallel costs are charged to a :class:`~repro.pram.SpanTracker`;
the Python execution is sequential (DESIGN.md §2).
"""

from __future__ import annotations

import math
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..algebra.monoid import Monoid
from ..errors import RequestError
from ..pram.frames import SpanTracker
from ..splitting.activation import activate, deactivate
from ..splitting.build import Summarizer
from ..splitting.node import BSTNode
from ..splitting.parse_tree import build_extended_parse_tree
from ..splitting.rbsts import RBSTS

__all__ = ["IncrementalListPrefix"]


class IncrementalListPrefix:
    """A dynamic sequence supporting batch prefix-fold queries.

    Parameters
    ----------
    monoid:
        The associative operation folded over prefixes (e.g.
        :func:`~repro.algebra.monoid.sum_monoid` for the paper's sums).
    values:
        Initial sequence (at least one element).
    seed:
        RBSTS randomness seed.
    backend:
        ``"reference"`` (pointer graph) or ``"flat"``
        (:class:`~repro.perf.flat_rbsts.FlatRBSTS` struct-of-arrays
        core); same seed → same shapes and answers on both.

    Leaf *handles* (:class:`~repro.splitting.node.BSTNode`, or
    :class:`~repro.perf.flat_rbsts.FlatLeaf` under the flat backend)
    returned by :meth:`handles`, :meth:`handle_at` and
    :meth:`batch_insert` stay valid across all updates.
    """

    def __init__(
        self,
        monoid: Monoid,
        values: Iterable[Any],
        *,
        seed: int = 0,
        backend: str = "reference",
    ):
        self.monoid = monoid
        self.tree = RBSTS(
            values,
            seed=seed,
            summarizer=Summarizer(monoid, lambda item: item),
            backend=backend,
        )
        self._flat = backend == "flat"

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return self.tree.n_leaves

    def handles(self) -> List[BSTNode]:
        return self.tree.leaves()

    def handle_at(self, index: int) -> BSTNode:
        return self.tree.leaf_at(index)

    def index_of(self, handle: BSTNode) -> int:
        return self.tree.index_of(handle)

    def values(self) -> List[Any]:
        return [leaf.item for leaf in self.tree.leaves()]

    def check_invariants(self) -> None:
        """Audit the underlying RBSTS (structure, bookkeeping, shortcut
        lists, exactly-maintained summaries).  The fuzzing harness calls
        this after every operation."""
        self.tree.check_invariants()

    def rng_state(self):
        """Opaque master-RNG snapshot (RNG-consumption parity audits)."""
        return self.tree.rng_state()

    def total(self) -> Any:
        """Fold of the entire sequence — read straight off the root
        (exactly maintained, §1.1)."""
        if self._flat:
            return self.tree._summary[self.tree.root_index]
        return self.tree.root.summary

    # -- queries ------------------------------------------------------------
    def prefix(self, handle: BSTNode) -> Any:
        """Inclusive prefix fold at one leaf; O(depth) sequential (the
        'known sequential algorithm' of §1.2)."""
        if self._flat:
            from ..perf.flat_prefix import flat_prefix_fold

            return flat_prefix_fold(self.tree, self.monoid, handle)
        acc_left = self.monoid.identity
        node = handle
        while node.parent is not None:
            if node is node.parent.right:
                acc_left = self.monoid.combine(
                    node.parent.left.summary, acc_left  # type: ignore[union-attr]
                )
            node = node.parent
        # acc_left is the fold of everything strictly left of `handle`;
        # note the combine order above keeps left-to-right association.
        return self.monoid.combine(acc_left, handle.summary)

    def batch_prefix(
        self,
        handles: Sequence[BSTNode],
        tracker: Optional[SpanTracker] = None,
    ) -> List[Any]:
        """Inclusive prefix folds at a set of leaves (Theorem 3.1).

        Returns results in request order.  Expected span
        ``O(log(|U| log n))``.
        """
        if not handles:
            return []
        tracker = tracker if tracker is not None else SpanTracker()
        result = activate(self.tree, handles, tracker)
        try:
            pat = self._parse_tree(result, handles)
            sums = pat.summary_values()
            # Parallel prefix over the P̂T(U) leaf sequence: charged at
            # the textbook span O(log k), work O(k); computed by one
            # sequential running fold, on both backends.
            k = len(sums)
            tracker.charge(work=2 * k, span=max(1, 2 * math.ceil(math.log2(k + 1))))
            inclusive: dict[int, Any] = {}
            running = self.monoid.identity
            for entry, s in zip(pat.entries, sums):
                running = self.monoid.combine(running, s)
                inclusive[id(entry.node)] = running
            return [inclusive[id(h)] for h in handles]
        finally:
            deactivate(result)

    def range_fold(
        self,
        first: BSTNode,
        last: BSTNode,
        tracker: Optional[SpanTracker] = None,
    ) -> Any:
        """Fold of the values from ``first`` to ``last`` inclusive.

        Works for *any* monoid (no inverses needed): the fold is
        assembled from the ``P̂T({first, last})`` entries lying inside
        the range.  Span ``O(log log n)`` expected (``|U| = 2``).
        """
        i, j = self.tree.index_of(first), self.tree.index_of(last)
        if i > j:
            raise RequestError("range_fold endpoints out of order")
        handles = [first] if first is last else [first, last]
        tracker = tracker if tracker is not None else SpanTracker()
        result = activate(self.tree, handles, tracker)
        try:
            pat = self._parse_tree(result, handles)
            k = len(pat.entries)
            tracker.charge(work=2 * k, span=max(1, 2 * math.ceil(math.log2(k + 1))))
            acc = self.monoid.identity
            pos = 0
            for entry in pat.entries:
                width = entry.node.n_leaves
                # Entry covers sequence positions [pos, pos + width).
                if pos >= i and pos + width - 1 <= j:
                    acc = self.monoid.combine(acc, entry.node.summary)
                pos += width
            return acc
        finally:
            deactivate(result)

    # -- internals --------------------------------------------------------
    def _parse_tree(self, result, handles):
        """Flatten ``P̂T(U)`` with the construction matching the active
        backend; the produced entry sequence is identical either way."""
        if self._flat:
            from ..perf.flat_prefix import flat_extended_parse_tree

            return flat_extended_parse_tree(self.tree, result.node_set(), handles)
        return build_extended_parse_tree(self.tree.root, result.node_set(), handles)

    # -- updates ---------------------------------------------------------
    def insert(
        self,
        index: int,
        value: Any,
        tracker: Optional[SpanTracker] = None,
    ) -> BSTNode:
        """Insert one value at ``index`` (sequential Theorem 2.2 walk);
        returns the new leaf handle."""
        return self.tree.insert(index, value, tracker)

    def delete(
        self,
        handle: BSTNode,
        tracker: Optional[SpanTracker] = None,
    ) -> Any:
        """Delete one leaf by handle (sequential Theorem 2.3 walk);
        returns its value."""
        return self.tree.delete(handle, tracker)

    def batch_set(
        self,
        updates: Sequence[Tuple[BSTNode, Any]],
        tracker: Optional[SpanTracker] = None,
    ) -> None:
        """Concurrently replace the values at a set of leaves
        (transactionally — see :meth:`RBSTS.batch_update_items` for the
        admission/rollback contract)."""
        self.tree.batch_update_items(updates, tracker)

    def batch_insert(
        self,
        requests: Sequence[Tuple[int, Any]],
        tracker: Optional[SpanTracker] = None,
    ) -> Any:
        """Concurrently insert ``(index, value)`` pairs (Theorem 2.2);
        indices refer to the pre-batch sequence.  Transactional: an
        invalid batch is rejected atomically (zero mutation / RNG use);
        returns the new leaf handles in request order."""
        return self.tree.batch_insert(requests, tracker)

    def batch_delete(
        self,
        handles: Sequence[BSTNode],
        tracker: Optional[SpanTracker] = None,
    ) -> None:
        """Concurrently delete a set of leaves (Theorem 2.3);
        transactional with the same admission contract as
        :meth:`batch_insert`."""
        self.tree.batch_delete(handles, tracker)
