"""Dynamic parallel tree contraction (§4, Theorems 4.1/4.2).

:class:`DynamicTreeContraction` maintains, for a dynamic binary
expression tree ``T``:

* an RBSTS over ``T``'s leaves in left-to-right order (the contraction
  parse tree ``PT``), incrementally updated per Theorems 2.2/2.3;
* the rake tree ``RT`` recording the label history of the RBSTS-guided
  contraction (see rake_tree.py).

The self-healing loop (§1.4) per batch:

1. *Wound location / process activation* — the RBSTS wound ``PT(U)`` is
   located (activation, Theorem 2.1; charged to the tracker).
2. *Wound healing* — structure: the RBSTS absorbs leaf insertions and
   deletions with randomized rebuilds; the rake tree is re-derived with
   *memoised replay* — every event outside the wound reuses its prior
   ``RT`` nodes, and ``trace.fresh_nodes`` measures the wound that
   Theorem 4.1 bounds by ``O(|U| log n)`` (experiment E6).
3. *Answering the attack* — wounded labels are re-evaluated
   (evaluator.py); the root value is then exactly maintained and
   arbitrary node values are answered from the removal records.

Label-only updates (leaf values / node ops) skip the replay entirely
and heal ``RT(W)`` incrementally — the pure Theorem 4.2 path.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    RequestRejection,
    TreeStructureError,
    UnknownNodeError,
    batch_validation_error,
)
from ..pram.frames import SpanTracker
from ..splitting.node import BSTNode
from ..splitting.rbsts import RBSTS
from ..trees.expr import ExprTree
from ..trees.nodes import Op
from .labels import apply_label
from .rake_tree import build_trace
from .schedule import build_flat_schedule, build_schedule

__all__ = ["DynamicTreeContraction"]


class DynamicTreeContraction:
    """Incrementally maintained tree contraction over an ExprTree.

    Parameters
    ----------
    tree:
        The expression tree to maintain.  The structure takes ownership
        of updates: mutate the tree *only* through this class's batch
        methods, otherwise the contraction state goes stale.
    seed:
        RBSTS randomness seed.
    backend:
        RBSTS backend for the contraction parse tree: ``"reference"``
        (pointer graph) or ``"flat"``
        (:class:`~repro.perf.flat_rbsts.FlatRBSTS`, with the rake tree
        in :class:`~repro.perf.flat_contraction.FlatContraction`).  Same
        seed gives the same PT shapes, hence the same rake schedule and
        values.
    """

    def __init__(
        self,
        tree: ExprTree,
        *,
        seed: int = 0,
        backend: str = "reference",
    ) -> None:
        self.tree = tree
        self.backend = backend
        self._flat = backend == "flat"
        leaf_ids = [leaf.nid for leaf in tree.leaves_in_order()]
        self.pt = RBSTS(leaf_ids, seed=seed, backend=backend)
        # T-leaf id -> RBSTS leaf handle (kept in sync across updates).
        self.handle: Dict[int, BSTNode] = {
            h.item: h for h in self.pt.leaves()
        }
        # Either backend satisfies the same trace protocol (value/size/
        # set_leaf_label/set_rake_op/heal/death_record/removal_kind),
        # pinned by lint rule R003 and the differential fuzzer.
        self.trace: Any
        if self._flat:
            from ..perf.flat_contraction import FlatContraction

            # The flat schedule persists: each structural batch patches
            # it on the PT slots the batch wrote.
            self._flat_schedule = build_flat_schedule(self.pt)
            self.trace = FlatContraction(tree.ring).replay(
                tree, self._flat_schedule
            )
        else:
            self.trace = build_trace(tree, build_schedule(self.pt.root))
        self.last_stats: Dict[str, Any] = {
            "fresh_rt_nodes": self.trace.fresh_nodes,
            "rounds": self.trace.rounds,
        }

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def value(self) -> Any:
        """The whole expression's value — read off the RT root (exactly
        maintained, §1.1)."""
        return self.trace.value

    def rounds(self) -> int:
        """Contraction rounds of the current schedule (= RBSTS depth;
        expected ``O(log n)``, experiment E11)."""
        return self.trace.rounds

    def rng_state(self):
        """Opaque snapshot of the contraction parse tree's master RNG
        (the fuzzer pins reference/flat RNG-consumption parity)."""
        return self.pt.rng_state()

    def pinned_reader(self, *, monoid: Any = None):
        """Context manager yielding a
        :class:`~repro.snapshots.reader.PinnedReader` pinned to the
        contraction parse tree's current epoch: ``values()`` through it
        is the leaf-id sequence of PT at pin time, immune to later
        ``batch_grow``/``batch_prune`` churn (flat family pins in O(1)
        via the transaction stack; the reference backend deep-captures
        at pin time).  The parse tree keeps no summaries, so only the
        structural reads apply."""
        return self.pt.pinned_reader(monoid=monoid)

    def query_values(
        self,
        node_ids: Sequence[int],
        tracker: Optional[SpanTracker] = None,
    ) -> List[Any]:
        """Recompute subtree values at specified nodes (§4.1 request 4).

        Each value is assembled by composing the affine labels along the
        node's survivor chain in the removal records; batch span is
        charged as ``O(log(|U| log n))`` (activation + parallel affine
        composition per Theorem 4.2).

        The whole batch is admitted up front: unknown node ids reject it
        atomically (a :class:`~repro.errors.BatchHandleError`, catchable
        as ``UnknownNodeError``).
        """
        tracker = tracker if tracker is not None else SpanTracker()
        node_ids = self._admit(
            list(node_ids), self._validate_query, "query_values"
        )
        cache: Dict[int, Any] = {}
        ring = self.tree.ring
        max_chain = 0

        def value_of(root_query: int) -> Any:
            # Iterative resolution over the position-death records: a
            # 'sibling' death needs the values of the child positions at
            # event time, which die at strictly later events, so the
            # dependency order is well-founded.
            stack: List[int] = [root_query]
            while stack:
                pid = stack[-1]
                if pid in cache:
                    stack.pop()
                    continue
                rec = self.trace.death_record(pid)
                if rec is None:
                    if pid != self.trace.final_pos:
                        raise UnknownNodeError(
                            f"node {pid} is not part of the contraction"
                        )
                    cache[pid] = self.trace.value
                    stack.pop()
                    continue
                if rec[0] == "raked":
                    # Leaf occupant: its label is a constant (A = 0).
                    cache[pid] = rec[1]
                    stack.pop()
                    continue
                _, label, w_id, kids = rec
                if kids is None:
                    cache[pid] = label[1]
                    stack.pop()
                    continue
                k0, k1 = kids
                if k0 in cache and k1 in cache:
                    op = self.tree.node(w_id).op
                    if op is None:
                        raise TreeStructureError(
                            f"node {w_id} lost its operation"
                        )
                    val = op.apply(ring, cache[k0], cache[k1])
                    cache[pid] = apply_label(ring, label, val)
                    stack.pop()
                else:
                    if k0 not in cache:
                        stack.append(k0)
                    if k1 not in cache:
                        stack.append(k1)
            return cache[root_query]

        out: List[Any] = []
        for nid in node_ids:
            if nid not in self.tree:  # pragma: no cover - pre-admitted
                raise UnknownNodeError(f"no node {nid} in the tree")
            node = self.tree.node(nid)
            if node.is_leaf:
                out.append(node.value)
                continue
            before = len(cache)
            out.append(value_of(nid))
            max_chain = max(max_chain, len(cache) - before)
        self._charge_wound(tracker, len(node_ids), extra=max_chain)
        return out

    # ------------------------------------------------------------------
    # label-only updates (pure Theorem 4.2 healing)
    # ------------------------------------------------------------------
    def batch_set_leaf_values(
        self,
        updates: Sequence[Tuple[int, Any]],
        tracker: Optional[SpanTracker] = None,
    ) -> None:
        """Concurrently modify leaf labels (§4.1 request 3).

        Whole-batch admission: unknown nodes / non-leaf targets reject
        the batch atomically before any label is touched.
        """
        tracker = tracker if tracker is not None else SpanTracker()
        updates = self._admit(
            list(updates), self._validate_set_values, "batch_set_leaf_values"
        )
        if updates:
            tokens = []
            for nid, value in updates:
                self.tree.set_leaf_value(nid, value)
                tokens.append(self.trace.set_leaf_label(nid, value))
            wound = self.trace.heal(tokens, tracker)
            self._charge_wound(tracker, len(updates))
            self.last_stats = {"wound": wound, "fresh_rt_nodes": 0}

    def batch_set_ops(
        self,
        updates: Sequence[Tuple[int, Op]],
        tracker: Optional[SpanTracker] = None,
    ) -> None:
        """Concurrently modify internal-node operations (§4.1 request 3).

        The op of node ``p`` is baked into the single rake event that
        raked into ``p``; that RT node is the dirty point.  Whole-batch
        admission up front: unknown nodes and targets without a rake
        event (leaves) reject the batch atomically before any label or
        tree op is touched (the pre-admission code mutated ``set_op``
        mid-loop before discovering a bad target — a torn state).
        """
        tracker = tracker if tracker is not None else SpanTracker()
        updates = self._admit(
            list(updates), self._validate_set_ops, "batch_set_ops"
        )
        if updates:
            tokens = []
            for nid, op in updates:
                self.tree.set_op(nid, op)
                tokens.append(self.trace.set_rake_op(nid, op))
            wound = self.trace.heal(tokens, tracker)
            self._charge_wound(tracker, len(updates))
            self.last_stats = {"wound": wound, "fresh_rt_nodes": 0}

    # ------------------------------------------------------------------
    # structural updates (Theorem 4.1 healing)
    # ------------------------------------------------------------------
    def batch_grow(
        self,
        requests: Sequence[Tuple[int, Op, Any, Any]],
        tracker: Optional[SpanTracker] = None,
    ) -> List[Tuple[int, int]]:
        """Concurrently add two children below current leaves
        (§4.1 request 1).  ``requests`` entries are
        ``(leaf_id, op, left_value, right_value)``; returns the new
        ``(left_id, right_id)`` pairs in request order.

        Whole-batch admission: duplicate or unknown leaf targets reject
        the batch atomically before the tree, the handle map, or the
        RBSTS is touched.
        """
        tracker = tracker if tracker is not None else SpanTracker()
        requests = self._admit(
            list(requests), self._validate_grow, "batch_grow"
        )
        created: List[Tuple[int, int]] = []
        if requests:
            # Pre-batch positions for the RBSTS inserts.
            positions = {
                leaf_id: self.pt.index_of(self._handle(leaf_id))
                for leaf_id, _, _, _ in requests
            }
            inserts: List[Tuple[int, Any]] = []
            for leaf_id, op, lv, rv in requests:
                lid, rid = self.tree.grow_leaf(leaf_id, op, lv, rv)
                created.append((lid, rid))
                # The grown leaf's RBSTS handle becomes the new left
                # child; the right child is inserted just after it.
                h = self.handle.pop(leaf_id)
                h.item = lid
                self.handle[lid] = h
                inserts.append((positions[leaf_id] + 1, rid))
            new_handles, written = self._pt_batch(
                self.pt.batch_insert, inserts, tracker
            )
            for (_, rid), h in zip(inserts, new_handles):
                self.handle[rid] = h
            changed = [
                (leaf_id, lid, rid)
                for (leaf_id, _, _, _), (lid, rid) in zip(requests, created)
            ]
            self._recontract(tracker, len(requests), changed, written)
        return created

    def batch_prune(
        self,
        requests: Sequence[Tuple[int, Any]],
        tracker: Optional[SpanTracker] = None,
    ) -> None:
        """Concurrently delete two leaf children of nodes
        (§4.1 request 2).  ``requests`` entries are
        ``(node_id, new_leaf_value)`` — the node becomes a leaf.

        Whole-batch admission runs *before* any mutation: duplicate
        targets, unknown nodes, nodes that are already leaves, and nodes
        whose children are not both leaves reject the batch atomically
        (the pre-admission code discovered bad targets mid-loop, after
        earlier requests had already mutated the tree — a torn state).
        """
        tracker = tracker if tracker is not None else SpanTracker()
        requests = self._admit(
            list(requests), self._validate_prune, "batch_prune"
        )
        if requests:
            doomed_handles: List[BSTNode] = []
            changed: List[Tuple[int, int, int]] = []
            for node_id, new_value in requests:
                node = self.tree.node(node_id)
                left, right = node.left, node.right
                assert left is not None and right is not None
                lid, rid = left.nid, right.nid
                self.tree.prune_children(node_id, new_value)
                # Left child's handle becomes the new leaf's handle;
                # right child's handle is deleted.
                h = self.handle.pop(lid)
                h.item = node_id
                self.handle[node_id] = h
                doomed_handles.append(self.handle.pop(rid))
                changed.append((node_id, lid, rid))
            _, written = self._pt_batch(
                self.pt.batch_delete, doomed_handles, tracker
            )
            self._recontract(tracker, len(requests), changed, written)

    # ------------------------------------------------------------------
    # mixed batches (§1.3: "various parallel modification requests and
    # queries ... with respect to a set of nodes U")
    # ------------------------------------------------------------------
    def apply_requests(
        self,
        requests: Sequence[Tuple],
        tracker: Optional[SpanTracker] = None,
    ) -> List[Any]:
        """Process one heterogeneous concurrent batch.

        Request tuples (all node references are to the *pre-batch*
        tree):

        * ``("grow", leaf_id, op, left_value, right_value)``
        * ``("prune", node_id, new_leaf_value)``
        * ``("set_value", leaf_id, value)``
        * ``("set_op", node_id, op)``
        * ``("query", node_id)``

        Returns one entry per request in order: ``(left_id, right_id)``
        for grows, the queried value for queries, ``None`` otherwise.
        Structural requests are healed first (one wound), then label
        requests (one heal), then queries — matching the paper's
        wound-locate / heal / answer phases (§1.4).

        The *whole* heterogeneous batch is admitted up front, including
        cross-request conflicts that are only visible at the batch
        level: a prune whose child is grown by the same batch (both
        sides rejected ``conflicting-requests``), ``set_value`` or
        ``query`` on a node a prune removes
        (``target-removed-by-batch``), ``set_value`` on a leaf grown
        internal and ``set_op`` on a node pruned back to a leaf
        (``conflicting-requests``).  Any rejection rejects the batch
        atomically before any sub-batch runs.
        """
        tracker = tracker if tracker is not None else SpanTracker()
        requests = self._admit(
            list(requests), self._validate_requests, "apply_requests"
        )
        grows, prunes, values, ops, queries = [], [], [], [], []
        for i, req in enumerate(requests):
            kind = req[0]
            if kind == "grow":
                grows.append((i, req[1:]))
            elif kind == "prune":
                prunes.append((i, req[1:]))
            elif kind == "set_value":
                values.append((i, req[1:]))
            elif kind == "set_op":
                ops.append((i, req[1:]))
            else:  # "query" (kinds are pre-admitted)
                queries.append((i, req[1]))
        out: List[Any] = [None] * len(requests)
        if grows:
            created = self.batch_grow([g for _, g in grows], tracker)
            for (i, _), pair in zip(grows, created):
                out[i] = pair
        if prunes:
            self.batch_prune([p for _, p in prunes], tracker)
        if values:
            self.batch_set_leaf_values([v for _, v in values], tracker)
        if ops:
            self.batch_set_ops([o for _, o in ops], tracker)
        if queries:
            answers = self.query_values([nid for _, nid in queries], tracker)
            for (i, _), ans in zip(queries, answers):
                out[i] = ans
        return out

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _handle(self, leaf_id: int) -> BSTNode:
        try:
            return self.handle[leaf_id]
        except KeyError:
            raise UnknownNodeError(
                f"node {leaf_id} is not a current leaf"
            ) from None

    # -- batch admission (PR 3) ----------------------------------------
    def _admit(
        self,
        requests: List[Any],
        validate: Callable[[List[Any]], List[RequestRejection]],
        verb: str,
    ) -> List[Any]:
        """Admission gate shared by every contraction batch entry point:
        any rejection aborts the whole batch (no tree, RBSTS or RT state
        has been touched yet — admission is purely read-only); otherwise
        the requests are returned unchanged."""
        rejections = validate(requests)
        if rejections:
            raise batch_validation_error(rejections, len(requests), verb=verb)
        return requests

    def _validate_grow(
        self, requests: Sequence[Tuple[int, Op, Any, Any]]
    ) -> List[RequestRejection]:
        rejections: List[RequestRejection] = []
        seen: Dict[int, int] = {}
        for i, req in enumerate(requests):
            leaf_id = req[0]
            if leaf_id in seen:
                rejections.append(
                    RequestRejection(
                        i,
                        "duplicate-handle",
                        f"leaf {leaf_id} already grown by request "
                        f"{seen[leaf_id]}",
                    )
                )
                continue
            seen[leaf_id] = i
            if leaf_id not in self.handle:
                rejections.append(
                    RequestRejection(
                        i,
                        "unknown-handle",
                        f"node {leaf_id} is not a current leaf",
                    )
                )
        return rejections

    def _validate_prune(
        self, requests: Sequence[Tuple[int, Any]]
    ) -> List[RequestRejection]:
        rejections: List[RequestRejection] = []
        seen: Dict[int, int] = {}
        for i, req in enumerate(requests):
            node_id = req[0]
            if node_id in seen:
                rejections.append(
                    RequestRejection(
                        i,
                        "duplicate-handle",
                        f"node {node_id} already pruned by request "
                        f"{seen[node_id]}",
                    )
                )
                continue
            seen[node_id] = i
            if node_id not in self.tree:
                rejections.append(
                    RequestRejection(
                        i, "unknown-node", f"no node {node_id} in the tree"
                    )
                )
                continue
            node = self.tree.node(node_id)
            if node.is_leaf:
                rejections.append(
                    RequestRejection(
                        i,
                        "not-prunable",
                        f"node {node_id} is already a leaf",
                    )
                )
                continue
            assert node.left is not None and node.right is not None
            if not (node.left.is_leaf and node.right.is_leaf):
                rejections.append(
                    RequestRejection(
                        i,
                        "not-prunable",
                        f"children of node {node_id} are not both leaves",
                    )
                )
        return rejections

    def _validate_set_values(
        self, updates: Sequence[Tuple[int, Any]]
    ) -> List[RequestRejection]:
        rejections: List[RequestRejection] = []
        for i, req in enumerate(updates):
            nid = req[0]
            if nid not in self.tree:
                rejections.append(
                    RequestRejection(
                        i, "unknown-node", f"no node {nid} in the tree"
                    )
                )
                continue
            if not self.tree.node(nid).is_leaf:
                rejections.append(
                    RequestRejection(
                        i, "not-a-leaf", f"node {nid} is internal"
                    )
                )
        return rejections

    def _validate_set_ops(
        self, updates: Sequence[Tuple[int, Op]]
    ) -> List[RequestRejection]:
        rejections: List[RequestRejection] = []
        for i, req in enumerate(updates):
            nid = req[0]
            if nid not in self.tree:
                rejections.append(
                    RequestRejection(
                        i, "unknown-node", f"no node {nid} in the tree"
                    )
                )
                continue
            if self.trace.removal_kind(nid) != "compressed":
                rejections.append(
                    RequestRejection(
                        i,
                        "no-rake-event",
                        f"node {nid} has no rake event (is it a leaf?)",
                    )
                )
        return rejections

    def _validate_query(
        self, node_ids: Sequence[int]
    ) -> List[RequestRejection]:
        rejections: List[RequestRejection] = []
        for i, nid in enumerate(node_ids):
            if nid not in self.tree:
                rejections.append(
                    RequestRejection(
                        i, "unknown-node", f"no node {nid} in the tree"
                    )
                )
        return rejections

    def _validate_requests(
        self, requests: Sequence[Tuple]
    ) -> List[RequestRejection]:
        """Admit one heterogeneous batch, including the cross-request
        conflicts only visible at the batch level (see
        :meth:`apply_requests`)."""
        rej: Dict[int, RequestRejection] = {}

        def put(r: RequestRejection) -> None:
            # First rejection per request wins (deterministic: per-kind
            # validation before cross-request conflicts).
            rej.setdefault(r.index, r)

        by_kind: Dict[str, List[Tuple[int, Tuple]]] = {
            "grow": [],
            "prune": [],
            "set_value": [],
            "set_op": [],
            "query": [],
        }
        for i, req in enumerate(requests):
            kind = req[0] if req else None
            if kind not in by_kind:
                put(
                    RequestRejection(
                        i, "unknown-kind", f"unknown request kind {kind!r}"
                    )
                )
                continue
            by_kind[kind].append((i, req))

        validators = {
            "grow": self._validate_grow,
            "prune": self._validate_prune,
            "set_value": self._validate_set_values,
            "set_op": self._validate_set_ops,
        }
        for kind, validate in validators.items():
            entries = by_kind[kind]
            if not entries:
                continue
            sub = [req[1:] for _, req in entries]
            for r in validate(sub):  # type: ignore[operator]
                gi = entries[r.index][0]
                put(RequestRejection(gi, r.reason, r.detail))
        for r in self._validate_query([req[1] for _, req in by_kind["query"]]):
            gi = by_kind["query"][r.index][0]
            put(RequestRejection(gi, r.reason, r.detail))

        # Cross-request conflicts over the per-kind-valid requests only.
        grow_targets: Dict[int, int] = {
            req[1]: i for i, req in by_kind["grow"] if i not in rej
        }
        prune_targets: Dict[int, int] = {
            req[1]: i for i, req in by_kind["prune"] if i not in rej
        }
        removed: Dict[int, int] = {}  # child nid -> prune request index
        for nid, i in prune_targets.items():
            node = self.tree.node(nid)
            assert node.left is not None and node.right is not None
            removed[node.left.nid] = i
            removed[node.right.nid] = i
        for nid, pi in prune_targets.items():
            node = self.tree.node(nid)
            for child in (node.left, node.right):
                assert child is not None
                gi = grow_targets.get(child.nid)
                if gi is not None:
                    detail = (
                        f"prune of node {nid} removes leaf {child.nid} "
                        f"grown by request {gi}"
                    )
                    put(RequestRejection(pi, "conflicting-requests", detail))
                    put(RequestRejection(gi, "conflicting-requests", detail))
        for i, req in by_kind["set_value"]:
            if i in rej:
                continue
            nid = req[1]
            if nid in removed:
                put(
                    RequestRejection(
                        i,
                        "target-removed-by-batch",
                        f"leaf {nid} is removed by prune request "
                        f"{removed[nid]}",
                    )
                )
            elif nid in grow_targets:
                put(
                    RequestRejection(
                        i,
                        "conflicting-requests",
                        f"leaf {nid} becomes internal via grow request "
                        f"{grow_targets[nid]}",
                    )
                )
        # A node a prune removes is a leaf, which per-kind validation
        # already rejects for set_op (``no-rake-event``).
        for i, req in by_kind["set_op"]:
            if i in rej:
                continue
            nid = req[1]
            if nid in prune_targets:
                put(
                    RequestRejection(
                        i,
                        "conflicting-requests",
                        f"node {nid} becomes a leaf via prune request "
                        f"{prune_targets[nid]}",
                    )
                )
        for i, req in by_kind["query"]:
            if i in rej:
                continue
            nid = req[1]
            if nid in removed:
                put(
                    RequestRejection(
                        i,
                        "target-removed-by-batch",
                        f"node {nid} is removed by prune request "
                        f"{removed[nid]}",
                    )
                )
        return [rej[i] for i in sorted(rej)]

    def _pt_batch(self, batch: Any, *args: Any) -> Tuple[Any, List[int]]:
        """Run one PT batch.  On the flat backend it runs inside its own
        journal, and the live slots that journal saw written (pre-images
        and born slots) come back with the result: they are the only
        places the rake schedule can have changed.  The journal is a
        checkpoint like any outer one — the batch flattens into it, and
        a failure rolls the PT back before the error propagates."""
        pt = self.pt
        if not self._flat:
            return batch(*args), []
        journal = pt._txn_begin()
        try:
            result = batch(*args)
        except BaseException:
            pt._txn_rollback(journal)
            raise
        pt._txn_commit(journal)
        return result, pt._written_slots(journal)

    def _recontract(
        self,
        tracker: SpanTracker,
        u: int,
        changed: List[Tuple[int, int, int]],
        written: List[int],
    ) -> None:
        """Memoised replay: re-derive RT, reusing every event outside
        the wound.  ``fresh_nodes`` is the measured wound size.  The
        flat backend patches its schedule on the ``written`` PT slots
        and replays by change propagation from the ``changed`` T nodes
        (``(node, left, right)``: a grown leaf and its new children, or
        a pruned node and its deleted ones)."""
        if self._flat:
            # The leaf slots whose item changed: a grown leaf's handle
            # now holds its left child, a pruned node took over its old
            # left child's.
            written += [
                self.handle[x if x in self.handle else a].idx
                for x, a, _ in changed
            ]
            self._flat_schedule = build_flat_schedule(
                self.pt, self._flat_schedule, written
            )
            self.trace.replay(self.tree, self._flat_schedule, changed)
        else:
            self.trace = build_trace(
                self.tree, build_schedule(self.pt.root), old=self.trace
            )
        self._charge_wound(tracker, u, extra=self.trace.fresh_nodes)
        self.last_stats = {
            "fresh_rt_nodes": self.trace.fresh_nodes,
            "rounds": self.trace.rounds,
        }

    def _charge_wound(self, tracker: SpanTracker, u: int, extra: int = 0) -> None:
        """Charge the Theorem 4.1 cost of a ``|U| = u`` batch."""
        n = max(2, self.pt.n_leaves)
        wound = max(2, u * math.ceil(math.log2(n)) + extra)
        span = max(1, math.ceil(math.log2(wound)))
        tracker.charge(work=wound, span=span)

    def check_consistency(self) -> None:
        """Assert the RBSTS leaf order matches the tree's leaf order and
        the maintained value matches a from-scratch evaluation (used by
        the integration tests after every healing cycle)."""
        tree_leaves = [leaf.nid for leaf in self.tree.leaves_in_order()]
        pt_leaves = [h.item for h in self.pt.leaves()]
        if tree_leaves != pt_leaves:
            raise TreeStructureError("RBSTS leaf order out of sync with T")
        for nid in tree_leaves:
            if self.handle[nid].item != nid:
                raise TreeStructureError("handle map out of sync")
        expected = self.tree.evaluate()
        if not self.tree.ring.eq(self.value(), expected):
            raise TreeStructureError(
                f"maintained value {self.value()!r} != evaluated {expected!r}"
            )
        self.pt.check_invariants()
