"""In-memory span tracer that instruments the program from outside.

:func:`instrument` wraps the public entry points of each layer (serve,
resilience, snapshots, listprefix, splitting, contraction, perf) by
patching the classes and modules at run time; nothing under ``src/``
changes.  Every wrapped call records one span (name, parent, start,
end).  Self time is a span's duration minus the time its child spans
cover.  Spans stay in memory during a round and :meth:`Tracer.flush`
appends them, every one, as JSON lines to the trace file after it.

Only synchronous calls are wrapped, so spans nest strictly even though
the serve clients are asyncio coroutines; the time between top-level
spans is the asyncio rim (event loop, futures, acks).
"""

from __future__ import annotations

import json
import time
from typing import IO, Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """Span recorder with per-name aggregates."""

    def __init__(self) -> None:
        self.enabled = False
        self.round = 0
        self._stack: List[List[Any]] = []  # [name, span_id, child_s]
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._next_id = 0
        self._t0 = time.perf_counter()
        #: span name -> [calls, total_s, self_s]
        self.agg: Dict[str, List[float]] = {}
        #: seconds covered by top-level spans
        self.top_s = 0.0
        #: counters read from the program's own stats after a call
        self.counts: Dict[str, int] = {}
        #: spans recorded since the last :meth:`flush`
        self.spans: List[Tuple[int, int, str, int, float, float]] = []

    # -- patching -------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        only_under: Tuple[str, ...] = (),
        after: Optional[Callable[[Any, Tuple[Any, ...], Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``only_under`` restricts recording to calls made directly under
        a span of one of those names (other calls pass straight
        through).  ``after(tracer, args, result)`` runs after a
        recorded call, to read counts the program exposes.
        """
        original = getattr(owner, attr)
        own = attr in vars(owner)
        tracer = self
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            if not tracer.enabled or (
                only_under and (not stack or stack[-1][0] not in only_under)
            ):
                return original(*args, **kwargs)
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [name, span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(name, span_id, parent, frame[2], start, end)
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def _close(
        self,
        name: str,
        span_id: int,
        parent: Optional[List[Any]],
        child_s: float,
        start: float,
        end: float,
    ) -> None:
        duration = end - start
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_s
        if parent is not None:
            parent[2] += duration
        else:
            self.top_s += duration
        self.spans.append((
            span_id,
            parent[1] if parent is not None else -1,
            name,
            self.round,
            start - self._t0,
            end - self._t0,
        ))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- counters and queries --------------------------------------------
    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def calls(self, name: str) -> int:
        entry = self.agg.get(name)
        return int(entry[0]) if entry is not None else 0

    def self_s(self, name: str) -> float:
        entry = self.agg.get(name)
        return entry[2] if entry is not None else 0.0

    def flush(self, fh: IO[str]) -> None:
        """Append the spans recorded since the last flush to ``fh``."""
        for span_id, parent, name, rnd, start, end in self.spans:
            fh.write(json.dumps({
                "id": span_id,
                "parent": parent,
                "name": name,
                "round": rnd,
                "start_s": round(start, 9),
                "end_s": round(end, 9),
            }) + "\n")
        self.spans.clear()


def _rebuild_mass(tracer: Tracer, args: Tuple[Any, ...], _result: Any) -> None:
    """Add the RBSTS's ``last_batch_stats["rebuild_mass"]`` after a batch."""
    owner = args[0]
    rbsts = getattr(owner, "tree", owner)
    stats = getattr(rbsts, "last_batch_stats", None) or {}
    tracer.count("splitting.rebuild_mass", int(stats.get("rebuild_mass", 0)))


def instrument(tracer: Tracer, ring: Any) -> None:
    """Wrap every layer boundary the per-layer metrics are built from.

    ``ring`` selects the kernel class whose methods are wrapped (the
    one :func:`repro.perf.kernels.select_kernels` hands the contraction).
    """
    from repro.contraction import dynamic as contraction_dynamic
    from repro.contraction.dynamic import DynamicTreeContraction
    from repro.listprefix.structure import IncrementalListPrefix
    from repro.perf.flat_contraction import FlatContraction
    from repro.perf.flat_rbsts import FlatRBSTS
    from repro.perf.kernels import select_kernels
    from repro.resilience.executor import ResilientExecutor
    from repro.serve import shard as serve_shard
    from repro.snapshots.core import FlatSnapshot
    from repro.snapshots.reader import PinnedReader

    w = tracer.wrap
    # serve
    w(serve_shard.Shard, "offer", "serve.offer")
    w(serve_shard.Shard, "execute_window", "serve.window")
    w(serve_shard.Shard, "read", "serve.read")
    for fn in ("validate_batch_insert", "validate_batch_delete",
               "validate_batch_update"):
        w(serve_shard, fn, "serve.admit")
    # resilience
    w(ResilientExecutor, "supervise", "resilience.supervise")
    w(FlatRBSTS, "check_invariants", "resilience.audit",
      only_under=("resilience.supervise",))
    # snapshots
    w(FlatRBSTS, "_txn_begin", "snapshots.txn",
      only_under=("resilience.supervise",))
    w(FlatRBSTS, "_txn_commit", "snapshots.txn",
      only_under=("resilience.supervise",))
    w(PinnedReader, "__init__", "snapshots.pin")
    w(PinnedReader, "close", "snapshots.pin")
    w(FlatSnapshot, "materialize", "snapshots.materialize")
    for fn in ("prefix", "range_fold", "total"):
        w(PinnedReader, fn, "snapshots.reader_fold")
    # listprefix and splitting
    # Value updates rebuild nothing and leave last_batch_stats stale.
    w(IncrementalListPrefix, "batch_set", "listprefix.apply")
    for fn in ("batch_insert", "batch_delete"):
        w(IncrementalListPrefix, fn, "listprefix.apply", after=_rebuild_mass)
    w(FlatRBSTS, "leaf_at", "splitting.leaf_at")
    for fn in ("batch_insert", "batch_delete"):
        w(FlatRBSTS, fn, "splitting.pt_update",
          only_under=("contraction.batch",), after=_rebuild_mass)
    # contraction and perf
    for fn in ("batch_set_leaf_values", "batch_grow", "batch_prune"):
        w(DynamicTreeContraction, fn, "contraction.batch")
    w(DynamicTreeContraction, "query_values", "contraction.query")
    w(FlatContraction, "heal", "contraction.heal")
    w(FlatContraction, "replay", "contraction.replay")
    w(contraction_dynamic, "build_flat_schedule", "contraction.schedule")
    kernels = type(select_kernels(ring))
    for fn in ("rake_add", "rake_mul", "compress"):
        w(kernels, fn, "perf.kernel")
