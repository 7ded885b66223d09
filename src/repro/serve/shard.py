"""One serving shard: bounded queue, batch windows, breaker, quarantine.

A :class:`Shard` owns one tree instance (wrapped in a
:class:`~repro.resilience.executor.ResilientListSession`, so faults
demote it down the ``flat → reference → sequential`` ladder
without losing committed state) plus the robustness machinery around
it:

* **Bounded queue with seeded shedding** — :meth:`offer` refuses work
  above the queue's highwater mark with probability ramping linearly
  to 1.0 at capacity.  The shed decision is a keyed draw on ``(seed,
  shard, arrival_index)``: replaying the same per-shard arrival
  sequence under the same seed sheds exactly the same requests, no
  matter how shards interleave.
* **Circuit breaker** — ``breaker_threshold`` *consecutive* failed
  windows open the breaker; while open, :meth:`offer` refuses
  instantly (``circuit-open``).  After the open interval (doubling per
  reopen) the breaker half-opens: traffic queues again and the next
  window is the probe — success closes, failure reopens.
* **Deadline budgeting** — each window phase caps the supervisor's
  retry budget so that the *simulated* exponential backoff it may
  charge fits inside the tightest admitted deadline; backoff actually
  charged advances the window's effective clock, so later phases see
  the time the retries cost and expire their requests instead of
  applying them late.
* **Poisoned-batch quarantine** — an admitted phase that crashes
  mid-apply is rolled back by the transaction layer, bisected by
  :func:`~repro.serve.quarantine.quarantine_bisect`, and only the
  offending requests are rejected; the surviving subset commits.

Everything here is synchronous and clock-free (``now`` is an explicit
argument): the asyncio frontend (:mod:`repro.serve.service`) and the
chaos harness (:mod:`repro.serve.chaos`) drive the same code.

Exactly-once audit trail: every committed phase appends ``(verb,
payload, req_ids)`` to ``applied_log``.  The chaos oracle replays the
log over the initial values on a ``SequentialList`` and demands
bit-equality with the live structure — an acked request that was
lost, double-applied or re-ordered breaks the replay.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import replace
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..baselines.sequential_list import SequentialList, apply_phase
from ..errors import BatchValidationError, RetryExhaustedError
from ..resilience.executor import (
    BACKOFF_FACTOR,
    ResiliencePolicy,
    ResilientListSession,
)
from ..resilience.faults import FaultPlan
from ..snapshots.reader import PinnedReader

# Admission calls ``validate_batch_*`` inside ``validate_positions``;
# the names stay importable here because perfbench/tracing.py looks
# them up on this module (its ``serve.admit`` span).
from ..transactions import (  # noqa: F401
    not_position,
    validate_batch_delete,
    validate_batch_insert,
    validate_batch_update,
    validate_positions,
)
from .quarantine import detonate_values, quarantine_bisect
from .requests import Request, Response, ServePolicy

__all__ = ["BREAKER_BACKOFF_FACTOR", "PHASE_ORDER", "Shard"]

#: Canonical write-phase order inside one window.
PHASE_ORDER = ("set", "delete", "insert")

#: Each reopen of the circuit breaker multiplies its open interval
#: (``ServePolicy.breaker_reset_s``) by this factor.
BREAKER_BACKOFF_FACTOR = 2.0


def _new_stats() -> Dict[str, int]:
    return {
        "offers": 0,
        "enqueued": 0,
        "windows": 0,
        "applied": 0,
        "rejections": 0,
        "sheds": 0,
        "timeouts": 0,
        "reads": 0,
        "failed_windows": 0,
        "quarantines": 0,
        "quarantined": 0,
        "circuit_rejections": 0,
        "breaker_opens": 0,
        "breaker_half_opens": 0,
        "breaker_closes": 0,
    }


class Shard:
    """Synchronous serving core for one tree instance (see module doc)."""

    def __init__(
        self,
        shard_id: int,
        monoid: Any,
        values: Sequence[Any],
        *,
        seed: int = 0,
        policy: Optional[ServePolicy] = None,
        plan: Optional[FaultPlan] = None,
    ) -> None:
        self.shard_id = shard_id
        self.seed = seed
        self.policy = policy if policy is not None else ServePolicy()
        session_seed = random.Random(
            repr(("serve-shard", seed, shard_id))
        ).getrandbits(32)
        self.session = ResilientListSession(
            monoid,
            values,
            seed=session_seed,
            policy=self.policy.resilience,
            plan=plan,
        )
        self.queue: Deque[Request] = deque()
        self.arrivals = 0
        self.breaker_state = "closed"  # "closed" | "open" | "half-open"
        self.breaker_failures = 0  # consecutive failed windows
        self.breaker_open_until = 0.0
        self.breaker_opened_count = 0
        self.applied_log: List[Tuple[str, Tuple[Any, ...], Tuple[int, ...]]] = []
        self.stats = _new_stats()

    # -- introspection --------------------------------------------------
    def __len__(self) -> int:
        return len(self.session)

    @property
    def pending(self) -> int:
        return len(self.queue)

    def values(self) -> List[Any]:
        return self.session.values()

    def check_invariants(self) -> None:
        self.session.check_invariants()

    # -- admission (queue + overload protection) ------------------------
    def offer(self, req: Request, now: float) -> Optional[Response]:
        """Try to enqueue one write request.  Returns ``None`` on
        success or the refusing :class:`Response` (circuit-open /
        timeout / shed).  Every offer consumes one arrival index, so
        the shed decision sequence is a pure function of ``(seed,
        shard, per-shard arrival order)``."""
        index = self.arrivals
        self.arrivals += 1
        self.stats["offers"] += 1
        if self.breaker_state == "open":
            if now >= self.breaker_open_until:
                self.breaker_state = "half-open"
                self.stats["breaker_half_opens"] += 1
            else:
                self.stats["circuit_rejections"] += 1
                return Response(
                    req.req_id, self.shard_id, "circuit-open",
                    reason="breaker-open",
                )
        if req.deadline is not None and req.deadline <= now:
            self.stats["timeouts"] += 1
            return Response(
                req.req_id, self.shard_id, "timeout",
                reason="deadline-exceeded",
            )
        capacity = self.policy.queue_capacity
        if len(self.queue) >= capacity:
            self.stats["sheds"] += 1
            return Response(
                req.req_id, self.shard_id, "shed", reason="queue-full"
            )
        fill = len(self.queue) / capacity
        highwater = self.policy.shed_highwater
        if fill >= highwater:
            p = 1.0 if highwater >= 1.0 else (fill - highwater) / (1.0 - highwater)
            draw = random.Random(
                repr(("shed", self.seed, self.shard_id, index))
            ).random()
            if draw < p:
                self.stats["sheds"] += 1
                return Response(
                    req.req_id, self.shard_id, "shed", reason="overload",
                    detail=f"fill={fill:.3f}",
                )
        self.queue.append(req)
        self.stats["enqueued"] += 1
        return None

    def take_window(self) -> List[Request]:
        """Drain up to ``max_batch`` queued requests, FIFO."""
        window: List[Request] = []
        while self.queue and len(window) < self.policy.max_batch:
            window.append(self.queue.popleft())
        return window

    # -- batch execution ------------------------------------------------
    def execute_window(
        self, window: Sequence[Request], now: float
    ) -> Dict[int, Response]:
        """Run one coalesced window; return ``{req_id: Response}``.

        Phases run in :data:`PHASE_ORDER`; each phase's positions are
        interpreted against the shard state at that phase's start.
        Simulated retry backoff charged by a phase advances the
        window's effective clock, expiring later-phase requests whose
        deadlines the retries consumed.
        """
        out: Dict[int, Response] = {}
        self.stats["windows"] += 1
        effective_now = now
        by_kind: Dict[str, List[Request]] = {}
        for req in window:
            by_kind.setdefault(req.kind, []).append(req)
        aborted = False
        window_failed = False
        committed_any = False
        for verb in PHASE_ORDER:
            phase = by_kind.get(verb, ())
            if not phase:
                continue
            if aborted:
                for req in phase:
                    out[req.req_id] = Response(
                        req.req_id, self.shard_id, "failed",
                        reason="window-aborted",
                    )
                continue
            live: List[Request] = []
            for req in phase:
                if req.deadline is not None and req.deadline <= effective_now:
                    out[req.req_id] = Response(
                        req.req_id, self.shard_id, "timeout",
                        reason="deadline-exceeded",
                    )
                    self.stats["timeouts"] += 1
                else:
                    live.append(req)
            if not live:
                continue
            payload = [self._payload(req) for req in live]
            rejected: Dict[int, Any] = {}
            # Positional admission through the shared validators
            # (repro.transactions): per-request statuses, not a raise.
            for rej in validate_positions(verb, len(self.session), payload):
                rejected.setdefault(rej.index, rej)
            admitted: List[Request] = []
            admitted_payload: List[Any] = []
            for i, req in enumerate(live):
                if i in rejected:
                    rej = rejected[i]
                    out[req.req_id] = Response(
                        req.req_id, self.shard_id, "rejected",
                        reason=rej.reason, detail=rej.detail,
                    )
                    self.stats["rejections"] += 1
                else:
                    admitted.append(req)
                    admitted_payload.append(payload[i])
            if not admitted:
                continue
            executor = self.session.executor
            saved_policy = executor.policy
            backoff_before = executor.stats["simulated_backoff_s"]
            allowed = self._retry_budget(admitted, effective_now, saved_policy)
            if allowed != saved_policy.max_retries:
                executor.policy = replace(saved_policy, max_retries=allowed)
            try:
                try:
                    self._apply_admitted(verb, admitted_payload)
                except BatchValidationError as exc:
                    # Defensive: admission above mirrors the structure's
                    # own validators, so this indicates a mismatch —
                    # reject rather than crash the window.
                    for req in admitted:
                        out[req.req_id] = Response(
                            req.req_id, self.shard_id, "rejected",
                            reason="admission-mismatch", detail=str(exc),
                        )
                    self.stats["rejections"] += len(admitted)
                    continue
                except RetryExhaustedError as exc:
                    # Infrastructure failure after the whole ladder:
                    # pre-phase state is intact; abort the window.
                    for req in admitted:
                        out[req.req_id] = Response(
                            req.req_id, self.shard_id, "failed",
                            reason="retries-exhausted", detail=str(exc),
                        )
                    self.stats["failed_windows"] += 1
                    window_failed = True
                    aborted = True
                    continue
                except Exception as exc:
                    # Outcome-classification boundary: an admitted batch
                    # detonated mid-apply (poisoned payload).  The
                    # transaction layer already rolled the phase back;
                    # bisect and commit the innocent subset.
                    if self._quarantine(
                        verb, admitted, admitted_payload, exc, out
                    ):
                        committed_any = True
                    else:
                        self.stats["failed_windows"] += 1
                        window_failed = True
                        aborted = True
                    continue
                req_ids = tuple(req.req_id for req in admitted)
                self.applied_log.append(
                    (verb, tuple(admitted_payload), req_ids)
                )
                for req in admitted:
                    out[req.req_id] = Response(
                        req.req_id, self.shard_id, "applied"
                    )
                self.stats["applied"] += len(admitted)
                committed_any = True
            finally:
                executor.policy = saved_policy
                effective_now += (
                    executor.stats["simulated_backoff_s"] - backoff_before
                )
        if window_failed:
            self._breaker_record_failure(effective_now)
        elif committed_any:
            self._breaker_record_success()
        return out

    # -- reads (pinned epoch) -------------------------------------------
    def read(self, req: Request, now: float) -> Response:
        """Answer a read from a pinned epoch.

        On tree rungs the query runs against
        ``tree.pinned_reader(...)`` — an O(1) epoch pin on the flat
        family, answered by an O(depth) descent over the pinned
        version's leaf counts and summaries — so the answer is a
        consistent cut even if a writer batch were open.  The
        sequential rung (plain list) is queried directly.
        """
        if req.deadline is not None and req.deadline <= now:
            self.stats["timeouts"] += 1
            return Response(
                req.req_id, self.shard_id, "timeout",
                reason="deadline-exceeded",
            )
        self.stats["reads"] += 1
        session = self.session
        n = len(session)
        kind = req.kind
        if kind == "prefix":
            pos = req.args[0]
            note = not_position(pos)
            if note or not 0 <= pos < n:
                return Response(
                    req.req_id, self.shard_id, "rejected",
                    reason="position-out-of-range",
                    detail=f"prefix position {pos!r}{note} out of range 0..{n - 1}",
                )
        elif kind == "range":
            i, j = req.args
            note = not_position(i) or not_position(j)
            if note or not 0 <= i <= j < n:
                return Response(
                    req.req_id, self.shard_id, "rejected",
                    reason="position-out-of-range",
                    detail=f"range [{i!r}, {j!r}]{note} invalid for length {n}",
                )
        if session.rung == "sequential":
            result = self._read_sequential(kind, req.args)
        else:
            tree = session._structure.tree
            with tree.pinned_reader(monoid=session.monoid) as reader:
                result = self._read_pinned(kind, req.args, reader)
        return Response(req.req_id, self.shard_id, "applied", result=result)

    def _read_sequential(self, kind: str, args: Tuple[Any, ...]) -> Any:
        st = self.session._structure
        if kind == "len":
            return len(st)
        if kind == "total":
            return st.total()
        if kind == "prefix":
            return st.prefix(args[0])
        # Called through the class, not a duck-typed ``st.range_fold``:
        # that name also reaches IncrementalListPrefix.range_fold, whose
        # activation marks would enter the read path's effect closure
        # (R202).
        return SequentialList.range_fold(st, args[0], args[1])

    def _read_pinned(
        self, kind: str, args: Tuple[Any, ...], reader: PinnedReader
    ) -> Any:
        if kind == "len":
            return len(reader)
        if kind == "total":
            return reader.total()
        if kind == "prefix":
            return reader.prefix(args[0])
        # Through the class for the same reason as _read_sequential.
        return PinnedReader.range_fold(reader, args[0], args[1])

    # -- internals ------------------------------------------------------
    @staticmethod
    def _payload(req: Request) -> Any:
        return req.args[0] if req.kind == "delete" else req.args

    def _retry_budget(
        self, admitted: Sequence[Request], now: float, policy: ResiliencePolicy
    ) -> int:
        """Retries the tightest admitted deadline can afford: the
        largest ``r <= max_retries`` whose cumulative simulated backoff
        fits in the minimum remaining budget."""
        budget: Optional[float] = None
        for req in admitted:
            if req.deadline is not None:
                remaining = req.deadline - now
                budget = remaining if budget is None else min(budget, remaining)
        if budget is None:
            return policy.max_retries
        allowed = 0
        cumulative = 0.0
        for attempt in range(policy.max_retries):
            cumulative += policy.backoff_base_s * BACKOFF_FACTOR**attempt
            if cumulative <= budget:
                allowed = attempt + 1
            else:
                break
        return allowed

    def _apply_admitted(self, verb: str, payload: Sequence[Any]) -> Any:
        """The batch-apply seam: every committed write on this shard
        funnels through here into the supervised session (registered
        effect entry point — the body stays mutation-free so the
        journal-covered session calls are the only state transition).
        The detonation check fires a poisoned payload *before* any
        mutation, identically on every ladder rung."""
        detonate_values(self.session.monoid, verb, payload)
        return apply_phase(self.session, verb, payload)

    def _quarantine(
        self,
        verb: str,
        reqs: Sequence[Request],
        payload: Sequence[Any],
        exc: BaseException,
        out: Dict[int, Response],
    ) -> bool:
        """Bisect a crashed admitted phase and commit the innocent
        subset.  Returns ``True`` when the shard made progress (the
        good subset committed, possibly empty), ``False`` when even the
        probe-approved subset failed to commit."""
        self.stats["quarantines"] += 1
        result = quarantine_bisect(
            self.session, verb, payload,
            max_probes=self.policy.quarantine_max_probes,
        )
        detail = f"{type(exc).__name__}: {exc}"
        for i in result.poisoned:
            req = reqs[i]
            out[req.req_id] = Response(
                req.req_id, self.shard_id, "quarantined",
                reason="poisoned-payload", detail=detail,
            )
            self.stats["quarantined"] += 1
        good_reqs = [reqs[i] for i in result.good]
        if not good_reqs:
            return True
        good_payload = [payload[i] for i in result.good]
        try:
            self._apply_admitted(verb, good_payload)
        except Exception as commit_exc:
            # Outcome-classification boundary: the probe-approved
            # subset still failed (e.g. an infra fault on the commit
            # attempt after the whole ladder) — state is intact, the
            # subset is reported failed, the window counts as failed.
            for req in good_reqs:
                out[req.req_id] = Response(
                    req.req_id, self.shard_id, "failed",
                    reason="quarantine-commit-failed", detail=str(commit_exc),
                )
            return False
        req_ids = tuple(req.req_id for req in good_reqs)
        self.applied_log.append((verb, tuple(good_payload), req_ids))
        for req in good_reqs:
            out[req.req_id] = Response(req.req_id, self.shard_id, "applied")
        self.stats["applied"] += len(good_reqs)
        return True

    # -- circuit breaker ------------------------------------------------
    def _breaker_record_failure(self, now: float) -> None:
        self.breaker_failures += 1
        policy = self.policy
        if (
            self.breaker_state == "half-open"
            or self.breaker_failures >= policy.breaker_threshold
        ):
            interval = (
                policy.breaker_reset_s
                * BREAKER_BACKOFF_FACTOR**self.breaker_opened_count
            )
            self.breaker_opened_count += 1
            self.breaker_state = "open"
            self.breaker_open_until = now + interval
            self.breaker_failures = 0
            self.stats["breaker_opens"] += 1

    def _breaker_record_success(self) -> None:
        self.breaker_failures = 0
        if self.breaker_state == "half-open":
            self.breaker_state = "closed"
            self.stats["breaker_closes"] += 1
