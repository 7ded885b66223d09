"""Fault-tolerant sharded batch serving (PR 10, DESIGN.md §14).

An asyncio frontend (:class:`~repro.serve.service.BatchService`) owns
a forest of tree instances — shard key = tree id — and coalesces
per-shard requests into batch windows admitted through
:mod:`repro.transactions` and executed under the PR 5 resilience
ladder.  Around that sits the robustness layer: per-request deadlines
with retry-budget propagation, bounded queues with seeded
load shedding, per-shard circuit breakers, poison quarantine at
admission, and pinned-epoch reads via
:func:`repro.snapshots.pinned_reader`.  The whole core is synchronous
and clock-free; :mod:`repro.serve.chaos` drives it deterministically
(``make fuzz-serve``).
"""

from .clock import MonotonicClock, VirtualClock
from .requests import (
    READ_KINDS,
    STATUSES,
    WRITE_KINDS,
    Request,
    Response,
    ServePolicy,
)
from .service import BatchService
from .shard import PHASE_ORDER, Shard

__all__ = [
    "WRITE_KINDS",
    "READ_KINDS",
    "STATUSES",
    "Request",
    "Response",
    "ServePolicy",
    "VirtualClock",
    "MonotonicClock",
    "PHASE_ORDER",
    "Shard",
    "BatchService",
]
