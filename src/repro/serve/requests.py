"""Request/response vocabulary and policy knobs for :mod:`repro.serve`.

The service's unit of client traffic is one small :class:`Request`
against one shard (= one tree instance).  Write kinds coalesce into
per-shard batch windows; read kinds answer immediately from a pinned
epoch.  Every outcome — including overload outcomes — is reported as a
:class:`Response` status rather than an exception, so a load generator
can account for every submitted request without try/except noise
(:mod:`repro.errors` still defines raising twins for callers that want
them).

Window semantics
----------------

A window's write requests are grouped by kind and applied in the
canonical phase order **set → delete → insert**; within a phase the
original arrival order is kept and positions are interpreted against
the shard sequence as it stood at the *start of that phase* (exactly
the pre-batch position semantics of
:meth:`~repro.resilience.executor.ResilientListSession.batch_set` /
``batch_delete`` / ``batch_insert``, which is also what the chaos
oracle replays).  Admission answers each request on its own: a
bad position is ``rejected`` and a value whose fold with the monoid
identity raises is ``quarantined``.  The rest of the phase is one
transactional batch: it commits entirely, or fails with shard state
intact (infra faults after the whole degradation ladder, or a crash
of the apply).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from ..errors import InvalidParameterError
from ..resilience.executor import ResiliencePolicy

__all__ = [
    "WRITE_KINDS",
    "READ_KINDS",
    "STATUSES",
    "Request",
    "Response",
    "ServePolicy",
]

#: Write kinds, in canonical phase order (set → delete → insert).
WRITE_KINDS = ("set", "delete", "insert")

#: Read kinds (answered from a pinned epoch, never queued).
READ_KINDS = ("prefix", "range", "total", "len")

#: Every response status the service emits.
STATUSES = (
    "applied",  # write committed (or read answered)
    "rejected",  # failed admission (validate_batch_* reasons)
    "shed",  # dropped by seeded load shedding (queue over highwater)
    "circuit-open",  # shard breaker open, request refused outright
    "timeout",  # deadline passed before/while the window executed
    "quarantined",  # value poisoned (its admission fold raised)
    "failed",  # phase apply failed, or an earlier phase did; state intact
)

_ARITY = {
    "set": 2,
    "delete": 1,
    "insert": 2,
    "prefix": 1,
    "range": 2,
    "total": 0,
    "len": 0,
}


@dataclass(frozen=True)
class Request:
    """One client request against one shard.

    ``args`` by kind: ``set (pos, value)``, ``delete (pos,)``,
    ``insert (pos, value)``, ``prefix (pos,)``, ``range (i, j)``,
    ``total ()``, ``len ()``.  ``deadline`` is an absolute clock value
    (same clock the service was built with) or ``None``; ``arrival``
    is stamped by the service at enqueue time.
    """

    req_id: int
    shard: int
    kind: str
    args: Tuple[Any, ...] = ()
    deadline: Optional[float] = None
    arrival: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in WRITE_KINDS and self.kind not in READ_KINDS:
            raise InvalidParameterError(
                f"unknown request kind {self.kind!r} (expected one of "
                f"{WRITE_KINDS + READ_KINDS})"
            )
        if len(self.args) != _ARITY[self.kind]:
            raise InvalidParameterError(
                f"{self.kind!r} request takes {_ARITY[self.kind]} "
                f"argument(s), got {len(self.args)}"
            )

    @property
    def is_write(self) -> bool:
        return self.kind in WRITE_KINDS


@dataclass(frozen=True)
class Response:
    """Outcome of one request (status vocabulary in :data:`STATUSES`)."""

    req_id: int
    shard: int
    status: str
    result: Any = None
    reason: str = ""
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "applied"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tail = f" ({self.reason})" if self.reason else ""
        return f"req[{self.req_id}]@shard{self.shard}: {self.status}{tail}"


@dataclass(frozen=True)
class ServePolicy:
    """Knobs for batch windows and overload protection.

    ``max_batch`` / ``max_wait_s`` are the window's size and latency
    triggers.  The bounded queue sheds above ``shed_highwater`` fill
    with probability ramping linearly to 1.0 at capacity, decided by a
    keyed draw on ``(seed, shard, arrival_index)`` — deterministic per
    seed regardless of cross-shard interleaving.  The breaker opens
    after ``breaker_threshold`` *consecutive* failed windows, stays
    open ``breaker_reset_s`` (doubling per reopen, see
    ``shard.BREAKER_BACKOFF_FACTOR``), then half-opens for one probe
    window.
    ``resilience`` is the per-shard supervision policy (retry budget +
    degradation ladder); a window's remaining deadline budget caps the
    retries actually granted (see ``Shard.execute_window``).
    """

    max_batch: int = 32
    max_wait_s: float = 0.005
    queue_capacity: int = 256
    shed_highwater: float = 0.75
    breaker_threshold: int = 3
    breaker_reset_s: float = 0.05
    default_deadline_s: Optional[float] = None
    resilience: ResiliencePolicy = field(default_factory=ResiliencePolicy)

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise InvalidParameterError("max_batch must be >= 1")
        if self.queue_capacity < 1:
            raise InvalidParameterError("queue_capacity must be >= 1")
        if not 0.0 <= self.shed_highwater <= 1.0:
            raise InvalidParameterError(
                "shed_highwater must be a fill fraction in [0, 1]"
            )
        if self.breaker_threshold < 1:
            raise InvalidParameterError("breaker_threshold must be >= 1")
