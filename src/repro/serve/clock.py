"""Clock seam for :mod:`repro.serve`.

Everything below the asyncio frontend takes ``now`` as an explicit
float argument — the sync core (:mod:`repro.serve.shard`) never
reads a clock, which is what
makes the chaos harness and the failure-matrix tests fully
deterministic (and keeps the registered effect entry points free of
R201 time-read findings).  The two clock implementations here exist
only for the code that *drives* the core:

* :class:`VirtualClock` — a hand-cranked counter for tests and the
  chaos harness.  ``now()`` is pure state; time passes only when the
  driver calls ``advance``.
* :class:`MonotonicClock` — ``time.monotonic`` for the real asyncio
  service.
"""

from __future__ import annotations

import time

__all__ = ["VirtualClock", "MonotonicClock"]


class VirtualClock:
    """Deterministic clock: reads are pure, only ``advance`` moves it."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        self._now += float(dt)
        return self._now


class MonotonicClock:
    """Wall-clock seam for the live asyncio service."""

    def now(self) -> float:
        return time.monotonic()
