"""Seeded load generation for the serving layer.

Emits deterministic streams of :class:`RequestSpec` records — shard
chosen with Zipfian skew (hot shards, long tail), op kind drawn from a
:mod:`repro.testing.generator` list profile (``"serve"`` by default:
single-request writes + reads, the shape the frontend coalesces
itself), positions as raw integers normalised against the live shard
length at submit time.  Knobs plant the failure matrix directly in the
traffic:

* ``poison_rate`` — fraction of insert/set values that are
  :class:`PoisonPill` payloads (arithmetic raises
  :class:`~repro.errors.PoisonedPayloadError` — passes the position
  validators, detonates in the admission fold, exercises quarantine);
* ``invalid_rate`` — fraction of positions left raw (out of range →
  exercises admission rejection);
* ``deadline_s`` / ``deadline_jitter`` — per-request deadline budgets.

One asyncio driver runs the stream against a
:class:`~repro.serve.service.BatchService`: closed-loop (``k`` workers
each awaiting their response before the next submit).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..errors import InvalidParameterError, PoisonedPayloadError
from ..testing.generator import list_profile

__all__ = [
    "RAW",
    "PoisonPill",
    "RequestSpec",
    "generate_specs",
    "spec_args",
    "run_closed_loop",
]

#: Raw positions live in [0, 2^16); drivers normalise mod shard length.
RAW = 1 << 16

#: Generator kind index -> request kind (batch kinds collapse onto the
#: single-request verbs: the serving window is the batch).
_KIND_MAP = (
    "insert",  # ins
    "delete",  # del
    "insert",  # bins
    "delete",  # bdel
    "set",  # bset
    "prefix",  # prefix
    "range",  # range
    "total",  # activate (no serving analogue; fold the whole shard)
)


class PoisonPill:
    """A payload the position validators cannot see through: it is a
    perfectly well-formed value whose *arithmetic* detonates.  Any
    attempt to combine it (summary maintenance, folds) raises
    :class:`~repro.errors.PoisonedPayloadError` — which is how the
    shard's admission fold recognises it and quarantines the
    request."""

    __slots__ = ("tag",)

    def __init__(self, tag: int = 0) -> None:
        self.tag = tag

    def _detonate(self, _other: Any = None) -> Any:
        raise PoisonedPayloadError(f"poison pill {self.tag} combined")

    __add__ = _detonate
    __radd__ = _detonate
    __mul__ = _detonate
    __rmul__ = _detonate

    def __repr__(self) -> str:
        return f"PoisonPill({self.tag})"


@dataclass(frozen=True)
class RequestSpec:
    """One planned request: raw material, normalised at submit time."""

    shard: int
    kind: str
    raw: Tuple[int, ...] = ()
    value: Any = None
    invalid: bool = False
    deadline_s: Optional[float] = None


def _zipf_weights(n_shards: int, s: float) -> List[float]:
    return [1.0 / (k + 1) ** s for k in range(n_shards)]


def generate_specs(
    seed: int,
    n_requests: int,
    n_shards: int,
    *,
    profile: str = "serve",
    zipf_s: float = 1.1,
    poison_rate: float = 0.0,
    invalid_rate: float = 0.0,
    deadline_s: Optional[float] = None,
    deadline_jitter: float = 0.0,
) -> List[RequestSpec]:
    """The spec stream fully determined by ``(seed, knobs)``."""
    if n_shards < 1:
        raise InvalidParameterError("n_shards must be >= 1")
    rng = random.Random(repr(("serve-load", seed)))
    steady, _delete_heavy = list_profile(profile)
    shard_ids = list(range(n_shards))
    shard_weights = _zipf_weights(n_shards, zipf_s)
    specs: List[RequestSpec] = []
    for i in range(n_requests):
        shard = rng.choices(shard_ids, shard_weights)[0]
        kind = _KIND_MAP[
            rng.choices(range(len(_KIND_MAP)), steady)[0]
        ]
        raw = (rng.randrange(RAW), rng.randrange(RAW))
        value: Any = None
        if kind in ("insert", "set"):
            if poison_rate > 0.0 and rng.random() < poison_rate:
                value = PoisonPill(i)
            else:
                value = rng.randrange(RAW)
        invalid = (
            kind != "total"
            and invalid_rate > 0.0
            and rng.random() < invalid_rate
        )
        deadline: Optional[float] = None
        if deadline_s is not None:
            jitter = 1.0 + deadline_jitter * (2.0 * rng.random() - 1.0)
            deadline = deadline_s * jitter
        specs.append(
            RequestSpec(
                shard=shard,
                kind=kind,
                raw=raw,
                value=value,
                invalid=invalid,
                deadline_s=deadline,
            )
        )
    return specs


def spec_args(spec: RequestSpec, length: int) -> Tuple[Any, ...]:
    """Normalise a spec's raw positions against the shard's current
    length (``invalid`` specs keep raw positions, which — lengths
    being far below :data:`RAW` — land out of range and exercise
    admission rejection)."""
    n = max(1, length)
    kind = spec.kind
    if kind == "insert":
        pos = spec.raw[0] if spec.invalid else spec.raw[0] % (length + 1)
        return (pos, spec.value)
    if kind == "set":
        pos = spec.raw[0] if spec.invalid else spec.raw[0] % n
        return (pos, spec.value)
    if kind == "delete":
        pos = spec.raw[0] if spec.invalid else spec.raw[0] % n
        return (pos,)
    if kind == "prefix":
        return (spec.raw[0] if spec.invalid else spec.raw[0] % n,)
    if kind == "range":
        if spec.invalid:
            return (spec.raw[0], spec.raw[1])
        i, j = sorted((spec.raw[0] % n, spec.raw[1] % n))
        return (i, j)
    return ()  # total / len


async def run_closed_loop(
    service: Any,
    specs: Sequence[RequestSpec],
    *,
    concurrency: int = 8,
) -> List[Any]:
    """``concurrency`` workers, each awaiting its response before
    pulling the next spec.  Returns responses in spec order."""
    results: List[Any] = [None] * len(specs)
    cursor = iter(enumerate(specs))

    async def worker() -> None:
        for i, spec in cursor:
            results[i] = await service.submit(
                spec.shard,
                spec.kind,
                *spec_args(spec, len(service.shards[spec.shard])),
                deadline_s=spec.deadline_s,
            )

    await asyncio.gather(*(worker() for _ in range(max(1, concurrency))))
    return results
