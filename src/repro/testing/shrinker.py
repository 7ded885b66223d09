"""Minimise a failing operation sequence to a near-minimal reproducer.

Classic delta debugging adapted to the op model: because the executor
normalises raw integers at replay time, *any* subsequence (and any
batch-payload subset, and any smaller ``n0``) is a valid program — so
the shrinker only ever has to ask "does this smaller program still
fail?", never "is it well-formed?".

Passes, repeated to a fixed point under a replay budget:

1. **chunk removal** — drop contiguous op runs, halving chunk size
   (ddmin);
2. **payload thinning** — drop individual entries from batch payloads;
3. **header shrinking** — reduce the initial size ``n0`` toward 2;
4. **value zeroing** — canonicalise raw integers to 0 where the failure
   survives (makes reproducers readable and corpus diffs stable).

The predicate is any callable ``fails(seq) -> bool``; the fuzzer passes
a closure over :func:`repro.testing.executor.run_sequence` (optionally
with a planted bug).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from .ops import OpSequence
from ..errors import InvalidParameterError

__all__ = ["ShrinkResult", "shrink"]


@dataclass
class ShrinkResult:
    sequence: OpSequence
    attempts: int  # replays spent
    improved: bool  # did any pass make the program smaller?

    @property
    def n_ops(self) -> int:
        return len(self.sequence.ops)


class _Budget:
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.spent = 0

    def step(self) -> bool:
        self.spent += 1
        return self.spent <= self.limit


def _try(
    fails: Callable[[OpSequence], bool], cand: OpSequence, budget: _Budget
) -> bool:
    if not budget.step():
        return False
    return fails(cand)


def _chunk_removal(seq, fails, budget) -> OpSequence:
    changed = True
    while changed and budget.spent < budget.limit:
        changed = False
        n = len(seq.ops)
        if n == 0:
            break
        chunk = max(1, n // 2)
        while chunk >= 1:
            i = 0
            while i < len(seq.ops):
                cand = seq.with_ops(seq.ops[:i] + seq.ops[i + chunk :])
                if len(cand.ops) < len(seq.ops) and _try(fails, cand, budget):
                    seq = cand
                    changed = True
                else:
                    i += chunk
                if budget.spent >= budget.limit:
                    return seq
            chunk //= 2
    return seq


def _payload_thinning(seq, fails, budget) -> OpSequence:
    changed = True
    while changed and budget.spent < budget.limit:
        changed = False
        for oi, op in enumerate(seq.ops):
            for pi, part in enumerate(op[1:], start=1):
                if not isinstance(part, list) or len(part) <= 1:
                    continue
                ei = 0
                while ei < len(seq.ops[oi][pi]):
                    part_now = seq.ops[oi][pi]
                    thinned = part_now[:ei] + part_now[ei + 1 :]
                    new_op = list(seq.ops[oi])
                    new_op[pi] = thinned
                    cand = seq.with_ops(
                        seq.ops[:oi] + [new_op] + seq.ops[oi + 1 :]
                    )
                    if _try(fails, cand, budget):
                        seq = cand
                        changed = True
                    else:
                        ei += 1
                    if budget.spent >= budget.limit:
                        return seq
    return seq


def _header_shrink(seq, fails, budget) -> OpSequence:
    while seq.n0 > 2 and budget.spent < budget.limit:
        for smaller in (2, seq.n0 // 2, seq.n0 - 1):
            if smaller >= seq.n0:
                continue
            cand = seq.with_n0(smaller)
            if _try(fails, cand, budget):
                seq = cand
                break
        else:
            break
    return seq


def _zero_values(seq, fails, budget) -> OpSequence:
    def zeroed(op: list) -> list:
        out: List = [op[0]]
        for part in op[1:]:
            if isinstance(part, list):
                out.append(
                    [
                        [0 for _ in e] if isinstance(e, list) else 0
                        for e in part
                    ]
                )
            else:
                out.append(0)
        return out

    for oi in range(len(seq.ops)):
        z = zeroed(seq.ops[oi])
        if z == seq.ops[oi]:
            continue
        cand = seq.with_ops(seq.ops[:oi] + [z] + seq.ops[oi + 1 :])
        if budget.spent >= budget.limit:
            break
        if _try(fails, cand, budget):
            seq = cand
    return seq


def shrink(
    seq: OpSequence,
    fails: Callable[[OpSequence], bool],
    *,
    max_replays: int = 600,
) -> ShrinkResult:
    """Minimise ``seq`` under ``fails`` (which must hold for ``seq``)."""
    if not fails(seq):
        raise InvalidParameterError("shrink() requires a failing starting sequence")
    budget = _Budget(max_replays)
    original_size = seq.size
    prev_size = None
    while prev_size != seq.size and budget.spent < budget.limit:
        prev_size = seq.size
        seq = _chunk_removal(seq, fails, budget)
        seq = _payload_thinning(seq, fails, budget)
        seq = _header_shrink(seq, fails, budget)
    seq = _zero_values(seq, fails, budget)
    return ShrinkResult(
        sequence=seq, attempts=budget.spent, improved=seq.size < original_size
    )
