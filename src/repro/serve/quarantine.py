"""Poisoned-batch quarantine: delta-debugging over an admitted batch.

When an *admitted* batch phase crashes mid-apply (the validators
passed, so the failure is a payload that detonates inside the
structure — e.g. a value whose arithmetic raises), the shard rolls the
phase back and hands it here.  :func:`quarantine_bisect` isolates the
minimal offending request set with the PR 2 shrinker discipline
(greedy binary ddmin) at request granularity: probe subsets of the
batch inside a transaction that is *always rolled back* — success or
failure, the probe leaves zero trace, RNG stream included — and
recurse into failing halves until every request is classified ``good``
(member of a subset that jointly passed a probe) or ``poisoned``.

Subset probing is semantically valid because batch positions are
*pre-batch* positions: any subsequence of an admitted batch is itself
an admissible batch against the same pre-phase state, and dropping a
request never changes what the others mean.

The probe budget (``max_probes``) bounds worst-case work at roughly
``O(p log n)`` probes for ``p`` poisoned requests; on exhaustion every
still-unresolved request is classified poisoned — the safe side: the
service may over-reject under budget pressure but never commits a
payload that has not passed a probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

from ..baselines.sequential_list import SequentialList, apply_phase
from ..errors import InvalidParameterError
from ..resilience.executor import apply_on_tree

__all__ = ["QuarantineResult", "detonate_values", "quarantine_bisect"]


def detonate_values(monoid: Any, verb: str, payload: Sequence[Any]) -> None:
    """Fold every value the phase would introduce once with the monoid
    identity, *before* anything mutates.

    The tree rungs detonate a poisoned payload on their own (summary
    maintenance combines it into an ancestor), but how early depends on
    the rung and the tree shape — and the sequential rung's plain list
    never folds at apply time at all.  Probing and committing through
    this one check makes poison detection identical on every rung: a
    value whose arithmetic raises is caught pre-mutation, always."""
    if verb == "delete":
        return
    for entry in payload:
        monoid.combine(monoid.identity, entry[1])


@dataclass(frozen=True)
class QuarantineResult:
    """Index partition of one batch phase (indices into the payload).

    Every index in ``good`` belonged to a subset that jointly passed a
    probe; every index in ``poisoned`` either failed a singleton probe
    or was still unresolved when the probe budget ran out
    (``exhausted=True``).
    """

    good: Tuple[int, ...]
    poisoned: Tuple[int, ...]
    probes: int
    exhausted: bool


class _Prober:
    """Budgeted subset prober over one session's current structure."""

    def __init__(self, session: Any, verb: str, payload: Sequence[Any],
                 max_probes: int) -> None:
        self.session = session
        self.verb = verb
        self.payload = list(payload)
        self.budget = max_probes
        self.probes = 0
        self.exhausted = False

    def probe(self, idxs: Sequence[int]) -> bool:
        """Apply the subset transactionally; report pass/fail.  The
        transaction is rolled back even on success so a probe is pure
        observation."""
        if self.budget <= 0:
            self.exhausted = True
            return False
        self.budget -= 1
        self.probes += 1
        subset = [self.payload[i] for i in idxs]
        session = self.session
        if session.rung == "sequential":
            copy = SequentialList(session.monoid, session.values())
            try:
                detonate_values(session.monoid, self.verb, subset)
                apply_phase(copy, self.verb, subset)
            except Exception:
                # Outcome-classification boundary: ANY escaping error
                # means this subset must not commit.
                return False
            return True
        st = session._structure
        tree = st.tree
        journal = tree._txn_begin()
        try:
            detonate_values(session.monoid, self.verb, subset)
            apply_on_tree(st, self.verb, subset)
            return True
        except Exception:
            # Outcome-classification boundary, as above.
            return False
        finally:
            tree._txn_rollback(journal)

    def isolate(
        self, idxs: Sequence[int], *, known_failing: bool = False
    ) -> Tuple[List[int], List[int]]:
        """ddmin recursion: partition ``idxs`` into (good, poisoned).
        The returned good set has jointly passed a probe (or is
        empty)."""
        if not idxs:
            return [], []
        if not known_failing:
            if self.exhausted:
                return [], list(idxs)
            if self.probe(idxs):
                return list(idxs), []
        if len(idxs) == 1 or self.exhausted:
            return [], list(idxs)
        mid = (len(idxs) + 1) // 2
        good_a, poison_a = self.isolate(idxs[:mid])
        good_b, poison_b = self.isolate(idxs[mid:])
        good = good_a + good_b
        poisoned = poison_a + poison_b
        # Each surviving half passed individually; the union can still
        # fail (interaction poison) — re-shrink the union until it
        # passes jointly or stops making progress.
        while good:
            if self.exhausted:
                poisoned += good
                good = []
                break
            if self.probe(good):
                break
            before = len(good)
            good2, poison2 = self.isolate(good, known_failing=True)
            poisoned += poison2
            good = good2
            if len(good) == before:
                # No progress: an interaction we cannot pin down —
                # quarantine the whole set rather than loop.
                poisoned += good
                good = []
                break
        return good, poisoned


def quarantine_bisect(
    session: Any,
    verb: str,
    payload: Sequence[Any],
    *,
    max_probes: int = 64,
) -> QuarantineResult:
    """Partition a crashed-but-admitted batch phase into committable
    and poisoned requests.

    ``payload`` is the phase's per-request argument list (``(pos,
    value)`` pairs for insert/set, positions for delete) in submission
    order; the result indexes into it.  The session's structure is
    left bit-for-bit untouched — every probe runs inside a transaction
    that is unconditionally rolled back.
    """
    if max_probes < 1:
        raise InvalidParameterError("max_probes must be >= 1")
    prober = _Prober(session, verb, payload, max_probes)
    good, poisoned = prober.isolate(
        list(range(len(payload))), known_failing=True
    )
    return QuarantineResult(
        good=tuple(sorted(good)),
        poisoned=tuple(sorted(poisoned)),
        probes=prober.probes,
        exhausted=prober.exhausted,
    )
