"""Supervised, checkpointed, degradable execution (PR 5 tentpole).

:class:`ResilientExecutor` is the generic supervision loop: run a
thunk under a batch-granular checkpoint (the transaction journals of
PR 3, opened *outside* the batch so the inner ``execute_batch`` call
flattens into it), detect failures (invariant audits, scrub findings,
:class:`~repro.errors.MachineHangError` hang detection, caller-supplied
verifiers), roll back, scrub-and-repair at-rest damage, and retry a
bounded number of times with deterministic simulated exponential
backoff.  On success the state transition is indistinguishable from an
unsupervised run — same cells, same RNG stream — because the checkpoint
journal is pure pre-image bookkeeping.

:class:`ResilientListSession` stacks the degradation ladder on top for
the incremental-list workload: rungs ``flat → reference → sequential``
(the struct-of-arrays backend, the pointer-graph backend, and a plain
Python list driven by the same monoid — the sequential oracle).  When
one rung exhausts its retries the session records a
:class:`DegradationEvent`, rebuilds the next rung's structure from the
last committed values, and re-runs the operation there.  Every batch
therefore *completes*, *completes degraded*, or fails with the
pre-batch state intact (:class:`~repro.errors.RetryExhaustedError`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    BatchValidationError,
    CorruptionDetectedError,
    InvalidParameterError,
    MachineHangError,
    RetryExhaustedError,
    TreeStructureError,
)
from ..listprefix.structure import IncrementalListPrefix
from .faults import TREE_FAULT_KINDS, FaultPlan, corrupt_journaled_cell
from .scrub import repair, scrub

__all__ = [
    "DegradationEvent",
    "ResiliencePolicy",
    "ResilientExecutor",
    "ResilientListSession",
]

#: Exception types the supervisor treats as recoverable faults.
RECOVERABLE = (
    CorruptionDetectedError,
    MachineHangError,
    TreeStructureError,
    AssertionError,
)


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs for the supervision loop and the degradation ladder.

    ``detect="deep"`` audits ``check_invariants`` after every batch —
    on the flat family only the batch's dirty region, O(|region| ·
    depth), with a full O(n) walk when the pre-state was never audited
    or the shortcut threshold moved; ``"light"`` skips that audit and
    trusts the caller's verifier and the backends' own checks.
    Backoff is *simulated* (accumulated in stats, never slept) so
    supervised runs stay deterministic and fast.
    """

    max_retries: int = 2
    ladder: Tuple[str, ...] = ("flat", "reference", "sequential")
    backoff_base_s: float = 0.001
    backoff_factor: float = 2.0
    detect: str = "deep"  # "deep" | "light"
    scrub_on_failure: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise InvalidParameterError("max_retries must be >= 0")
        if not self.ladder:
            raise InvalidParameterError("resilience ladder must have >= 1 rung")
        for rung in self.ladder:
            if rung not in ("flat", "reference", "sequential"):
                raise InvalidParameterError(f"unknown ladder rung {rung!r}")
        if self.detect not in ("deep", "light"):
            raise InvalidParameterError(f"unknown detect mode {self.detect!r}")


@dataclass(frozen=True)
class DegradationEvent:
    """One recorded fall down the ladder."""

    op_index: int
    from_rung: str
    to_rung: str
    attempts: int
    reason: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"op[{self.op_index}]: {self.from_rung} -> {self.to_rung} "
            f"after {self.attempts} attempts ({self.reason})"
        )


def _new_stats() -> Dict[str, Any]:
    return {
        "attempts": 0,
        "retries": 0,
        "checkpoints": 0,
        "rollbacks": 0,
        "hangs": 0,
        "scrubs": 0,
        "repairs": 0,
        "repaired_sites": 0,
        "rebuilt_leaves": 0,
        "simulated_backoff_s": 0.0,
    }


class ResilientExecutor:
    """Bounded-retry supervisor with checkpointed rollback and
    scrub-and-repair.  One instance may supervise many operations; its
    ``stats`` dict accumulates across them and ``events`` records
    ladder demotions (appended by :class:`ResilientListSession`)."""

    def __init__(self, policy: Optional[ResiliencePolicy] = None) -> None:
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.stats: Dict[str, Any] = _new_stats()
        self.events: List[DegradationEvent] = []
        self.fault_descriptions: List[str] = []

    # -- core loop ------------------------------------------------------
    def supervise(
        self,
        thunk: Callable[[int], Any],
        *,
        tree: Any = None,
        verify: Optional[Callable[[Any], None]] = None,
        label: str = "",
        repair_seed: int = 0,
    ) -> Any:
        """Run ``thunk(attempt)`` under checkpointed bounded retry.

        Success path: take ONE snapshot per supervised call (when
        ``tree`` is given), run the thunk, run the verifier and (in
        ``deep`` mode) the tree's invariant audit over the region the
        snapshot saw written (``check_invariants(since=snapshot)``),
        commit, return.
        Recoverable failure path: *rewind* the snapshot without
        detaching it (``snapshot.restore`` — the unified snapshot layer
        keeps its copy-on-write pre-images valid across the rewind, so
        the same snapshot covers every bounded retry instead of
        re-journaling the whole batch per attempt), optionally
        scrub-and-repair at-rest damage the rewind could not remove,
        charge simulated backoff, retry.
        :class:`~repro.errors.BatchValidationError` is a client error,
        not a fault — the snapshot is discarded (state already honours
        the rejection contract) and it propagates immediately.
        Exhausted retries raise
        :class:`~repro.errors.RetryExhaustedError` with the pre-batch
        state intact.
        """
        policy = self.policy
        last: Optional[BaseException] = None
        journal = tree._txn_begin() if tree is not None else None
        if journal is not None:
            self.stats["checkpoints"] += 1
        for attempt in range(policy.max_retries + 1):
            self.stats["attempts"] += 1
            try:
                result = thunk(attempt)
                if verify is not None:
                    verify(result)
                if tree is not None and policy.detect == "deep":
                    # The flat family audits only the region the
                    # snapshot saw written (full walk as fallback).
                    tree.check_invariants(since=journal)
                if journal is not None:
                    tree._txn_commit(journal)
                return result
            except BatchValidationError:
                if journal is not None:
                    tree._txn_commit(journal)
                raise
            except RECOVERABLE as exc:
                last = exc
                if journal is not None:
                    # Rewind to the call's snapshot but keep it armed:
                    # pre-images survive the restore, so the next
                    # attempt reuses the same checkpoint.
                    journal.restore(tree)
                    self.stats["rollbacks"] += 1
                if isinstance(exc, MachineHangError):
                    self.stats["hangs"] += 1
                if (
                    policy.scrub_on_failure
                    and tree is not None
                    and isinstance(exc, (TreeStructureError, CorruptionDetectedError))
                ):
                    # The heal's repair transaction nests *inside* the
                    # open checkpoint (snapshot stack) — the checkpoint
                    # observes the repair and a later rewind undoes it.
                    self._heal(tree, repair_seed)
                if attempt < policy.max_retries:
                    self.stats["retries"] += 1
                    self.stats["simulated_backoff_s"] += (
                        policy.backoff_base_s * policy.backoff_factor**attempt
                    )
            except BaseException:
                # Non-recoverable (client errors, injected crashes):
                # restore the pre-batch state, then propagate untouched.
                if journal is not None:
                    tree._txn_rollback(journal)
                    self.stats["rollbacks"] += 1
                raise
        # Exhausted: the last recoverable handler already rewound; close
        # the checkpoint with a final rollback so the pre-call state is
        # bit-for-bit restored even if a post-rewind heal mutated.
        if journal is not None:
            tree._txn_rollback(journal)
        raise RetryExhaustedError(
            f"{label or 'operation'} failed after "
            f"{policy.max_retries + 1} attempts: {last}",
            attempts=policy.max_retries + 1,
            last_error=last,
        )

    def _heal(self, tree: Any, repair_seed: int) -> None:
        """Scrub the committed state; repair what the scan finds.  A
        repair failure is swallowed here — the retry (or the ladder)
        deals with state that cannot be healed in place."""
        self.stats["scrubs"] += 1
        try:
            report = scrub(tree)
            if report.clean:
                return
            rep = repair(tree, report, repair_seed=repair_seed)
            self.stats["repairs"] += 1
            self.stats["repaired_sites"] += rep.sites
            self.stats["rebuilt_leaves"] += rep.rebuilt_leaves
        except Exception:
            return


# ---------------------------------------------------------------------------
# the degradation ladder for the incremental-list workload
# ---------------------------------------------------------------------------


class _SequentialList:
    """The bottom rung: a plain Python list driven by the same monoid.
    Matches the answer semantics of :class:`IncrementalListPrefix`
    exactly (folds associate left-to-right)."""

    def __init__(self, monoid: Any, values: Sequence[Any]) -> None:
        self.monoid = monoid
        self.items: List[Any] = list(values)

    def values(self) -> List[Any]:
        return list(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def total(self) -> Any:
        acc = self.monoid.identity
        for v in self.items:
            acc = self.monoid.combine(acc, v)
        return acc

    def prefix(self, index: int) -> Any:
        acc = self.monoid.identity
        for v in self.items[: index + 1]:
            acc = self.monoid.combine(acc, v)
        return acc

    def range_fold(self, i: int, j: int) -> Any:
        acc = self.monoid.identity
        for v in self.items[i : j + 1]:
            acc = self.monoid.combine(acc, v)
        return acc


class ResilientListSession:
    """Position-based incremental-list API with a degradation ladder.

    All operations take *positions* (not handles) so they are
    meaningful on every rung.  Faults from ``plan`` are injected only
    on the top rung (index 0) and only into mutating operations, and
    only ever into journal-covered cells — so a checkpoint rollback
    removes them and a clean retry reconverges with the fault-free run
    (RNG stream included).
    """

    def __init__(
        self,
        monoid: Any,
        values: Sequence[Any],
        *,
        seed: int = 0,
        policy: Optional[ResiliencePolicy] = None,
        plan: Optional[FaultPlan] = None,
        executor: Optional[ResilientExecutor] = None,
    ) -> None:
        self.monoid = monoid
        self.seed = seed
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.plan = plan
        self.executor = (
            executor if executor is not None else ResilientExecutor(self.policy)
        )
        self.rung_index = 0
        self.op_count = 0
        self._structure: Any = self._build(self.policy.ladder[0], values)

    # -- introspection --------------------------------------------------
    @property
    def rung(self) -> str:
        return self.policy.ladder[self.rung_index]

    @property
    def events(self) -> List[DegradationEvent]:
        return self.executor.events

    @property
    def stats(self) -> Dict[str, Any]:
        return self.executor.stats

    def values(self) -> List[Any]:
        return self._structure.values()

    def __len__(self) -> int:
        return len(self._structure)

    def rng_state(self) -> Any:
        """Master-RNG snapshot, or ``None`` on the sequential rung
        (which draws no randomness)."""
        if self.rung == "sequential":
            return None
        return self._structure.rng_state()

    def check_invariants(self) -> None:
        if self.rung != "sequential":
            self._structure.check_invariants()

    def heal(self, *, repair_seed: int = 0) -> None:
        """Scrub-and-repair the current structure in place (no-op on
        the sequential rung)."""
        if self.rung != "sequential":
            repair(self._structure.tree, repair_seed=repair_seed)

    # -- construction ---------------------------------------------------
    def _build(self, rung: str, values: Sequence[Any]) -> Any:
        if rung == "sequential":
            return _SequentialList(self.monoid, values)
        return IncrementalListPrefix(
            self.monoid, values, seed=self.seed, backend=rung
        )

    def _demote(self, op_index: int, exc: RetryExhaustedError) -> None:
        committed = self._structure.values()
        from_rung = self.rung
        self.rung_index += 1
        to_rung = self.rung
        self._structure = self._build(to_rung, committed)
        self.executor.events.append(
            DegradationEvent(
                op_index, from_rung, to_rung, exc.attempts, str(exc.last_error)
            )
        )

    # -- the supervised dispatch ---------------------------------------
    def _run(
        self,
        label: str,
        apply_tree: Callable[[Any], Any],
        apply_seq: Callable[[_SequentialList], Any],
        *,
        mutating: bool,
    ) -> Any:
        op_index = self.op_count
        self.op_count += 1
        while True:
            if self.rung == "sequential":
                # The oracle rung: assumed fault-free (it is the thing
                # everything else is checked against).
                return apply_seq(self._structure)
            event = None
            if self.plan is not None and mutating:
                event = self.plan.draw(op_index, kinds=TREE_FAULT_KINDS)
            tree = self._structure.tree
            rung_index = self.rung_index

            def thunk(attempt: int) -> Any:
                result = apply_tree(self._structure)
                if event is not None and event.should_fire(
                    attempt=attempt, rung_index=rung_index
                ):
                    desc = corrupt_journaled_cell(tree, event)
                    if desc is not None:
                        self.executor.fault_descriptions.append(
                            f"op[{op_index}] {desc}"
                        )
                return result

            try:
                return self.executor.supervise(
                    thunk,
                    tree=tree,
                    label=f"{label}@{self.rung}",
                    repair_seed=op_index,
                )
            except RetryExhaustedError as exc:
                if self.rung_index + 1 < len(self.policy.ladder):
                    self._demote(op_index, exc)
                    continue
                raise

    # -- operations -----------------------------------------------------
    def insert(self, index: int, value: Any) -> None:
        def seq(s: _SequentialList) -> None:
            s.items.insert(index, value)

        self._run(
            "insert",
            lambda st: st.insert(index, value) and None,
            seq,
            mutating=True,
        )

    def delete(self, index: int) -> Any:
        def seq(s: _SequentialList) -> Any:
            return s.items.pop(index)

        return self._run(
            "delete",
            lambda st: st.delete(st.handle_at(index)),
            seq,
            mutating=True,
        )

    def batch_insert(self, pairs: Sequence[Tuple[int, Any]]) -> int:
        def seq(s: _SequentialList) -> int:
            # Pre-batch indices; equal indices land in request order,
            # ahead of the original occupant (matches both backends).
            n = len(s.items)
            by_pos: Dict[int, List[Any]] = {}
            for pos, value in pairs:
                by_pos.setdefault(pos, []).append(value)
            out: List[Any] = []
            for pos in range(n + 1):
                out.extend(by_pos.get(pos, ()))
                if pos < n:
                    out.append(s.items[pos])
            s.items = out
            return len(pairs)

        def tree_apply(st: Any) -> int:
            st.batch_insert(list(pairs))
            return len(pairs)

        return self._run("batch_insert", tree_apply, seq, mutating=True)

    def batch_delete(self, positions: Sequence[int]) -> int:
        def seq(s: _SequentialList) -> int:
            for pos in sorted(positions, reverse=True):
                s.items.pop(pos)
            return len(positions)

        def tree_apply(st: Any) -> int:
            st.batch_delete([st.handle_at(p) for p in positions])
            return len(positions)

        return self._run("batch_delete", tree_apply, seq, mutating=True)

    def batch_set(self, pairs: Sequence[Tuple[int, Any]]) -> int:
        def seq(s: _SequentialList) -> int:
            for pos, value in pairs:
                s.items[pos] = value
            return len(pairs)

        def tree_apply(st: Any) -> int:
            st.batch_set([(st.handle_at(p), v) for p, v in pairs])
            return len(pairs)

        return self._run("batch_set", tree_apply, seq, mutating=True)

    def prefix(self, index: int) -> Any:
        return self._run(
            "prefix",
            lambda st: st.prefix(st.handle_at(index)),
            lambda s: s.prefix(index),
            mutating=False,
        )

    def range_fold(self, i: int, j: int) -> Any:
        return self._run(
            "range_fold",
            lambda st: st.range_fold(st.handle_at(i), st.handle_at(j)),
            lambda s: s.range_fold(i, j),
            mutating=False,
        )

    def total(self) -> Any:
        return self._run(
            "total", lambda st: st.total(), lambda s: s.total(), mutating=False
        )
