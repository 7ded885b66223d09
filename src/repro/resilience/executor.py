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
(the struct-of-arrays backend, the pointer-graph backend, and a
:class:`~repro.baselines.sequential_list.SequentialList` driven by the
same monoid — the sequential oracle).  Every rung refuses the same
requests with the same errors: the trees check inside the trees, and
the session runs the same checks before the sequential rung.  When
one rung exhausts its retries the session records a
:class:`DegradationEvent`, rebuilds the next rung's structure from the
last committed values, and re-runs the operation there.  Every batch
therefore *completes*, *completes degraded*, or fails with the
pre-batch state intact (:class:`~repro.errors.RetryExhaustedError`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..baselines.sequential_list import SequentialList
from ..errors import (
    BatchValidationError,
    CorruptionDetectedError,
    InvalidParameterError,
    MachineHangError,
    PositionError,
    RequestError,
    RetryExhaustedError,
    TreeStructureError,
    batch_validation_error,
)
from ..listprefix.structure import IncrementalListPrefix
from ..transactions import validate_batch_insert, validate_positions
from .faults import TREE_FAULT_KINDS, FaultPlan, corrupt_journaled_cell
from .scrub import repair, scrub

__all__ = [
    "BACKOFF_FACTOR",
    "DegradationEvent",
    "ResiliencePolicy",
    "ResilientExecutor",
    "ResilientListSession",
    "apply_on_tree",
]

#: Growth of the simulated retry backoff: attempt ``k`` adds
#: ``backoff_base_s * BACKOFF_FACTOR**k``.  Shared with the serve
#: window's deadline-driven retry budget (``Shard._retry_budget``).
BACKOFF_FACTOR = 2.0

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
    supervised runs stay deterministic and fast; it grows by
    :data:`BACKOFF_FACTOR` per attempt.  A structural or corruption
    failure is always followed by a scrub-and-repair before the retry.
    """

    max_retries: int = 2
    ladder: Tuple[str, ...] = ("flat", "reference", "sequential")
    backoff_base_s: float = 0.001
    detect: str = "deep"  # "deep" | "light"

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
                if tree is not None and isinstance(
                    exc, (TreeStructureError, CorruptionDetectedError)
                ):
                    # The heal's repair transaction nests *inside* the
                    # open checkpoint (snapshot stack) — the checkpoint
                    # observes the repair and a later rewind undoes it.
                    self._heal(tree, repair_seed)
                if attempt < policy.max_retries:
                    self.stats["retries"] += 1
                    self.stats["simulated_backoff_s"] += (
                        policy.backoff_base_s * BACKOFF_FACTOR**attempt
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
            return SequentialList(self.monoid, values)
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
        op: str,
        args: Tuple[Any, ...],
        on_tree: Callable[[Any], Any],
        on_list: Callable[[SequentialList], Any],
        *,
        mutating: bool,
    ) -> Any:
        op_index = self.op_count
        self.op_count += 1
        while True:
            if self.rung == "sequential":
                # The oracle rung: assumed fault-free (it is the thing
                # everything else is checked against).  A plain list
                # checks nothing, so the trees' checks run first.
                _admit_on_list(op, len(self._structure), args)
                return on_list(self._structure)
            event = None
            if self.plan is not None and mutating:
                event = self.plan.draw(op_index, kinds=TREE_FAULT_KINDS)
            tree = self._structure.tree
            rung_index = self.rung_index

            def thunk(attempt: int) -> Any:
                result = on_tree(self._structure)
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
                    label=f"{op}@{self.rung}",
                    repair_seed=op_index,
                )
            except RetryExhaustedError as exc:
                if self.rung_index + 1 < len(self.policy.ladder):
                    self._demote(op_index, exc)
                    continue
                raise

    # -- operations -----------------------------------------------------
    def insert(self, index: int, value: Any) -> None:
        self._run(
            "insert",
            (index,),
            lambda st: st.insert(index, value) and None,
            lambda s: s.insert(index, value),
            mutating=True,
        )

    def delete(self, index: int) -> Any:
        if len(self) == 1:
            # A tree refuses this with a TreeStructureError, which the
            # supervisor would retry and demote as a fault.  It is the
            # client's error, the batch rule for deleting every leaf.
            _admit_on_list("delete", 1, (index,))
        return self._run(
            "delete",
            (index,),
            lambda st: st.delete(st.handle_at(index)),
            lambda s: s.delete(index),
            mutating=True,
        )

    def batch_insert(self, pairs: Sequence[Tuple[int, Any]]) -> int:
        return self._run(
            "batch_insert",
            (pairs,),
            lambda st: apply_on_tree(st, "insert", pairs),
            lambda s: s.batch_insert(pairs),
            mutating=True,
        )

    def batch_delete(self, positions: Sequence[int]) -> int:
        return self._run(
            "batch_delete",
            (positions,),
            lambda st: apply_on_tree(st, "delete", positions),
            lambda s: s.batch_delete(positions),
            mutating=True,
        )

    def batch_set(self, pairs: Sequence[Tuple[int, Any]]) -> int:
        return self._run(
            "batch_set",
            (pairs,),
            lambda st: apply_on_tree(st, "set", pairs),
            lambda s: s.batch_set(pairs),
            mutating=True,
        )

    def prefix(self, index: int) -> Any:
        return self._run(
            "prefix",
            (index,),
            lambda st: st.prefix(st.handle_at(index)),
            lambda s: s.prefix(index),
            mutating=False,
        )

    def range_fold(self, i: int, j: int) -> Any:
        return self._run(
            "range_fold",
            (i, j),
            lambda st: st.range_fold(st.handle_at(i), st.handle_at(j)),
            lambda s: s.range_fold(i, j),
            mutating=False,
        )

    def total(self) -> Any:
        return self._run(
            "total", (), lambda st: st.total(), lambda s: s.total(),
            mutating=False,
        )


def apply_on_tree(st: Any, verb: str, payload: Sequence[Any]) -> int:
    """Apply one positional batch to a tree rung's
    :class:`IncrementalListPrefix`: ``"insert"`` ``(pos, value)`` pairs
    as they are, ``"delete"`` positions and ``"set"`` ``(pos, value)``
    pairs through ``handle_at``.  The session's supervised attempts and
    the quarantine prober both apply through here."""
    if verb == "insert":
        st.batch_insert(list(payload))
    elif verb == "delete":
        st.batch_delete([st.handle_at(p) for p in payload])
    else:
        st.batch_set([(st.handle_at(p), v) for p, v in payload])
    return len(payload)


def _leaf_position(index: Any, n: int) -> int:
    """The range check ``leaf_at`` makes on a tree rung.  A ``bool``
    passes it (``True`` is leaf 1 there), so the int is returned."""
    if not 0 <= index < n:
        raise PositionError(f"leaf index {index} out of range")
    return int(index)


def _refuse(verb: str, batch: Sequence[Any], rejections: Sequence[Any]) -> None:
    if rejections:
        raise batch_validation_error(rejections, len(batch), verb=verb)


def _admit_on_list(op: str, n: int, args: Tuple[Any, ...]) -> None:
    """Raise what a tree rung of ``n`` leaves raises for a request it
    refuses: ``leaf_at``'s range check for each position a tree
    translates to a handle, then the tree's batch validator (on the
    translated positions, so ``True`` and ``1`` name the same leaf)."""
    if op == "insert":
        if not 0 <= args[0] <= n:
            raise PositionError(f"insert position {args[0]} out of range")
    elif op == "batch_insert":
        _refuse("batch_insert", args[0], validate_batch_insert(n, args[0]))
    elif op in ("delete", "batch_delete"):
        at = [_leaf_position(p, n) for p in (args if op == "delete" else args[0])]
        _refuse(op, at, validate_positions("delete", n, at))
    elif op == "batch_set":
        for p, _value in args[0]:
            _leaf_position(p, n)
    elif op == "range_fold":
        if _leaf_position(args[0], n) > _leaf_position(args[1], n):
            raise RequestError("range_fold endpoints out of order")
    elif op == "prefix":
        _leaf_position(args[0], n)
