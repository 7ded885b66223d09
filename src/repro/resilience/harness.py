"""End-to-end recovery harness: programs race faults against recovery.

:func:`run_resilience_program` takes one seeded
:class:`~repro.testing.ops.OpSequence` (the ``"faulty"`` generator
profile), drives it through a :class:`~.executor.ResilientListSession`
under a :class:`~.faults.FaultPlan`, and interleaves a supervised PRAM
parallel-sum reduction on a :class:`~.faults.FaultyMachine` — so all
three fault families (machine, memory, tree) hit the same run.  It then
replays the *same* program fault-free (the oracle) and checks the
recovery contract of ISSUE 5: every operation either

(a) **completes** identically to the fault-free oracle — answers, final
    values and (when no rung was lost) the master-RNG stream;
(b) **completes degraded** — a recorded
    :class:`~.executor.DegradationEvent` with oracle-identical answers
    from the lower rung; or
(c) **aborts** with the pre-operation state restored bit-for-bit
    (checked against a snapshot taken immediately before the op).

Any other behaviour is a :class:`RecoveryViolation` in the report.

:data:`RECOVERY` is the ``recovery`` exercise of the fuzz driver
(``python -m repro.testing.fuzz recovery``): seed ``s`` runs a
``"faulty"``-profile program under :func:`plan_for_seed` and
:func:`policy_for_seed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..algebra.monoid import sum_monoid
from ..errors import CorruptionDetectedError, RetryExhaustedError
from ..pram.memory import WritePolicy
from ..pram.ops import Fork, Program, Read, Write
from ..testing.corpus import Exercise, Outcome, check_expect, entry, take
from ..testing.executor import initial_values
from ..testing.generator import generate
from ..testing.ops import FUZZ_RINGS, OpSequence, norm_value
from .executor import ResiliencePolicy, ResilientExecutor, ResilientListSession
from .faults import (
    MACHINE_FAULT_KINDS,
    MEMORY_FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultyMachine,
)

__all__ = [
    "RECOVERY",
    "RecoveryViolation",
    "ResilienceReport",
    "plan_for_seed",
    "policy_for_seed",
    "pram_sum",
    "run_resilience_program",
]

#: Every 5th operation (phase chosen by the seed) is followed by a
#: supervised PRAM parallel sum over the live values.
_PSUM_STRIDE = 5
#: Machine-fault plan indices live in a disjoint index space from the
#: tree-fault indices (which use the session op counter directly).
_PSUM_INDEX_BASE = 1_000_000
#: Fault kinds that can hit the PRAM sum.
_PSUM_KINDS = tuple(MACHINE_FAULT_KINDS) + tuple(MEMORY_FAULT_KINDS)


class RecoveryViolation(AssertionError):
    """The recovery contract was broken (harness-level check failure).

    Subclasses :class:`AssertionError` deliberately: a violation is a
    *finding* about the resilience layer, reported via
    :class:`ResilienceReport`, not an operational error."""


@dataclass
class ResilienceReport:
    """Outcome of one fault-injected run checked against its oracle."""

    seq: OpSequence
    outcome: str = "clean"  # "clean" | "degraded" | "aborted"
    ok: bool = True
    failure: Optional[str] = None
    answers: List[Tuple[int, str, Any]] = field(default_factory=list)
    final_values: List[Any] = field(default_factory=list)
    aborted_ops: List[int] = field(default_factory=list)
    degradations: List[str] = field(default_factory=list)
    faults: List[str] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        tag = "OK" if self.ok else f"FAIL ({self.failure})"
        return (
            f"{self.seq.describe()} -> {self.outcome} [{tag}] "
            f"faults={len(self.faults)} degradations={len(self.degradations)} "
            f"aborted={self.aborted_ops}"
        )


def policy_for_seed(seed: int) -> ResiliencePolicy:
    """The ladder configuration the fuzzer uses for ``seed``.  Most
    seeds get the full three-rung ladder; every fifth seed runs with a
    single rung and one retry so sticky faults exercise the abort path
    (outcome c) instead of always degrading."""
    if seed % 5 == 3:
        return ResiliencePolicy(max_retries=1, ladder=("flat",))
    return ResiliencePolicy()


def plan_for_seed(seed: int) -> FaultPlan:
    """The fault plan the fuzzer uses for ``seed``.  Every third seed
    draws only transient faults: recovery must then reconverge with the
    fault-free run *exactly* (outcome a, RNG parity included) even
    though faults did fire."""
    return FaultPlan(seed, rate=0.35, sticky_rate=0.0 if seed % 3 == 2 else 0.3)


# ---------------------------------------------------------------------------
# the PRAM workload: a polling tree-sum reduction
# ---------------------------------------------------------------------------


def _combine_worker(level: int, i: int, have_right: bool) -> Program:
    """Poll the two input cells of one reduction slot, then emit their
    sum one level up (pass the left value through when the slot has no
    right sibling)."""
    a = None
    while a is None:
        a = yield Read(("s", level - 1, 2 * i), None)
    if have_right:
        b = None
        while b is None:
            b = yield Read(("s", level - 1, 2 * i + 1), None)
        yield Write(("s", level, i), a + b)
    else:
        yield Write(("s", level, i), a)


def _coordinator(values: Sequence[int], widths: Sequence[int]) -> Program:
    """Seed level 0 with the inputs, then fork one worker per reduction
    slot.  The forks happen *after* ``begin_faults`` arms the machine,
    so they are candidates for ``lost-fork``."""
    for i, v in enumerate(values):
        yield Write(("s", 0, i), v)
    for level in range(1, len(widths)):
        below = widths[level - 1]
        for i in range(widths[level]):
            yield Fork(_combine_worker(level, i, 2 * i + 1 < below))


def _reduction_widths(n: int) -> List[int]:
    widths = [n]
    while widths[-1] > 1:
        widths.append((widths[-1] + 1) // 2)
    return widths


def pram_sum(
    values: Sequence[int],
    *,
    event: Optional[FaultEvent] = None,
    max_steps: Optional[int] = None,
) -> int:
    """Sum ``values`` with a PRAM tree reduction on a (possibly faulty)
    machine.  A killed/lost worker starves its parent's poll loop and
    the bounded run raises :class:`~repro.errors.MachineHangError`; a
    corrupted cell propagates into a wrong sum, caught by the caller's
    verifier.  Raises nothing on a fault-free machine."""
    values = [int(v) for v in values]
    if not values:
        return 0
    widths = _reduction_widths(len(values))
    machine = FaultyMachine(
        WritePolicy.ARBITRARY,
        seed=0,
        events=[event] if event is not None else (),
    )
    machine.spawn(_coordinator(values, widths))
    machine.begin_faults()
    budget = max_steps if max_steps is not None else 4 * len(values) + 64
    machine.run(max_steps=budget)
    return machine.memory.read(("s", len(widths) - 1, 0))


# ---------------------------------------------------------------------------
# the program runner
# ---------------------------------------------------------------------------


def _norm_positions(raw: Sequence[int], n: int, *, dedupe: bool) -> List[int]:
    out: List[int] = []
    seen = set()
    for p in raw:
        q = int(p) % n
        if dedupe:
            if q in seen:
                continue
            seen.add(q)
        out.append(q)
    return out


def _apply_op(
    session: ResilientListSession, seq: OpSequence, op: List[Any]
) -> List[Tuple[str, Any]]:
    """Apply one raw op with the exact normalisation semantics of
    :class:`repro.testing.executor._ListRunner`; returns the query
    answers it produced (empty for mutations)."""
    kind = op[0]
    n = len(session)
    nv = lambda raw: norm_value(seq.ring, raw)  # noqa: E731
    if kind == "ins":
        session.insert(int(op[1]) % (n + 1), nv(op[2]))
    elif kind == "del":
        if n >= 2:
            session.delete(int(op[1]) % n)
    elif kind == "bins":
        reqs = [(int(p) % (n + 1), nv(v)) for p, v in op[1]]
        if reqs:
            session.batch_insert(reqs)
    elif kind == "bdel":
        if n >= 2:
            idxs = _norm_positions(op[1], n, dedupe=True)[: n - 1]
            if idxs:
                session.batch_delete(idxs)
    elif kind == "bset":
        updates = [(int(p) % n, nv(v)) for p, v in op[1]]
        if updates:
            session.batch_set(updates)
    elif kind == "prefix":
        idxs = _norm_positions(op[1], n, dedupe=False)
        return [(f"prefix[{i}]", session.prefix(i)) for i in idxs]
    elif kind == "range":
        i, j = int(op[1]) % n, int(op[2]) % n
        if i > j:
            i, j = j, i
        return [(f"range[{i},{j}]", session.range_fold(i, j))]
    # "activate" (weight 0 in the faulty profile) is a no-op here: the
    # resilient session models the plain list semantics only.
    return []


def _psum_due(seq: OpSequence, op_index: int) -> bool:
    return op_index % _PSUM_STRIDE == seq.seed % _PSUM_STRIDE


def _run_supervised_psum(
    session: ResilientListSession,
    executor: ResilientExecutor,
    plan: Optional[FaultPlan],
    op_index: int,
    report: ResilienceReport,
) -> Any:
    """One supervised parallel sum over the session's live values.  A
    sticky machine fault that survives every retry degrades the sum to
    the sequential fold (recorded, oracle-identical by construction)."""
    values = session.values()
    expected = sum(int(v) for v in values)
    event = None
    if plan is not None:
        event = plan.draw(_PSUM_INDEX_BASE + op_index, kinds=_PSUM_KINDS)

    def thunk(attempt: int) -> int:
        fire = event is not None and event.should_fire(
            attempt=attempt, rung_index=0
        )
        if fire:
            executor.fault_descriptions.append(
                f"psum[{op_index}] armed {event.kind} ({event.persistence})"
            )
        return pram_sum(values, event=event if fire else None)

    def verify(result: int) -> None:
        if result != expected:
            raise CorruptionDetectedError(
                f"psum[{op_index}] = {result!r} != sequential {expected!r}",
                sites=(f"psum[{op_index}]",),
            )

    try:
        return executor.supervise(
            thunk, verify=verify, label=f"psum[{op_index}]"
        )
    except RetryExhaustedError as exc:
        report.degradations.append(
            f"psum[{op_index}]: pram -> sequential after "
            f"{exc.attempts} attempts ({exc.last_error})"
        )
        return expected


def run_resilience_program(
    seq: OpSequence,
    *,
    plan: Optional[FaultPlan] = None,
    policy: Optional[ResiliencePolicy] = None,
) -> ResilienceReport:
    """Run ``seq`` under fault injection, then against the fault-free
    oracle; classify the outcome and flag contract violations."""
    policy = policy if policy is not None else policy_for_seed(seq.seed)
    report = ResilienceReport(seq=seq)
    try:
        _run_one(seq, plan, policy, report)
    except RecoveryViolation as exc:
        report.ok = False
        report.failure = str(exc)
    except Exception as exc:  # unexpected escape = resilience bug
        report.ok = False
        report.failure = f"{type(exc).__name__}: {exc}"
    return report


def _run_one(
    seq: OpSequence,
    plan: Optional[FaultPlan],
    policy: ResiliencePolicy,
    report: ResilienceReport,
) -> None:
    monoid = sum_monoid(FUZZ_RINGS[seq.ring])
    executor = ResilientExecutor(policy)
    session = ResilientListSession(
        monoid,
        initial_values(seq),
        seed=seq.seed,
        policy=policy,
        plan=plan,
        executor=executor,
    )
    for op_index, op in enumerate(seq.ops):
        pre_values = session.values()
        pre_rng = session.rng_state()
        try:
            for label, answer in _apply_op(session, seq, op):
                report.answers.append((op_index, label, answer))
        except RetryExhaustedError:
            # Outcome (c): the op aborted.  The contract demands the
            # pre-operation state back bit-for-bit.
            report.aborted_ops.append(op_index)
            if session.values() != pre_values:
                raise RecoveryViolation(
                    f"op[{op_index}] abort did not restore values"
                )
            if session.rng_state() != pre_rng:
                raise RecoveryViolation(
                    f"op[{op_index}] abort did not restore the master RNG"
                )
            session.check_invariants()
        if _psum_due(seq, op_index):
            got = _run_supervised_psum(session, executor, plan, op_index, report)
            report.answers.append((op_index, "psum", got))
    report.final_values = session.values()
    report.faults = list(executor.fault_descriptions)
    report.degradations.extend(str(e) for e in executor.events)
    report.stats = dict(executor.stats)

    # -- the fault-free oracle -------------------------------------------
    oracle = _oracle_answers(seq, set(report.aborted_ops))
    if report.final_values != oracle["final_values"]:
        raise RecoveryViolation(
            f"final values diverge from the fault-free oracle: "
            f"{report.final_values!r} != {oracle['final_values']!r}"
        )
    if report.answers != oracle["answers"]:
        raise RecoveryViolation(
            _first_answer_divergence(report.answers, oracle["answers"])
        )
    if report.aborted_ops:
        report.outcome = "aborted"
    elif report.degradations:
        report.outcome = "degraded"
    else:
        report.outcome = "clean"
        # Outcome (a) includes RNG parity: the supervised run consumed
        # exactly the master-RNG stream of the unsupervised one.
        if session.rng_state() != oracle["rng_state"]:
            raise RecoveryViolation(
                "clean run diverged from the oracle's master-RNG stream"
            )


def _oracle_answers(seq: OpSequence, aborted: Set[int]) -> Dict[str, Any]:
    """Replay ``seq`` fault-free (skipping the ops the faulted run
    aborted — they mutated nothing there) and record what the answers
    *should* have been."""
    monoid = sum_monoid(FUZZ_RINGS[seq.ring])
    session = ResilientListSession(
        monoid, initial_values(seq), seed=seq.seed, policy=ResiliencePolicy()
    )
    answers: List[Tuple[int, str, Any]] = []
    for op_index, op in enumerate(seq.ops):
        if op_index not in aborted:
            for label, answer in _apply_op(session, seq, op):
                answers.append((op_index, label, answer))
        if _psum_due(seq, op_index):
            answers.append(
                (op_index, "psum", sum(int(v) for v in session.values()))
            )
    return {
        "final_values": session.values(),
        "answers": answers,
        "rng_state": session.rng_state(),
    }


def _first_answer_divergence(
    got: List[Tuple[int, str, Any]], want: List[Tuple[int, str, Any]]
) -> str:
    for g, w in zip(got, want):
        if g != w:
            return f"answer diverges from oracle: got {g!r}, want {w!r}"
    return (
        f"answer count diverges from oracle: got {len(got)}, "
        f"want {len(want)}"
    )


# ---------------------------------------------------------------------------
# the fuzz exercise
# ---------------------------------------------------------------------------


def _classify(report: ResilienceReport) -> Outcome:
    return Outcome(
        ok=report.ok,
        label=report.outcome,
        classes=frozenset([report.outcome] if report.ok else []),
        failure=report.failure,
        line=(
            f"{report.outcome:>8}  faults={len(report.faults)}  "
            f"degradations={len(report.degradations)}  "
            f"aborted={len(report.aborted_ops)}"
        ),
        detail=report,
    )


class _Recovery(Exercise):
    name = "recovery"
    coverage = ("clean", "degraded", "aborted")
    default_size = 60

    def run_seed(self, seed: int, size: int, **options: Any) -> Outcome:
        return _classify(
            run_resilience_program(
                generate("list", seed, size, profile="faulty"),
                plan=plan_for_seed(seed),
                policy=policy_for_seed(seed),
            )
        )

    def reproducer(
        self, seed: int, size: int, outcome: Outcome, **options: Any
    ) -> Dict[str, Any]:
        policy = policy_for_seed(seed)
        inp: Dict[str, Any] = {
            "program": generate("list", seed, size, profile="faulty").to_json(),
            "plan": plan_for_seed(seed).describe(),
            "policy": {
                "max_retries": policy.max_retries,
                "ladder": list(policy.ladder),
                "detect": policy.detect,
            },
        }
        return entry(
            self.name, inp, {"outcome": outcome.label}, outcome.failure or ""
        )

    def replay_entry(self, data: Mapping[str, Any]) -> Outcome:
        inp = take(data["input"], ("program", "plan", "policy"), "input")
        plan = take(
            inp["plan"], ("seed", "rate", "persistence", "sticky_rate"), "plan"
        )
        policy = take(inp["policy"], ("max_retries", "ladder", "detect"), "policy")
        report = run_resilience_program(
            OpSequence.from_json(inp["program"]),
            plan=FaultPlan(
                int(plan["seed"]),
                rate=float(plan["rate"]),
                persistence=plan["persistence"],
                sticky_rate=float(plan["sticky_rate"]),
            ),
            policy=ResiliencePolicy(
                max_retries=int(policy["max_retries"]),
                ladder=tuple(policy["ladder"]),
                detect=policy["detect"],
            ),
        )
        if report.ok:
            check_expect(
                data["expect"],
                {
                    "outcome": report.outcome,
                    "min_faults": len(report.faults),
                    "fault_substring": report.faults,
                },
                match={
                    "fault_substring": lambda want, got: any(
                        want in f for f in got
                    )
                },
            )
        return _classify(report)


RECOVERY = _Recovery()
