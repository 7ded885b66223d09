"""Seeded fault injection: determinism, firing semantics, and the
detectability of every machine/memory fault class on the supervised
PRAM workload."""

from __future__ import annotations

import pytest

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.errors import InvalidParameterError, MachineHangError
from repro.listprefix.structure import IncrementalListPrefix
from repro.resilience.faults import (
    MACHINE_FAULT_KINDS,
    MEMORY_FAULT_KINDS,
    TREE_FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultyMachine,
    corrupt_journaled_cell,
)
from repro.resilience.harness import pram_sum

DETAIL = {"pick": 0, "bit": 0, "at_step": 2, "at_commit": 1, "victim": 1, "nth": 1}


# ---------------------------------------------------------------------------
# FaultPlan determinism
# ---------------------------------------------------------------------------


def test_fault_plan_is_deterministic():
    a = FaultPlan(7, rate=0.5)
    b = FaultPlan(7, rate=0.5)
    draws_a = [a.draw(i) for i in range(64)]
    draws_b = [b.draw(i) for i in range(64)]
    assert draws_a == draws_b
    fired = [d for d in draws_a if d is not None]
    assert fired, "rate 0.5 over 64 ops must schedule at least one fault"
    # A different seed reshuffles the schedule.
    other = [FaultPlan(8, rate=0.5).draw(i) for i in range(64)]
    assert draws_a != other


def test_fault_plan_rate_zero_schedules_nothing():
    plan = FaultPlan(3, rate=0.0)
    assert all(plan.draw(i) is None for i in range(128))


def test_fault_plan_respects_kind_restriction():
    plan = FaultPlan(11, rate=1.0)
    for i in range(32):
        ev = plan.draw(i, kinds=TREE_FAULT_KINDS)
        assert ev is not None and ev.kind in TREE_FAULT_KINDS


# ---------------------------------------------------------------------------
# firing semantics
# ---------------------------------------------------------------------------


def test_transient_fires_on_first_attempt_of_first_rung_only():
    ev = FaultEvent("bit-flip", 0, "transient", dict(DETAIL))
    assert ev.should_fire(attempt=0, rung_index=0)
    assert not ev.should_fire(attempt=1, rung_index=0)
    assert not ev.should_fire(attempt=0, rung_index=1)


def test_sticky_fires_on_every_attempt_of_the_first_rung():
    ev = FaultEvent("bit-flip", 0, "sticky", dict(DETAIL))
    for attempt in range(4):
        assert ev.should_fire(attempt=attempt, rung_index=0)
    assert not ev.should_fire(attempt=0, rung_index=1)


# ---------------------------------------------------------------------------
# machine/memory faults are detectable on the psum workload
# ---------------------------------------------------------------------------


def test_pram_sum_fault_free_matches_builtin():
    for n in (0, 1, 2, 3, 7, 16, 33):
        values = [((i * 37) % 101) - 50 for i in range(n)]
        assert pram_sum(values) == sum(values)


@pytest.mark.parametrize("kind", sorted(MACHINE_FAULT_KINDS + MEMORY_FAULT_KINDS))
def test_every_machine_and_memory_fault_is_detectable(kind):
    """Each fault class either starves the reduction (MachineHangError)
    or corrupts the answer (caught by the supervisor's verifier) — it
    can never silently produce the *right* sum while corrupting state."""
    values = list(range(10))
    ev = FaultEvent(kind, 0, "sticky", dict(DETAIL))
    try:
        got = pram_sum(values, event=ev)
    except MachineHangError as exc:
        assert exc.live > 0 and exc.max_steps > 0
        return
    assert got != sum(values), f"{kind} fired but the sum came out right"


@pytest.mark.parametrize("kind", MEMORY_FAULT_KINDS)
def test_memory_faults_reject_the_sanitizer(kind):
    """The sanitizer and the memory faults each replace the machine's
    memory, so combining them would drop the faults silently."""
    ev = FaultEvent(kind, 0, "sticky", dict(DETAIL))
    with pytest.raises(InvalidParameterError, match=kind):
        FaultyMachine(events=[ev], sanitize=True)
    # machine faults compose with the sanitizer
    hang = FaultEvent("hang", 0, "sticky", dict(DETAIL))
    FaultyMachine(events=[hang], sanitize=True)


def test_hang_fault_raises_machine_hang_error():
    ev = FaultEvent("hang", 0, "sticky", dict(DETAIL))
    with pytest.raises(MachineHangError):
        pram_sum(list(range(8)), event=ev)
    # ... and subclasses TimeoutError so host-level handling composes.
    assert issubclass(MachineHangError, TimeoutError)


# ---------------------------------------------------------------------------
# in-batch tree corruption stays journal-covered
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["reference", "flat"])
@pytest.mark.parametrize("kind", sorted(TREE_FAULT_KINDS))
def test_corrupt_journaled_cell_is_removed_by_rollback(backend, kind):
    monoid = sum_monoid(INTEGER)
    lp = IncrementalListPrefix(monoid, range(32), seed=5, backend=backend)
    tree = lp.tree
    before_total = lp.total()
    outer = tree._txn_begin()
    lp.batch_set([(lp.handle_at(p), v) for p, v in [(0, 9), (13, -4), (31, 7)]])
    ev = FaultEvent(kind, 0, "sticky", dict(DETAIL))
    desc = corrupt_journaled_cell(tree, ev)
    assert desc is not None, "a fresh batch_set journal must offer a target"
    tree._txn_rollback(outer)
    tree.check_invariants()
    assert lp.total() == before_total
    assert lp.values() == list(range(32))


def test_corrupt_without_open_journal_fizzles():
    monoid = sum_monoid(INTEGER)
    lp = IncrementalListPrefix(monoid, range(8), seed=0, backend="flat")
    ev = FaultEvent("bit-flip", 0, "sticky", dict(DETAIL))
    assert corrupt_journaled_cell(lp.tree, ev) is None
    lp.tree.check_invariants()
