"""The end-to-end recovery property (ISSUE acceptance): under seeded
fault injection every program run classifies as

  (a) clean     — oracle-identical answers AND master-RNG parity,
  (b) degraded  — recorded ladder demotion, oracle-identical answers,
  (c) aborted   — pre-op state restored bit-for-bit, skipped by the
                   oracle,

with at least one witness of each class across the seed range."""

from __future__ import annotations

import pytest

from repro.resilience.harness import (
    RECOVERY,
    policy_for_seed,
    run_resilience_program,
)
from repro.testing.generator import generate

SEEDS = range(60)
OPS = 40


@pytest.fixture(scope="module")
def reports():
    return {seed: RECOVERY.run_seed(seed, OPS).detail for seed in SEEDS}


def test_every_seed_honours_the_recovery_contract(reports):
    bad = {s: r.failure for s, r in reports.items() if not r.ok}
    assert not bad, f"recovery contract violated: {bad}"


def test_all_three_outcome_classes_are_witnessed(reports):
    outcomes = {r.outcome for r in reports.values()}
    assert outcomes == {"clean", "degraded", "aborted"}


def test_clean_runs_include_fault_firing_witnesses(reports):
    """Outcome (a) must not be vacuous: at least one clean run had
    faults actually fire (transient, recovered with RNG parity)."""
    assert any(
        r.outcome == "clean" and r.faults for r in reports.values()
    ), "no clean run with fired faults — outcome (a) untested"


def test_aborted_runs_record_the_aborted_ops(reports):
    aborted = [r for r in reports.values() if r.outcome == "aborted"]
    assert aborted
    for r in aborted:
        assert r.aborted_ops, "aborted outcome without recorded op indices"


def test_degraded_runs_record_degradation_events(reports):
    degraded = [r for r in reports.values() if r.outcome == "degraded"]
    assert degraded
    for r in degraded:
        assert r.degradations


def test_reports_are_replayable(reports):
    """Same (seed, plan, policy) => identical outcome and answers —
    the fuzzer's failure artifacts are genuine reproducers."""
    seed = next(s for s, r in reports.items() if r.outcome == "degraded")
    again = RECOVERY.run_seed(seed, OPS).detail
    first = reports[seed]
    assert again.outcome == first.outcome
    assert again.answers == first.answers
    assert again.final_values == first.final_values
    assert again.faults == first.faults


def test_fault_free_plan_is_always_clean():
    seq = generate("list", 12345, OPS, profile="faulty")
    report = run_resilience_program(
        seq, plan=None, policy=policy_for_seed(12345)
    )
    assert report.ok and report.outcome == "clean" and not report.faults


def test_recovery_check_is_independent_of_the_session(monkeypatch):
    """The oracle must not share the layer it checks: a session whose
    ``batch_set`` writes ``value + 1`` on every rung fails every
    fault-free program that sets a value."""
    from repro.resilience.executor import ResilientListSession

    batch_set = ResilientListSession.batch_set
    monkeypatch.setattr(
        ResilientListSession,
        "batch_set",
        lambda self, pairs: batch_set(self, [(p, v + 1) for p, v in pairs]),
    )
    programs = [generate("list", seed, OPS, profile="faulty") for seed in range(10)]
    setting = [s for s in programs if any(op[0] == "bset" for op in s.ops)]
    assert setting
    for seq in setting:
        report = run_resilience_program(seq, plan=None)
        assert not report.ok and "oracle" in report.failure, report.describe()
