"""The fuzz-driver budget guards (`--op-budget` / `--wall-timeout`):
a deliberately oversized program against a tiny budget must raise
`BudgetExceededError` — attributable, replayable, and never swallowed
by the executor's failure-capture nets."""

from __future__ import annotations

import pytest

from repro.errors import BudgetExceededError, ReproError
from repro.testing import generate, run_sequence
from repro.testing.fuzz import main

# Far more ops than any budget below: the program itself never
# finishes within budget (the "non-quiescing" subject).
BIG = generate("list", 0, 400)


def test_op_budget_raises_with_attribution():
    with pytest.raises(BudgetExceededError) as ei:
        run_sequence(BIG, backend="flat", op_budget=10)
    exc = ei.value
    assert exc.budget == "op-budget"
    assert exc.spent == 10
    assert f"seed {BIG.seed}" in str(exc), "the message must carry the replay seed"


def test_wall_timeout_raises_with_attribution():
    with pytest.raises(BudgetExceededError) as ei:
        run_sequence(BIG, backend="flat", wall_timeout=0.0)
    exc = ei.value
    assert exc.budget == "wall-timeout"
    assert exc.spent > 0.0
    assert f"seed {BIG.seed}" in str(exc)


def test_budget_error_taxonomy():
    # Dual inheritance: generic timeout handling AND `except ReproError`
    # both compose.
    assert issubclass(BudgetExceededError, TimeoutError)
    assert issubclass(BudgetExceededError, ReproError)


def test_budget_error_escapes_the_failure_capture_net():
    """run_sequence captures subject bugs as FailureInfo and keeps
    going; a budget exhaustion is a *harness* condition and must
    propagate instead of being recorded as a finding."""
    report = run_sequence(generate("list", 1, 30), backend="flat")
    assert report.ok  # baseline: the capture net exists
    with pytest.raises(BudgetExceededError):
        run_sequence(generate("list", 1, 30), backend="flat", op_budget=5)


def test_generous_budgets_are_invisible():
    seq = generate("list", 2, 40)
    bare = run_sequence(seq, backend="both")
    guarded = run_sequence(
        seq, backend="both", op_budget=10_000, wall_timeout=600.0
    )
    assert bare.ok and guarded.ok
    assert bare.ops_executed == guarded.ops_executed


def test_cli_exits_2_on_budget_exhaustion(capsys):
    rc = main(
        ["differential", "--seed", "0", "--ops", "400", "--backend", "flat",
         "--no-save", "--op-budget", "10"]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "budget" in err.lower()


def test_cli_unaffected_without_budget_flags():
    rc = main(
        ["differential", "--seed", "0", "--ops", "60", "--backend", "flat",
         "--no-save"]
    )
    assert rc == 0
