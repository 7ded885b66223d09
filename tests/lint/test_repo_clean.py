"""The repo-clean self-check: ``src/repro`` carries zero findings under
the full default rule set.

This is the tier-1 enforcement of every site rule at once — a new bare
raise, parity drift, unjournaled splice or missing ``__all__`` anywhere
in the library fails this test with the exact file:line finding in the
assertion message.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.config import REPO_CONFIG
from repro.lint.engine import run_lint
from repro.lint.rules import default_rules

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_repro_is_lint_clean():
    report = run_lint(
        REPO_ROOT, ["src/repro"], default_rules(REPO_CONFIG)
    )
    assert report.clean, "\n" + "\n".join(str(f) for f in report.findings)


def test_default_rule_ids_are_stable():
    ids = [rule.id for rule in default_rules(REPO_CONFIG)]
    assert ids == ["R001", "R003", "R004", "R005"]
