"""The repo-clean self-check: ``src/repro`` carries zero findings under
every rule of the effects pass.

A new bare raise anywhere in the library fails this test with the
exact file:line finding in the assertion message.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.config import REPO_CONFIG
from repro.lint.effects import RULES, run_effects

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_repro_is_lint_clean():
    report = run_effects(REPO_ROOT, ["src/repro"], REPO_CONFIG, use_cache=False)
    assert report.clean, "\n" + "\n".join(str(f) for f in report.findings)


def test_default_rule_ids_are_stable():
    assert RULES == ("R001", "R201", "R202", "R204")
