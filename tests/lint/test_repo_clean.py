"""The effects pass's rule ids are stable.

The repo-clean check itself is
``tests/lint/test_effects.py::test_repo_is_effect_clean``.
"""

from __future__ import annotations

from repro.lint.effects import RULES


def test_default_rule_ids_are_stable():
    assert RULES == ("R001", "R201", "R202", "R204")
