"""Rule registry: every static invariant the repo enforces.

``default_rules`` is the canonical ordering used by the CLI, the CI
gate and the repo-clean self-check; tests build narrower rule sets
against fixture configs.
"""

from __future__ import annotations

from typing import List

from ..config import LintConfig
from ..engine import Rule
from .exports import ExportHygieneRule
from .journal import JournalCoverageRule
from .parity import BackendParityRule
from .raises import BareRaiseRule

__all__ = [
    "BareRaiseRule",
    "BackendParityRule",
    "JournalCoverageRule",
    "ExportHygieneRule",
    "default_rules",
]


def default_rules(config: LintConfig) -> List[Rule]:
    return [
        BareRaiseRule(config),
        BackendParityRule(config),
        JournalCoverageRule(config),
        ExportHygieneRule(config),
    ]
