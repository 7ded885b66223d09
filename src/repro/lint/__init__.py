"""repro.lint — invariant-enforcing static analysis for this repo.

An AST rule engine (:mod:`repro.lint.engine`) plus the repo's
registered invariants (:mod:`repro.lint.config`):

* **R001** every raise uses the :mod:`repro.errors` taxonomy;
* **R003** the flat backend stays a drop-in twin of the reference;
* **R005** modules declare their export surface via ``__all__``.

The interprocedural pass (:mod:`repro.lint.effects`, rules R201, R202,
R204) reports module-level randomness in any function and the rest of
nondeterminism along batch call paths, and asks every mutating
function a batch reaches for its journal pre-image.  PRAM step
discipline is checked at run time by :mod:`repro.pram.sanitizer`, over
sanitized runs of the shipped step programs
(``tests/pram/test_sanitized_programs.py``).

Run ``python -m repro.lint [--effects] [--json]``; the repo-clean
self-check in ``tests/lint/test_repo_clean.py`` keeps ``src/repro`` at
zero findings.
"""

from __future__ import annotations

from .config import LintConfig, ParityPair, REPO_CONFIG
from .engine import (
    SCHEMA,
    Finding,
    LintReport,
    ModuleInfo,
    RepoContext,
    Rule,
    run_lint,
)
from .rules import default_rules

__all__ = [
    "SCHEMA",
    "Finding",
    "LintReport",
    "ModuleInfo",
    "RepoContext",
    "Rule",
    "run_lint",
    "LintConfig",
    "ParityPair",
    "REPO_CONFIG",
    "default_rules",
]
