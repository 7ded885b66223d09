"""repro.lint — the repo's effects pass.

One pass (:mod:`repro.lint.effects`) extracts each function's effect
atoms and call sites, links them into a call graph and checks:

* **R001** every raise uses the :mod:`repro.errors` taxonomy;
* **R201** no module-level randomness anywhere, and no other
  nondeterminism along batch call paths;
* **R202** every mutating function a batch reaches saves its journal
  pre-image;
* **R204** transaction regions touch only restorable state, and no
  handler swallows the ``ReproError`` taxonomy.

Entry points and justified allowlists live in
:mod:`repro.lint.config`.  Backend parity and ``__all__`` hygiene are
run-time facts, checked by tier-1 tests
(``tests/test_backend_parity.py``, ``tests/test_errors_and_api.py``);
PRAM step discipline is checked at run time by
:mod:`repro.pram.sanitizer` (``tests/pram/test_sanitized_programs.py``).

Run ``python -m repro.lint [--json] [--no-cache]``; the repo-clean
self-check in ``tests/lint/test_repo_clean.py`` keeps ``src/repro`` at
zero findings.
"""

from __future__ import annotations

from .config import REPO_CONFIG, EffectEntry, LintConfig
from .effects import EFFECTS_SCHEMA, RULES, EffectsReport, Finding, run_effects

__all__ = [
    "EFFECTS_SCHEMA",
    "RULES",
    "EffectEntry",
    "EffectsReport",
    "Finding",
    "LintConfig",
    "REPO_CONFIG",
    "run_effects",
]
