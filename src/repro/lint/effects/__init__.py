"""Interprocedural effect & determinism analysis (rules R201, R202, R204).

Pipeline: :mod:`extract` turns each source file into a cacheable
:class:`~repro.lint.effects.model.ModuleSummary` of per-function effect
atoms and call descriptors; :mod:`graph` links them into a call graph
(inheritance-component ``self`` dispatch, duck-typed seams, callback
edges) and answers reachability and transaction-region queries;
:mod:`checks` runs the R2xx rules; :mod:`report` drives the whole pass
and emits the ``repro-effects/1`` document.  Entry points and
justified allowlists are registered in :mod:`repro.lint.config`, same
as every other rule's exemptions.
"""

from .model import (
    Atom,
    CallDesc,
    FunctionSummary,
    Handler,
    ModuleSummary,
)
from .extract import ExtractionSpec, extract_module, file_sha256
from .graph import EffectGraph
from .checks import EffectPolicy, run_checks
from .report import EFFECTS_SCHEMA, EffectsReport, run_effects

__all__ = [
    "Atom",
    "CallDesc",
    "FunctionSummary",
    "Handler",
    "ModuleSummary",
    "ExtractionSpec",
    "extract_module",
    "file_sha256",
    "EffectGraph",
    "EffectPolicy",
    "run_checks",
    "EFFECTS_SCHEMA",
    "EffectsReport",
    "run_effects",
]
