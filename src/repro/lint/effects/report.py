"""Driver + machine-readable report for the effects pass.

``run_effects(root, targets, config)`` is the whole pipeline: discover
files, extract (through the hash-keyed cache), link, propagate, check
R201-R204, and wrap the result in an :class:`EffectsReport` whose
``to_json`` emits the ``repro-effects/1`` document CI uploads as an
artifact.  The per-function section of the report is the analysis's
public byproduct: every function's local atoms, resolved out-edges and
seam flags, so a reviewer can answer "what can this batch entry
actually do?" without re-running anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..config import LintConfig
from ..engine import Finding, discover_files
from .cache import SummaryCache, cache_path
from .checks import EffectPolicy, run_checks
from .extract import ExtractionSpec, extract_module, file_sha256
from .graph import EffectGraph
from .model import ModuleSummary

__all__ = ["EFFECTS_SCHEMA", "EffectsReport", "run_effects"]

EFFECTS_SCHEMA = "repro-effects/1"


@dataclass
class EffectsReport:
    """Aggregated effects-run outcome (JSON-serialisable)."""

    root: str
    files: int
    findings: List[Finding] = field(default_factory=list)
    functions: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    entries: List[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return out

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": EFFECTS_SCHEMA,
            "root": self.root,
            "files": self.files,
            "entries": self.entries,
            "clean": self.clean,
            "counts": self.counts(),
            "findings": [f.to_json() for f in self.findings],
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "functions": self.functions,
        }


def _policy_from_config(config: LintConfig) -> EffectPolicy:
    return EffectPolicy(
        entries=[
            (e.path, e.class_name, e.method, e.rules)
            for e in config.effect_entries
        ],
        allowlist=config.effect_allowlist,
        columns=config.effect_columns,
        node_fields=config.effect_node_fields,
    )


def _function_record(
    graph: EffectGraph, fid: str
) -> Dict[str, Any]:
    fn = graph.functions[fid]
    return {
        "line": fn.lineno,
        "atoms": [a.to_json() for a in fn.atoms],
        "calls": sorted({callee for _ln, callee in graph.edges.get(fid, [])}),
        "opens_txn": fn.opens_txn,
        "journal_seam": fn.journal_seam,
    }


def run_effects(
    root: Path,
    targets: Sequence[str],
    config: LintConfig,
    *,
    use_cache: bool = True,
    cache_file: Optional[Path] = None,
) -> EffectsReport:
    """Run the full interprocedural pass over ``targets``."""
    spec = ExtractionSpec(
        columns=config.effect_columns,
        node_fields=config.effect_node_fields,
        seam_prefixes=config.effect_seam_paths,
    )
    files = discover_files(root, targets)
    cache: Optional[SummaryCache] = None
    if use_cache:
        cache = SummaryCache(
            cache_file if cache_file is not None else cache_path(root),
            spec.fingerprint(),
        )

    modules: Dict[str, ModuleSummary] = {}
    for path in files:
        relpath = path.relative_to(root).as_posix()
        source = path.read_text(encoding="utf-8")
        summary: Optional[ModuleSummary] = None
        if cache is not None:
            summary = cache.lookup(relpath, file_sha256(source))
        if summary is None:
            summary = extract_module(relpath, source, spec)
            if cache is not None:
                cache.store(summary)
        modules[relpath] = summary
    if cache is not None:
        cache.flush(modules)

    graph = EffectGraph(modules.values())
    policy = _policy_from_config(config)
    findings = run_checks(graph, modules, policy)

    report = EffectsReport(
        root=str(root),
        files=len(files),
        findings=findings,
        entries=[
            f"{e.path}::{e.class_name + '.' if e.class_name else ''}"
            f"{e.method}"
            for e in config.effect_entries
        ],
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else len(files),
    )
    for fid in sorted(graph.functions):
        report.functions[fid] = _function_record(graph, fid)
    return report
