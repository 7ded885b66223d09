"""AST-based rule engine for the repo's static invariants.

The engine loads every target module once into a :class:`ModuleInfo`
(source lines + parsed ``ast`` tree), hands the whole
:class:`RepoContext` to each registered :class:`Rule`, and collects
:class:`Finding` records.  Machine-readable output mirrors the perf
harness / regression gate convention (``benchmarks/regress.py``): a
single JSON document with a ``schema`` tag, a flat ``findings`` array
and per-rule counts, so CI can diff lint runs the same way it diffs
bench runs.

Suppression: a finding is dropped when its source line (or the line
above it) carries ``# lint: ignore[<RULE-ID>]``.  Suppressions are
deliberate, grep-able escape hatches; repo policy is to prefer the
registered allowlists in :mod:`repro.lint.config` (which carry
justifications) over inline pragmas.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

__all__ = [
    "SCHEMA",
    "Finding",
    "ModuleInfo",
    "RepoContext",
    "Rule",
    "LintReport",
    "discover_files",
    "run_lint",
]

SCHEMA = "repro-lint/1"

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore\[([A-Z0-9,\s]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    level: str  # "error" | "warning"
    path: str  # repo-root-relative, forward slashes
    line: int
    col: int
    message: str

    def to_json(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "level": self.level,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.level}] {self.message}"
        )


class ModuleInfo:
    """One parsed target module."""

    def __init__(self, root: Path, path: Path) -> None:
        self.abspath = path
        self.relpath = path.relative_to(root).as_posix()
        self.source = path.read_text(encoding="utf-8")
        self.lines = self.source.splitlines()
        self.tree = ast.parse(self.source, filename=str(path))

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def suppressed(self, rule: str, lineno: int) -> bool:
        """True when ``# lint: ignore[RULE]`` covers ``lineno``."""
        for text in (self.line_text(lineno), self.line_text(lineno - 1)):
            m = _IGNORE_RE.search(text)
            if m and rule in {r.strip() for r in m.group(1).split(",")}:
                return True
        return False


class RepoContext:
    """Every module visible to the rules, keyed by repo-relative path."""

    def __init__(self, root: Path, modules: Sequence[ModuleInfo]) -> None:
        self.root = root
        self.modules: Dict[str, ModuleInfo] = {
            m.relpath: m for m in modules
        }

    def module(self, relpath: str) -> Optional[ModuleInfo]:
        return self.modules.get(relpath)

    def __iter__(self) -> Iterator[ModuleInfo]:
        return iter(self.modules.values())


class Rule:
    """Base class: subclasses set ``id``/``title``/``level`` and
    implement :meth:`check` over the whole repo context."""

    id: str = "R000"
    title: str = ""
    level: str = "error"

    def check(self, ctx: RepoContext) -> Iterable[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            level=self.level,
            path=module.relpath,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


@dataclass
class LintReport:
    """Aggregated run outcome (JSON-serialisable)."""

    root: str
    files: int
    rules: List[str]
    findings: List[Finding] = field(default_factory=list)

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
            "schema": SCHEMA,
            "root": self.root,
            "files": self.files,
            "rules": self.rules,
            "clean": self.clean,
            "counts": self.counts(),
            "findings": [f.to_json() for f in self.findings],
        }


def discover_files(root: Path, targets: Sequence[str]) -> List[Path]:
    """Expand ``targets`` (files or directories, relative to ``root``)
    into a sorted list of ``.py`` files."""
    seen: Dict[Path, None] = {}
    for target in targets:
        p = (root / target).resolve() if not Path(target).is_absolute() else Path(target)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                if "__pycache__" not in f.parts:
                    seen.setdefault(f.resolve())
        elif p.is_file():
            seen.setdefault(p.resolve())
        else:
            raise FileNotFoundError(f"lint target not found: {target}")
    return list(seen)


def run_lint(
    root: Path,
    targets: Sequence[str],
    rules: Sequence[Rule],
) -> LintReport:
    """Parse every target module and run every rule over the context."""
    files = discover_files(root, targets)
    modules = [ModuleInfo(root, f) for f in files]
    ctx = RepoContext(root, modules)
    report = LintReport(
        root=str(root),
        files=len(files),
        rules=[r.id for r in rules],
    )
    for rule in rules:
        for finding in rule.check(ctx):
            module = ctx.module(finding.path)
            if module is not None and module.suppressed(
                finding.rule, finding.line
            ):
                continue
            report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report
