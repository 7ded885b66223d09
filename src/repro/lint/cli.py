"""Command line entry point: ``python -m repro.lint [--json] [targets]``.

Exit codes mirror ``benchmarks/regress.py``:

* ``0`` — clean (no findings);
* ``1`` — findings reported;
* ``2`` — usage / target errors.

With no targets the default set is ``src/repro`` relative to the repo
root (located by walking up from this file to the directory holding
``src``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .config import REPO_CONFIG
from .effects import RULES, run_effects

__all__ = ["main", "repo_root"]


def repo_root() -> Path:
    """The repository root: the nearest ancestor of this file that
    contains a ``src`` directory."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "src").is_dir():
            return parent
    return Path.cwd()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "The effects pass: error-taxonomy raises (R001), "
            "determinism along batch call paths (R201), journal "
            "pre-images (R202) and transaction discipline (R204)."
        ),
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable repro-effects/1 report on stdout",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="repository root (default: auto-detected)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the summary cache",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    root = Path(args.root).resolve() if args.root else repo_root()
    try:
        report = run_effects(
            root,
            list(args.targets) or ["src/repro"],
            REPO_CONFIG,
            use_cache=not args.no_cache,
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"error: cannot parse target: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding)
        summary = (
            ", ".join(
                f"{rule}={n}" for rule, n in sorted(report.counts().items())
            )
            or "none"
        )
        status = "clean" if report.clean else "FINDINGS"
        print(
            f"repro.lint: {report.files} files, "
            f"{len(report.functions)} functions, rules {'/'.join(RULES)}, "
            f"cache {report.cache_hits} hit/{report.cache_misses} miss "
            f"-> {status} ({summary})"
        )
    return 0 if report.clean else 1
