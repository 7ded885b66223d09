"""Alternating base/change pairs of one repository-benchmark workload.

Run from the repository root (or via ``make bench-pairs``):

    python3 benchmarks/pairs.py --base HEAD~1 --workload contract-labels \\
        --pairs 10 --seconds 30

Checks ``--base`` out into a temporary ``git worktree`` (removed again
on exit), then runs ``perfbench/run.py --trace 0`` alternately in that
worktree (base) and in this checkout's working tree (change).  The side
that runs first swaps every pair, so slow drift on the host lands on
both sides.  Each side runs its own ``perfbench/`` over its own
sources.  For every end-to-end metric of ``BENCHMARK.json`` it prints
both medians with their quartiles, the change/base ratio of the
medians, and how many pairs the change won in the metric's ``better``
direction.  A run that exits non-zero or reports ``"correct": false``
aborts the comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_side(checkout: str, workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """One untraced perfbench run in ``checkout``; metric name -> value."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"pairs: perfbench failed in {checkout} (exit {proc.returncode})\n"
            f"{proc.stderr}"
        )
    doc = json.loads(lines[-1])
    if doc.get("correct") is not True:
        raise SystemExit(f"pairs: perfbench reported incorrect results in {checkout}")
    return {name: m["value"] for name, m in doc["metrics"].items()}


def quartiles(xs: List[float]) -> str:
    if len(xs) < 2:
        return f"{xs[0]:.6g}"
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return f"{statistics.median(xs):.6g} [{q1:.6g}-{q3:.6g}]"


def report(
    spec: List[dict], base: List[Dict[str, float]], change: List[Dict[str, float]]
) -> None:
    n = len(base)
    print(f"{'metric':16s} {'base median [q1-q3]':32s} "
          f"{'change median [q1-q3]':32s} {'ratio':>7s}  wins")
    for m in spec:
        name, higher = m["name"], m["better"] == "higher"
        b = [r[name] for r in base]
        c = [r[name] for r in change]
        wins = sum((y > x) if higher else (y < x) for x, y in zip(b, c))
        mb = statistics.median(b)
        ratio = statistics.median(c) / mb if mb else float("nan")
        print(f"{name:16s} {quartiles(b):32s} {quartiles(c):32s} "
              f"{ratio:7.3f}  {wins}/{n}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["end_to_end"]
    tmp = tempfile.mkdtemp(prefix="bench-pairs-")
    tree = os.path.join(tmp, "base")
    subprocess.run(
        ["git", "worktree", "add", "--detach", tree, args.base],
        cwd=ROOT, check=True, capture_output=True,
    )
    base: List[Dict[str, float]] = []
    change: List[Dict[str, float]] = []
    try:
        for i in range(args.pairs):
            order = [(tree, base), (ROOT, change)]
            if i % 2:
                order.reverse()
            for checkout, out in order:
                out.append(run_side(checkout, args.workload, args.seed, args.seconds))
            print(f"pair {i + 1}/{args.pairs}: goodput_per_s base "
                  f"{base[-1]['goodput_per_s']:.5g} change "
                  f"{change[-1]['goodput_per_s']:.5g}", file=sys.stderr)
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", tree],
            cwd=ROOT, capture_output=True,
        )
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
    print(f"# {args.workload} seed={args.seed} base={args.base} "
          f"pairs={args.pairs} seconds={args.seconds:g}")
    report(spec, base, change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
