"""Perf-regression gate: replay the harness grid against a baseline.

Loads a baseline report (``perf_harness.DEFAULT_OUT``, the
``BENCH_PR7.json`` at the repo root, by default), re-runs the identical
seeded cell grid, and fails when:

* any cell's wall-clock exceeds the baseline by more than
  ``--threshold`` (default 25%) — tiny cells get an absolute slack
  floor so scheduler noise can't flake the gate; or
* any cell's *simulated* costs differ from the baseline at all.  The
  simulated numbers are exact deterministic functions of the seeds, so
  any drift means the algorithm changed, not the machine; or
* a gate cell's flat-over-reference speedup (computed on the *current*
  run, so it is machine-independent) falls below its
  ``MIN_SPEEDUPS`` floor.  The speedup judged is the median over the
  cell's ``perf_harness.GATE_REPEATS`` alternating reference/flat
  repeats, each repeat's ratio printed.

``--cells gate`` re-runs only the speedup-gated cells (E4/E5/E6 full
sizes) — the quick CI mode behind ``make bench-regress``.  The
baseline is filtered to the same subset before comparison.

Exit codes: 0 ok, 1 regression detected, 2 baseline missing/unreadable,
3 baseline readable but structurally invalid (no ``cells`` array, or a
cell lacking the required keys) — a distinct code so CI can tell "stale
machine" (2) apart from "corrupt/truncated baseline artifact" (3).

Run:  PYTHONPATH=src python benchmarks/regress.py [--baseline PATH]
          [--threshold 0.25] [--quick] [--cells all|gate]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perf_harness  # noqa: E402  (sibling module, scripts run file-direct)

# Cells faster than this in the baseline are judged against an absolute
# slack instead of the relative threshold (they are noise-dominated).
ABS_SLACK_S = 0.010

# Flat-over-reference speedup floors for the gate cells
# (``perf_harness.GATE_CELLS``).  Ratios of two same-machine timings,
# so no baseline comparison or machine normalisation is needed.
# Measured on the PR 7 refresh: E4 ~4.3x, E5 ~1.7x, E6 ~2.8x.  E5's
# ratio comes from the RBSTS build, 73-85% of that cell's time, which
# the flat backend runs 1.7-2.4x faster; its batch_prefix and
# batch_insert phases take about the same time on both backends
# (EXPERIMENTS.md E22).  Floors sit under the measured ratios; E5's
# keeps extra slack because that cell's ratio is the noisiest (smallest
# absolute times).
MIN_SPEEDUPS = {"E4": 2.0, "E5": 1.3, "E6": 2.5}

# Resilience-overhead ceiling for R1 cells: with fault rate 0 and light
# detection the checkpointed path may cost at most 10% over the bare
# path.  Gated on the *current* run's ratio (supervised / bare on the
# same machine, so it is self-normalising — no baseline comparison
# needed).
OVERHEAD_LIMIT = 1.10


# Keys every baseline cell must carry for compare() to work; checked up
# front so a truncated artifact yields exit 3, not a KeyError traceback.
REQUIRED_CELL_KEYS = ("experiment", "cell", "backend", "simulated", "wall_clock_s")


def validate_cells(baseline: Dict[str, Any]) -> List[str]:
    """Structural validation of the baseline's ``cells`` array.

    Returns a list of human-readable problems (empty = valid).
    """
    problems: List[str] = []
    cells = baseline.get("cells")
    if cells is None:
        return ["baseline has no 'cells' array"]
    if not isinstance(cells, list):
        return [f"baseline 'cells' is {type(cells).__name__}, expected list"]
    if not cells:
        return ["baseline 'cells' array is empty"]
    for i, entry in enumerate(cells):
        if not isinstance(entry, dict):
            problems.append(f"cells[{i}]: not an object")
            continue
        missing = [k for k in REQUIRED_CELL_KEYS if k not in entry]
        if missing:
            problems.append(f"cells[{i}]: missing keys {missing}")
        elif not isinstance(entry["cell"], dict) or not {
            "n", "u"
        } <= entry["cell"].keys():
            problems.append(f"cells[{i}]: 'cell' must carry 'n' and 'u'")
    return problems


def gate_failures(current: Dict[str, Any]) -> List[str]:
    """Speedup-floor checks on the current run's gate cells, each judged
    on the median of its per-repeat reference/flat ratios."""
    failures: List[str] = []
    by_key = {key_of(e): e for e in current["cells"]}
    for exp, cell in sorted(perf_harness.GATE_CELLS.items()):
        floor = MIN_SPEEDUPS[exp]
        pick = {}
        for backend in ("reference", "flat"):
            entry = by_key.get(f"{exp}:n={cell['n']}:u={cell['u']}:{backend}")
            if entry is not None:
                pick[backend] = entry
        if len(pick) < 2:
            continue  # gate cell not in this run's subset
        ratios = perf_harness.speedup_ratios(pick["reference"], pick["flat"])
        ratio = statistics.median(ratios)
        status = "OK" if ratio >= floor else "REGRESSION"
        print(
            f"{status:>10}  {exp} gate speedup (flat over reference) "
            f"median {ratio:.3f}x (floor {floor}x) over repeats "
            + " ".join(f"{r:.3f}" for r in ratios)
        )
        if ratio < floor:
            failures.append(
                f"{exp} gate cell n={cell['n']} u={cell['u']}: median speedup "
                f"{ratio:.3f}x below floor {floor}x"
            )
    return failures


def key_of(entry: Dict[str, Any]) -> str:
    return (
        f"{entry['experiment']}:n={entry['cell']['n']}"
        f":u={entry['cell']['u']}:{entry['backend']}"
    )


def compare(
    baseline: Dict[str, Any], current: Dict[str, Any], threshold: float
) -> List[str]:
    failures: List[str] = []
    base_by_key = {key_of(e): e for e in baseline["cells"]}
    for cur in current["cells"]:
        key = key_of(cur)
        base = base_by_key.pop(key, None)
        if base is None:
            failures.append(f"{key}: no baseline entry (grid drift)")
            continue
        if base["simulated"] != cur["simulated"]:
            failures.append(
                f"{key}: simulated-cost drift "
                f"(baseline {base['simulated']} != current {cur['simulated']})"
            )
        b, c = base["wall_clock_s"], cur["wall_clock_s"]
        limit = max(b * (1.0 + threshold), b + ABS_SLACK_S)
        status = "OK"
        if c > limit:
            status = "REGRESSION"
            failures.append(
                f"{key}: wall-clock {c:.4f}s > limit {limit:.4f}s "
                f"(baseline {b:.4f}s, threshold {threshold:.0%})"
            )
        ratio = cur.get("overhead_ratio")
        if ratio is not None and ratio > OVERHEAD_LIMIT:
            status = "REGRESSION"
            failures.append(
                f"{key}: resilience overhead_ratio {ratio} > "
                f"{OVERHEAD_LIMIT} (the fault-free checkpoint fast path "
                "regressed; see benchmarks/perf_harness.py cell_r1)"
            )
        print(f"{status:>10}  {key:<40} base {b:.4f}s  now {c:.4f}s")
    for key in base_by_key:
        failures.append(f"{key}: baseline cell missing from current run")
    return failures


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--baseline",
        default=perf_harness.DEFAULT_OUT,
        help="baseline report (default: BENCH_PR7.json at repo root)",
    )
    ap.add_argument("--threshold", type=float, default=0.25)
    ap.add_argument(
        "--quick",
        action="store_true",
        help="run the smoke grid (baseline must also be quick)",
    )
    ap.add_argument(
        "--cells",
        choices=("all", "gate"),
        default="all",
        help="'gate' re-runs only the speedup-gated E4/E5/E6 cells",
    )
    args = ap.parse_args(argv)
    if args.cells == "gate" and args.quick:
        print("--cells gate needs the full-size grid (drop --quick)", file=sys.stderr)
        return 2

    try:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read baseline {args.baseline}: {exc}", file=sys.stderr)
        return 2
    if baseline.get("schema") != "repro-perf-harness/1":
        print(f"unrecognised baseline schema in {args.baseline}", file=sys.stderr)
        return 2
    if bool(baseline.get("quick")) != args.quick:
        print(
            "baseline/run grid mismatch: baseline quick="
            f"{baseline.get('quick')} but --quick={args.quick}",
            file=sys.stderr,
        )
        return 2
    problems = validate_cells(baseline)
    if problems:
        print(
            f"invalid baseline {args.baseline} (regenerate with "
            "benchmarks/perf_harness.py):",
            file=sys.stderr,
        )
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 3

    print(f"baseline: {args.baseline}", file=sys.stderr)
    current = perf_harness.run(quick=args.quick, cells=args.cells)
    if args.cells == "gate":
        # The baseline holds the full grid; compare only the subset the
        # current run actually executed.
        current_keys = {key_of(e) for e in current["cells"]}
        baseline = dict(
            baseline,
            cells=[e for e in baseline["cells"] if key_of(e) in current_keys],
        )
    failures = compare(baseline, current, args.threshold)
    if not args.quick:
        failures.extend(gate_failures(current))
    if failures:
        print("\nperf regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperf regression gate passed.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
