"""Machine-readable perf-regression harness (PR 1, refreshed PR 6).

Runs a fixed, seeded grid of cells drawn from experiments E1 / E4 /
E5 / E6 and records, per cell and per backend:

* ``wall_clock_s`` — best-of-``REPEATS`` wall-clock for the whole cell
  (structure construction + the measured batch, matching the protocol
  of the corresponding ``bench_eN_*.py`` experiment);
* ``simulated`` — the machine-independent costs (PRAM work / span,
  activation rounds, rebuild mass, wound sizes).  These are exact
  deterministic functions of the seeds, so they must be *identical*
  across machines — and identical across backends, which doubles as a
  cross-backend parity check.

The output is ``BENCH_PR7.json`` at the repository root (override with
``--out``).  ``regress.py`` replays the same grid against the newest
stored baseline and fails on wall-clock regressions, simulated-cost
drift, or a gate-cell speedup dropping below its floor.

``--profile`` additionally runs each cell under :mod:`cProfile` and
embeds the top-20 functions by cumulative time in the cell record
(``"profile"`` key).  Profiling inflates ``wall_clock_s``, so never
use a ``--profile`` run as a regression baseline.

Run:  PYTHONPATH=src python benchmarks/perf_harness.py
          [--quick] [--profile] [--out PATH]
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import pstats
import random
import sys
import time
from datetime import datetime, timezone
from typing import Any, Callable, Dict, List, Tuple

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.contraction.dynamic import DynamicTreeContraction
from repro.listprefix.structure import IncrementalListPrefix
from repro.pram.frames import SpanTracker
from repro.resilience.executor import ResiliencePolicy, ResilientListSession
from repro.splitting.activation import activate, deactivate
from repro.splitting.rbsts import RBSTS
from repro.trees.builders import random_expression_tree
from repro.trees.nodes import add_op

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_PR7.json")

BACKENDS = ("reference", "flat")
REPEATS = 3
SEEDS = (0, 1, 2)
PROFILE_TOP = 20

# The acceptance-gate cells: flat-over-reference speedup floors live in
# ``regress.MIN_SPEEDUPS`` keyed by the same experiment names.
E4_GATE = {"n": 1 << 16, "u": 64}
E5_GATE = {"n": 1 << 13, "u": 64}
E6_GATE = {"n": 1 << 11, "u": 32}
GATE_CELLS = {"E4": E4_GATE, "E5": E5_GATE, "E6": E6_GATE}


# ----------------------------------------------------------------------
# cell kernels — each returns (wall_clock_s, simulated_dict) for one seed
# ----------------------------------------------------------------------
def cell_e1(backend: str, seed: int, n: int, u: int) -> Tuple[float, Dict]:
    """E1 — shortcut activation: build, activate |U| leaves, deactivate."""
    rng = random.Random(seed * 31 + u)
    t0 = time.perf_counter()
    tree = RBSTS(range(n), seed=seed * 1000 + n % 997, backend=backend)
    leaves = [tree.leaf_at(i) for i in sorted(rng.sample(range(n), u))]
    res = activate(tree, leaves)
    deactivate(res)
    dt = time.perf_counter() - t0
    return dt, {
        "rounds": res.rounds_total,
        "peak_processors": res.peak_processors,
        "threshold": res.threshold,
    }


def cell_e4(backend: str, seed: int, n: int, u: int) -> Tuple[float, Dict]:
    """E4 — batch updates: build, one insert batch, one delete batch."""
    rng = random.Random(seed * 37 + n + u)
    t0 = time.perf_counter()
    tree = RBSTS(range(n), seed=seed + n, backend=backend)
    ti = SpanTracker()
    tree.batch_insert(
        sorted({rng.randint(0, tree.n_leaves): i for i in range(u)}.items()),
        ti,
    )
    ins_stats = dict(tree.last_batch_stats)
    victims = [
        tree.leaf_at(i)
        for i in sorted(rng.sample(range(tree.n_leaves), u))
    ]
    td = SpanTracker()
    tree.batch_delete(victims, td)
    del_stats = dict(tree.last_batch_stats)
    dt = time.perf_counter() - t0
    return dt, {
        "insert_work": ti.work,
        "insert_span": ti.span,
        "insert_mass": ins_stats["rebuild_mass"],
        "insert_sites": ins_stats["sites"],
        "delete_work": td.work,
        "delete_span": td.span,
        "delete_mass": del_stats["rebuild_mass"],
        "delete_sites": del_stats["sites"],
    }


def cell_e5(backend: str, seed: int, n: int, u: int) -> Tuple[float, Dict]:
    """E5 — incremental list prefix: build, query batch, insert batch."""
    rng = random.Random(seed * 17 + n + u)
    t0 = time.perf_counter()
    lp = IncrementalListPrefix(
        sum_monoid(INTEGER), range(n), seed=seed + n, backend=backend
    )
    hs = lp.handles()
    tq = SpanTracker()
    answers = lp.batch_prefix(
        [hs[i] for i in sorted(rng.sample(range(n), u))], tq
    )
    ti = SpanTracker()
    lp.batch_insert(
        [(rng.randint(0, n), rng.randint(-9, 9)) for _ in range(u)], ti
    )
    dt = time.perf_counter() - t0
    return dt, {
        "query_work": tq.work,
        "query_span": tq.span,
        "insert_work": ti.work,
        "insert_span": ti.span,
        "answer_checksum": sum(answers) % 1_000_003,
    }


def cell_e6(backend: str, seed: int, n: int, u: int) -> Tuple[float, Dict]:
    """E6 — dynamic contraction: build engine, value batch, grow batch."""
    rng = random.Random(seed * 23 + n + u)
    tree = random_expression_tree(INTEGER, n, seed=seed + n)
    t0 = time.perf_counter()
    engine = DynamicTreeContraction(tree, seed=seed + n + 1, backend=backend)
    leaves = [l.nid for l in tree.leaves_in_order()]
    tv = SpanTracker()
    engine.batch_set_leaf_values(
        [(nid, rng.randint(-5, 5)) for nid in sorted(rng.sample(leaves, u))],
        tv,
    )
    wound_value = engine.last_stats["wound"]
    leaves = [l.nid for l in tree.leaves_in_order()]
    tg = SpanTracker()
    engine.batch_grow(
        [(nid, add_op(), 1, 2) for nid in sorted(rng.sample(leaves, u))], tg
    )
    wound_grow = engine.last_stats["fresh_rt_nodes"]
    dt = time.perf_counter() - t0
    assert engine.value() == tree.evaluate()
    return dt, {
        "value_work": tv.work,
        "value_span": tv.span,
        "value_wound": wound_value,
        "grow_work": tg.work,
        "grow_span": tg.span,
        "grow_wound": wound_grow,
    }


def cell_r1(backend: str, seed: int, n: int, u: int) -> Tuple[float, Dict, float]:
    """R1 — resilience overhead: the E4-style update workload (insert
    batch, delete batch, total query) driven bare vs. under
    :class:`~repro.resilience.executor.ResilientListSession` checkpoints
    with fault rate 0 and light detection.  Construction is excluded
    from both timings so the ratio isolates the checkpoint seam.
    Returns ``(supervised_s, simulated, bare_s)``.  Both phases start
    from a collected heap: the ratio is the gated quantity, and
    allocator debris from earlier grid cells otherwise skews the two
    phases unequally."""
    rng = random.Random(seed * 41 + n + u)
    values = list(range(n))
    ins = sorted(
        {rng.randint(0, n): rng.randint(-9, 9) for _ in range(u)}.items()
    )
    dels = sorted(rng.sample(range(n), u))
    monoid = sum_monoid(INTEGER)

    lp = IncrementalListPrefix(monoid, values, seed=seed + n, backend=backend)
    gc.collect()
    t0 = time.perf_counter()
    lp.batch_insert(list(ins))
    lp.batch_delete([lp.handle_at(i) for i in dels])
    bare_total = lp.total()
    bare_s = time.perf_counter() - t0

    session = ResilientListSession(
        monoid,
        values,
        seed=seed + n,
        policy=ResiliencePolicy(detect="light", ladder=(backend,)),
    )
    gc.collect()
    t0 = time.perf_counter()
    session.batch_insert(list(ins))
    session.batch_delete(list(dels))
    sup_total = session.total()
    supervised_s = time.perf_counter() - t0

    assert sup_total == bare_total, "supervision changed the answer"
    assert session.rng_state() == lp.rng_state(), (
        "supervision perturbed the master-RNG stream"
    )
    sim = {
        "checkpoints": session.stats["checkpoints"],
        "attempts": session.stats["attempts"],
        "retries": session.stats["retries"],
        "answer_checksum": int(sup_total) % 1_000_003,
    }
    return supervised_s, sim, bare_s


KERNELS: Dict[str, Callable[..., Tuple[float, Dict]]] = {
    "E1": cell_e1,
    "E4": cell_e4,
    "E5": cell_e5,
    "E6": cell_e6,
}


def grid(quick: bool) -> List[Dict[str, Any]]:
    """The fixed cell grid.  ``quick`` trims to a smoke subset."""
    cells = [
        {"experiment": "E1", "n": 1 << 12, "u": 64},
        {"experiment": "E1", "n": 1 << 16, "u": 64},
        {"experiment": "E4", "n": 1 << 10, "u": 64},
        {"experiment": "E4", **E4_GATE},
        {"experiment": "E5", **E5_GATE},
        {"experiment": "E6", **E6_GATE},
        {"experiment": "R1", "n": 1 << 13, "u": 256},
    ]
    if quick:
        cells = [
            {"experiment": "E1", "n": 1 << 10, "u": 16},
            {"experiment": "E4", "n": 1 << 10, "u": 16},
            {"experiment": "E5", "n": 1 << 10, "u": 16},
            {"experiment": "E6", "n": 1 << 9, "u": 8},
            {"experiment": "R1", "n": 1 << 10, "u": 64},
        ]
    return cells


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
def _top_profile(prof: cProfile.Profile, top: int = PROFILE_TOP) -> List[Dict]:
    """The ``top`` rows of a finished profile, by cumulative time."""
    stats = pstats.Stats(prof)
    ranked = sorted(
        stats.stats.items(), key=lambda kv: kv[1][3], reverse=True
    )
    rows = []
    for (path, line, func), (_cc, nc, tt, ct, _callers) in ranked[:top]:
        where = "~" if path == "~" else f"{os.path.basename(path)}:{line}"
        rows.append(
            {
                "func": f"{where}({func})",
                "ncalls": nc,
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            }
        )
    return rows


def run_cell(
    spec: Dict[str, Any], backend: str, profile: bool = False
) -> Dict[str, Any]:
    if spec["experiment"] == "R1":
        return _run_cell_r1(spec, backend, profile)
    kernel = KERNELS[spec["experiment"]]
    n, u = spec["n"], spec["u"]
    prof = cProfile.Profile() if profile else None
    if prof is not None:
        prof.enable()
    best = float("inf")
    simulated: Dict[str, Any] = {}
    for _ in range(REPEATS):
        total = 0.0
        sim_acc: Dict[str, Any] = {}
        for seed in SEEDS:
            dt, sim = kernel(backend, seed, n, u)
            total += dt
            for k, v in sim.items():
                sim_acc[k] = sim_acc.get(k, 0) + v
        if total < best:
            best = total
        if simulated and simulated != sim_acc:
            raise RuntimeError(
                f"non-deterministic simulated costs in {spec} ({backend}): "
                f"{simulated} != {sim_acc}"
            )
        simulated = sim_acc
    if prof is not None:
        prof.disable()
    entry = {
        "experiment": spec["experiment"],
        "cell": {"n": n, "u": u, "seeds": list(SEEDS)},
        "backend": backend,
        "wall_clock_s": round(best, 6),
        "simulated": simulated,
    }
    if prof is not None:
        entry["profile"] = _top_profile(prof)
    return entry


def _run_cell_r1(
    spec: Dict[str, Any], backend: str, profile: bool = False
) -> Dict[str, Any]:
    """The resilience-overhead cell: like :func:`run_cell` but also
    records ``overhead_ratio`` (supervised / bare wall-clock, both
    best-of-``REPEATS``) as a top-level key — ``regress.py`` gates it at
    1.10 so the checkpoint seam can never silently slow the fault-free
    fast path by more than 10%."""
    n, u = spec["n"], spec["u"]
    prof = cProfile.Profile() if profile else None
    if prof is not None:
        prof.enable()
    best_on = best_off = float("inf")
    simulated: Dict[str, Any] = {}
    for _ in range(REPEATS):
        total_on = total_off = 0.0
        sim_acc: Dict[str, Any] = {}
        for seed in SEEDS:
            dt_on, sim, dt_off = cell_r1(backend, seed, n, u)
            total_on += dt_on
            total_off += dt_off
            for k, v in sim.items():
                sim_acc[k] = sim_acc.get(k, 0) + v
        best_on = min(best_on, total_on)
        best_off = min(best_off, total_off)
        if simulated and simulated != sim_acc:
            raise RuntimeError(
                f"non-deterministic simulated costs in {spec} ({backend}): "
                f"{simulated} != {sim_acc}"
            )
        simulated = sim_acc
    if prof is not None:
        prof.disable()
    entry = {
        "experiment": "R1",
        "cell": {"n": n, "u": u, "seeds": list(SEEDS)},
        "backend": backend,
        "wall_clock_s": round(best_on, 6),
        "bare_wall_clock_s": round(best_off, 6),
        "overhead_ratio": round(best_on / best_off, 3),
        "simulated": simulated,
    }
    if prof is not None:
        entry["profile"] = _top_profile(prof)
    return entry


def run(
    quick: bool = False, profile: bool = False, cells: str = "all"
) -> Dict[str, Any]:
    specs = grid(quick)
    if cells == "gate":
        # Just the speedup-gated cells (regress.py --cells gate).
        specs = [
            s
            for s in specs
            if GATE_CELLS.get(s["experiment"]) == {"n": s["n"], "u": s["u"]}
        ]
    elif cells != "all":
        raise ValueError(f"unknown cells mode {cells!r}")
    entries: List[Dict[str, Any]] = []
    for spec in specs:
        per_backend: Dict[str, Dict[str, Any]] = {}
        for backend in BACKENDS:
            entry = run_cell(spec, backend, profile)
            per_backend[backend] = entry
            entries.append(entry)
            print(
                f"{spec['experiment']:>3} n={spec['n']:<6} u={spec['u']:<3} "
                f"{backend:>9}: {entry['wall_clock_s']:.4f}s",
                file=sys.stderr,
            )
        ref = per_backend["reference"]
        flat = per_backend["flat"]
        if ref["simulated"] != flat["simulated"]:
            raise RuntimeError(
                f"backend parity violated in {spec}: "
                f"{ref['simulated']} != {flat['simulated']}"
            )

    def speedup(exp: str, n: int, u: int) -> float | None:
        pick = {
            e["backend"]: e["wall_clock_s"]
            for e in entries
            if e["experiment"] == exp and e["cell"]["n"] == n and e["cell"]["u"] == u
        }
        if "reference" not in pick or "flat" not in pick:
            return None  # cell absent from this run's subset
        return round(pick["reference"] / pick["flat"], 3)

    summary = {
        "gate_cells": GATE_CELLS,
        "e4_gate_cell": E4_GATE,
        "e4_speedup_flat_over_reference": (
            None if quick else speedup("E4", E4_GATE["n"], E4_GATE["u"])
        ),
        "e5_speedup_flat_over_reference": (
            None if quick else speedup("E5", E5_GATE["n"], E5_GATE["u"])
        ),
        "e6_speedup_flat_over_reference": (
            None if quick else speedup("E6", E6_GATE["n"], E6_GATE["u"])
        ),
        "speedups_flat_over_reference": {
            f"{s['experiment']}_n{s['n']}_u{s['u']}": speedup(
                s["experiment"], s["n"], s["u"]
            )
            for s in specs
        },
    }
    return {
        "schema": "repro-perf-harness/1",
        "pr": 7,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": quick,
        "profiled": profile,
        "cells_mode": cells,
        "repeats": REPEATS,
        "cells": entries,
        "summary": summary,
    }


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="smoke-size grid")
    ap.add_argument(
        "--profile",
        action="store_true",
        help="embed top-20 cProfile rows per cell (inflates wall clocks; "
        "never baseline a profiled run)",
    )
    ap.add_argument("--out", default=DEFAULT_OUT, help="output JSON path")
    args = ap.parse_args(argv)
    report = run(quick=args.quick, profile=args.profile)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    s = report["summary"]
    print(f"wrote {args.out}", file=sys.stderr)
    for exp in sorted(GATE_CELLS):
        val = s[f"{exp.lower()}_speedup_flat_over_reference"]
        if val is not None:
            print(
                f"{exp} gate cell speedup (flat over reference): {val}x",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
