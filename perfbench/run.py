"""Closed-loop serve and contraction benchmark with per-layer attribution.

Run from the repository root:

    python3 perfbench/run.py --workload serve-4k --seed 1 --seconds 30 --trace 0

The run repeats rounds of its workload (see ``workloads.py``) until
``--seconds`` are used, checks every round's outputs, and prints one
JSON object as the last line of standard output.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced rounds and reports the per-layer metrics, the
tracing overhead, and appends the spans as JSON lines to
``perfbench/out/`` after every traced round.

Every round replays the same seeded script, so the count channel
(simulated PRAM work and span, wound and rebuild sizes, windows, status
tallies, call counts) must repeat exactly: across the rounds of a run,
between traced and untraced rounds, and across runs of the same seed on
the same program (recorded under ``perfbench/out/counts/``, keyed by a
digest of the program and benchmark sources).  A failed correctness or
determinism check prints ``"correct": false`` and exits with 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: Rounds every run makes at least (trace runs: one untraced, one traced).
MIN_ROUNDS = 2

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "applied_share": "share",
    "goodput_per_s": "1/s",
    "write_p50_ms": "ms",
    "aux_p50_ms": "ms",
}

#: per-layer self-time shares: metric -> span name
SHARES = {
    "serve.offer_pct": "serve.offer",
    "serve.window_self_pct": "serve.window",
    "serve.admit_pct": "serve.admit",
    "serve.read_self_pct": "serve.read",
    "resilience.supervise_self_pct": "resilience.supervise",
    "resilience.audit_pct": "resilience.audit",
    "snapshots.txn_pct": "snapshots.txn",
    "snapshots.pin_pct": "snapshots.pin",
    "snapshots.materialize_pct": "snapshots.materialize",
    "snapshots.reader_fold_pct": "snapshots.reader_fold",
    "listprefix.apply_pct": "listprefix.apply",
    "splitting.leaf_at_pct": "splitting.leaf_at",
    "splitting.pt_update_pct": "splitting.pt_update",
    "contraction.batch_self_pct": "contraction.batch",
    "contraction.heal_pct": "contraction.heal",
    "contraction.replay_pct": "contraction.replay",
    "contraction.schedule_pct": "contraction.schedule",
    "contraction.query_pct": "contraction.query",
    "perf.kernel_pct": "perf.kernel",
}

#: per-layer span call counts: metric -> span name
CALLS = {
    "serve.offer_calls": "serve.offer",
    "resilience.supervise_calls": "resilience.supervise",
    "resilience.audit_calls": "resilience.audit",
    "snapshots.materialize_calls": "snapshots.materialize",
    "listprefix.apply_calls": "listprefix.apply",
    "splitting.leaf_at_calls": "splitting.leaf_at",
    "contraction.heal_calls": "contraction.heal",
    "contraction.replay_calls": "contraction.replay",
    "perf.kernel_calls": "perf.kernel",
}

#: per-layer counts taken from the count channel: metric -> count key
COUNTS = {
    "serve.windows": "serve.windows",
    "serve.reads": "serve.reads",
    "resilience.retries": "resilience.retries",
    "resilience.rollbacks": "resilience.rollbacks",
    "splitting.rebuild_mass": "splitting.rebuild_mass",
    "contraction.wound_rows": "contraction.wound_rows",
    "contraction.fresh_rt_nodes": "contraction.fresh_rt_nodes",
    "pram.work": "pram.work",
    "pram.span": "pram.span",
    "status.applied": "status.applied",
    "status.rejected": "status.rejected",
}


def per_layer_units() -> Dict[str, str]:
    units = {name: "%" for name in SHARES}
    units["serve.rim_pct"] = "%"
    units.update({name: "count" for name in CALLS})
    units.update({name: "count" for name in COUNTS})
    units["serve.window_fill"] = "writes/window"
    units["serve.admit_reject_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "x"
    return units


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def best_per_op(rounds: List[Any], samples: str) -> List[float]:
    """Each timed operation's least time over the rounds.

    Every round replays the same script, so sample k is the same
    operation in every round; its least time is the one the host's
    other load disturbed least.
    """
    return [min(col) for col in zip(*(getattr(r, samples) for r in rounds), strict=True)]


def end_to_end(rounds: List[Any]) -> Dict[str, Any]:
    values = {
        # Every round sets up the same system from the same seed, so the
        # set-up is one more operation timed once per round.
        "setup_s": min(r.setup_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "applied_share": (
            sum(r.applied for r in rounds) / sum(r.sent for r in rounds)
        ),
        "goodput_per_s": rounds[0].good / sum(best_per_op(rounds, "good_steps_s")),
        "write_p50_ms": statistics.median(best_per_op(rounds, "write_s")) * 1e3,
        "aux_p50_ms": statistics.median(best_per_op(rounds, "aux_s")) * 1e3,
    }
    return {k: metric(values[k], END_TO_END[k]) for k in END_TO_END}


def trace_counts(tracer: Any) -> Dict[str, int]:
    """Cumulative span call counts and tracer counters."""
    out = {f"calls.{name}": tracer.calls(name) for name in set(CALLS.values())}
    out.update(tracer.counts)
    return out


def per_layer(
    traced: List[Tuple[Any, Dict[str, int]]],
    untraced: List[Any],
    tracer: Any,
) -> Dict[str, Any]:
    units = per_layer_units()
    timed = sum(r.timed_s for r, _ in traced)
    counts = dict(traced[0][0].counts)
    counts.update(traced[0][1])
    values: Dict[str, float] = {}
    for name, span in SHARES.items():
        values[name] = 100.0 * tracer.self_s(span) / timed
    values["serve.rim_pct"] = 100.0 * (timed - tracer.top_s) / timed
    for name, span in CALLS.items():
        values[name] = counts.get(f"calls.{span}", 0)
    for name, key in COUNTS.items():
        values[name] = counts.get(key, 0)
    windows = counts.get("serve.windows", 0)
    enqueued = counts.get("serve.enqueued", 0)
    values["serve.window_fill"] = enqueued / windows if windows else 0.0
    values["serve.admit_reject_ratio"] = (
        counts.get("serve.rejections", 0) / enqueued if enqueued else 0.0
    )
    values["trace.overhead_ratio"] = (
        statistics.median(r.timed_s for r, _ in traced)
        / statistics.median(r.timed_s for r in untraced)
    )
    return {k: metric(values[k], units[k]) for k in units}


def program_digest() -> str:
    """sha1 over the path and bytes of every Python source of the program
    (``src/repro``) and of the benchmark, so counts recorded by other code
    are never compared with this run's."""
    h = hashlib.sha1()
    for top in (os.path.join(ROOT, "src", "repro"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in ("__pycache__", "out"))
            for fn in sorted(f for f in filenames if f.endswith(".py")):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def check_counts(
    workload: Any, seed: int, base: Dict[str, int], traced: Optional[Dict[str, int]]
) -> List[str]:
    """Compare this run's count channel with earlier runs of the seed at
    the same sizes on the same program, then record it."""
    sizes = json.dumps(workload.sizes(), sort_keys=True).encode()
    tag = hashlib.sha1(sizes).hexdigest()[:8] + "-" + program_digest()[:12]
    path = os.path.join(OUT, "counts", f"{workload.name}-{tag}-seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    record: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path) as fh:
            record = json.load(fh)
    errors = []
    for key, mine in (("base", base), ("traced", traced)):
        if mine is None:
            continue
        if key in record and record[key] != mine:
            errors.append(f"{key} counts differ from an earlier run of seed {seed}")
        record[key] = mine
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return errors


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    from tracing import Tracer, instrument
    from workloads import RING, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    tracer = None
    trace_file = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer, RING)
        os.makedirs(OUT, exist_ok=True)
        # One file per workload, replaced by each traced run of it.
        trace_file = open(os.path.join(OUT, f"trace-{args.workload}.jsonl"), "w")
        trace_file.write(json.dumps({"workload": args.workload, "seed": args.seed}) + "\n")

    untraced: List[Any] = []
    traced: List[Tuple[Any, Dict[str, int]]] = []
    start = time.perf_counter()
    n_rounds = 0
    while True:
        gc.collect()
        if tracer is not None and n_rounds % 2 == 1:
            tracer.round = n_rounds
            before = trace_counts(tracer)
            result = workload.run_round(inputs, tracer)
            after = trace_counts(tracer)
            traced.append((result, {k: after[k] - before.get(k, 0) for k in after}))
            tracer.flush(trace_file)
        else:
            untraced.append(workload.run_round(inputs, None))
        n_rounds += 1
        elapsed = time.perf_counter() - start
        if n_rounds >= MIN_ROUNDS and elapsed * (n_rounds + 1) / n_rounds > args.seconds:
            break

    errors = [e for r in untraced for e in r.errors]
    errors += [e for r, _ in traced for e in r.errors]
    base = untraced[0].counts
    rounds_base = [r.counts for r in untraced] + [r.counts for r, _ in traced]
    if any(c != base for c in rounds_base):
        errors.append("count channel differs between rounds of one run")
    traced_counts = None
    if traced:
        traced_counts = dict(traced[0][1])
        if any(tc != traced_counts for _, tc in traced):
            errors.append("traced call counts differ between rounds")
    errors += check_counts(workload, args.seed, base, traced_counts)

    if tracer is not None:
        tracer.restore()
        trace_file.close()
        metrics = per_layer(traced, untraced, tracer)
    else:
        metrics = end_to_end(untraced)

    all_rounds = untraced + [r for r, _ in traced]
    attempted = sum(r.sent for r in all_rounds)
    failed = attempted - sum(r.applied for r in all_rounds)
    for err in errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} rounds={n_rounds} "
          f"traced={len(traced)} sizes={json.dumps(workload.sizes())}")
    for name, m in metrics.items():
        print(f"#   {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
