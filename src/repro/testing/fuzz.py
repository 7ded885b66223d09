"""CLI entry point: ``python -m repro.testing.fuzz``.

Modes
-----

* **fuzz** (default): generate a deterministic op sequence per scenario
  from ``--seed``, replay it with full oracle checks; on violation,
  shrink to a near-minimal reproducer, write it to the corpus
  (``tests/corpus/``) and exit 1.  Exit 0 means *zero* invariant or
  oracle violations.
* **--self-test**: fault-injection self-verification — for every
  registered fault, prove the fuzzer finds the planted bug, shrinks it
  to a small reproducer (≤ ``--max-shrunk-ops``), and that the shrunk
  program passes once the fault is removed.

Examples::

    PYTHONPATH=src python -m repro.testing.fuzz --seed 0 --ops 2000 --backend both
    PYTHONPATH=src python -m repro.testing.fuzz --scenario contraction --ops 300
    PYTHONPATH=src python -m repro.testing.fuzz --self-test
    PYTHONPATH=src python -m repro.testing.fuzz --replay tests/corpus/foo.json

Exit codes: 0 clean, 1 violation found (reproducer written), 2 usage /
self-test harness failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from ..errors import BudgetExceededError
from . import corpus as corpus_mod
from .executor import run_sequence
from .faults import FAULTS
from .generator import generate
from .ops import OpSequence
from .shrinker import shrink

__all__ = ["main", "fuzz_once", "self_test"]

# Contraction batches are ~an order of magnitude heavier than list ops
# (each one re-derives the rake trace); 'all' scales them down so the
# default CLI stays inside the CI smoke budget.
CONTRACTION_OPS_DIVISOR = 10


def fuzz_once(
    scenario: str,
    seed: int,
    n_ops: int,
    *,
    backend: str = "both",
    check_every: int = 1,
    fault: Optional[str] = None,
    crash_seed: Optional[int] = None,
    profile: str = "default",
    save_dir: Optional[str] = None,
    save: bool = True,
    verbose: bool = True,
    max_shrink_replays: int = 600,
    op_budget: Optional[int] = None,
    wall_timeout: Optional[float] = None,
):
    """Generate + replay one sequence; shrink and persist on failure.

    ``crash_seed`` arms mid-batch crash injection (crashes.py): every
    transactional batch crashes at a seeded interior point, the
    rollback is audited bit-for-bit, and the batch is re-applied
    cleanly.  Returns ``(report, shrunk_or_None, corpus_path_or_None)``.
    """
    seq = generate(scenario, seed, n_ops, profile=profile)
    t0 = time.perf_counter()
    report = run_sequence(
        seq, backend=backend, check_every=check_every, fault=fault,
        crash_seed=crash_seed, op_budget=op_budget,
        wall_timeout=wall_timeout,
    )
    dt = time.perf_counter() - t0
    if verbose:
        status = "ok" if report.ok else "FAIL"
        crashinfo = "" if crash_seed is None else f"crashes={report.crashes}  "
        print(
            f"[fuzz] {status:>4}  {seq.describe()}  backend={backend}  "
            f"ops={report.ops_executed}/{len(seq.ops)}  "
            f"checks={report.checks}  {crashinfo}final_n={report.final_n}  "
            f"{dt:.2f}s"
        )
    if report.ok:
        return report, None, None

    if verbose:
        print(f"[fuzz] violation: {report.failure}")
        print("[fuzz] shrinking ...")

    def fails(cand: OpSequence) -> bool:
        return not run_sequence(
            cand, backend=backend, check_every=1, fault=fault,
            crash_seed=crash_seed,
        ).ok

    result = shrink(seq, fails, max_replays=max_shrink_replays)
    shrunk = result.sequence
    final = run_sequence(
        shrunk, backend=backend, check_every=1, fault=fault,
        crash_seed=crash_seed,
    )
    if verbose:
        print(
            f"[fuzz] shrunk {len(seq.ops)} ops -> {len(shrunk.ops)} ops "
            f"(size {seq.size} -> {shrunk.size}, {result.attempts} replays)"
        )
        print(f"[fuzz] minimal failure: {final.failure}")
    path = None
    if save and fault is None:
        # Fault-injected failures are synthetic; only real bugs join the
        # regression corpus.
        extra = {"backend": backend, "generator_seed": seed}
        if crash_seed is not None:
            # The replay test re-arms the same crash schedule.
            extra["crash_seed"] = crash_seed
        path = corpus_mod.save_entry(
            shrunk,
            save_dir,
            failure=str(final.failure),
            extra_meta=extra,
        )
        if verbose:
            print(f"[fuzz] reproducer written to {path}")
    return report, shrunk, path


def self_test(
    *,
    seeds: int = 10,
    ops: int = 80,
    max_shrunk_ops: int = 12,
    verbose: bool = True,
) -> int:
    """Fault-injection self-verification (see module docstring).

    Journal faults (``needs_crash``) only corrupt the *rollback* path,
    so for those the search, the shrink predicate and the final clean
    re-run all arm crash injection — the clean run then doubles as a
    true-rollback check on the shrunk program."""
    failures: List[str] = []
    for name, fault_obj in sorted(FAULTS.items()):
        profile = "batch" if fault_obj.needs_crash else "default"
        found = None
        for seed in range(seeds):
            crash = seed if fault_obj.needs_crash else None
            report = run_sequence(
                generate("list", seed, ops, profile=profile),
                backend="both",
                fault=name,
                crash_seed=crash,
            )
            if not report.ok:
                found = seed
                break
        if found is None:
            failures.append(f"{name}: not detected in {seeds} seeds x {ops} ops")
            if verbose:
                print(f"[self-test] FAIL {name}: fault never detected")
            continue
        seq = generate("list", found, ops, profile=profile)
        crash = found if fault_obj.needs_crash else None

        def fails(cand: OpSequence) -> bool:
            return not run_sequence(
                cand, backend="both", fault=name, crash_seed=crash
            ).ok

        result = shrink(seq, fails)
        shrunk = result.sequence
        n_shrunk = len(shrunk.ops)
        # fault removed (crash schedule kept for needs_crash faults)
        clean = run_sequence(shrunk, backend="both", crash_seed=crash)
        detail = (
            f"seed {found}: {len(seq.ops)} -> {n_shrunk} ops "
            f"({result.attempts} replays)"
        )
        if n_shrunk > max_shrunk_ops:
            failures.append(
                f"{name}: shrunk to {n_shrunk} ops > {max_shrunk_ops}"
            )
            if verbose:
                print(f"[self-test] FAIL {name}: {detail} — too large")
        elif not clean.ok:
            failures.append(
                f"{name}: shrunk program still fails without the fault "
                f"({clean.failure}) — real bug or flaky oracle?"
            )
            if verbose:
                print(f"[self-test] FAIL {name}: shrunk repro fails cleanly")
        else:
            if verbose:
                print(
                    f"[self-test]  ok  {name}: {detail}; expected "
                    f"oracle: {fault_obj.detected_by}"
                )
    if failures:
        print("\nfault-injection self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 2
    if verbose:
        print(f"[self-test] all {len(FAULTS)} faults detected and shrunk.")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--seed", type=int, default=0, help="generator seed")
    ap.add_argument("--ops", type=int, default=500, help="ops per sequence")
    ap.add_argument(
        "--backend",
        choices=["reference", "flat", "both"],
        default="both",
        help="subject backends ('both' = lockstep differential)",
    )
    ap.add_argument(
        "--scenario",
        choices=["all", "list", "contraction"],
        default="all",
        help="workload family (default: both scenarios)",
    )
    ap.add_argument(
        "--check-every",
        type=int,
        default=1,
        help="audit every K-th op (1 = every op)",
    )
    ap.add_argument(
        "--fault",
        choices=sorted(FAULTS),
        default=None,
        help="inject a known fault (demonstration / debugging)",
    )
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="run the fault-injection self-verification and exit",
    )
    ap.add_argument(
        "--crash-seed",
        type=int,
        default=None,
        metavar="N",
        help="arm mid-batch crash injection with this seed (list "
        "scenario; audits crash-consistent rollback on every batch)",
    )
    ap.add_argument(
        "--runs",
        type=int,
        default=1,
        metavar="K",
        help="fuzz K consecutive seeds starting at --seed (crash-seed "
        "advances in lockstep when set)",
    )
    ap.add_argument(
        "--profile",
        choices=["default", "batch", "faulty"],
        default=None,
        help="generator op-mix profile (default: 'batch' when "
        "--crash-seed is set, else 'default')",
    )
    ap.add_argument(
        "--replay", metavar="PATH", default=None,
        help="replay one corpus JSON file instead of generating",
    )
    ap.add_argument(
        "--corpus-dir",
        default=None,
        help="where to write shrunk reproducers (default tests/corpus/)",
    )
    ap.add_argument(
        "--no-save",
        action="store_true",
        help="do not write reproducers to the corpus",
    )
    ap.add_argument(
        "--max-shrunk-ops",
        type=int,
        default=12,
        help="self-test bound on the shrunk reproducer length",
    )
    ap.add_argument(
        "--op-budget",
        type=int,
        default=None,
        metavar="N",
        help="abort (exit 2) after executing N ops in one sequence — "
        "hang guard; the offending seed stays replayable",
    )
    ap.add_argument(
        "--wall-timeout",
        type=float,
        default=None,
        metavar="S",
        help="abort (exit 2) once one sequence has run S wall-clock "
        "seconds — hang guard; the offending seed stays replayable",
    )
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test(max_shrunk_ops=args.max_shrunk_ops)

    if args.replay:
        seq = corpus_mod.load_entry(args.replay)
        crash = args.crash_seed
        if crash is None:
            crash = seq.meta.get("crash_seed")
        try:
            report = run_sequence(
                seq, backend=args.backend, check_every=args.check_every,
                fault=args.fault, crash_seed=crash,
                op_budget=args.op_budget, wall_timeout=args.wall_timeout,
            )
        except BudgetExceededError as exc:
            print(f"[replay] budget exceeded ({exc.budget}): {exc}", file=sys.stderr)
            return 2
        status = "ok" if report.ok else f"FAIL: {report.failure}"
        print(f"[replay] {seq.describe()}: {status}")
        return 0 if report.ok else 1

    scenarios = (
        ["list", "contraction"] if args.scenario == "all" else [args.scenario]
    )
    profile = args.profile
    if profile is None:
        profile = "batch" if args.crash_seed is not None else "default"
    rc = 0
    for run in range(max(1, args.runs)):
        seed = args.seed + run
        crash = None if args.crash_seed is None else args.crash_seed + run
        for scenario in scenarios:
            n_ops = args.ops
            if scenario == "contraction" and args.scenario == "all":
                n_ops = max(1, args.ops // CONTRACTION_OPS_DIVISOR)
            try:
                report, shrunk, _path = fuzz_once(
                    scenario,
                    seed,
                    n_ops,
                    backend=args.backend,
                    check_every=args.check_every,
                    fault=args.fault,
                    crash_seed=crash,
                    profile=profile if scenario == "list" else "default",
                    save_dir=args.corpus_dir,
                    save=not args.no_save,
                    op_budget=args.op_budget,
                    wall_timeout=args.wall_timeout,
                )
            except BudgetExceededError as exc:
                print(
                    f"[fuzz] budget exceeded ({exc.budget}) on seed "
                    f"{seed}: {exc}",
                    file=sys.stderr,
                )
                return 2
            if not report.ok:
                rc = 1
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
