"""The fuzz driver: ``python -m repro.testing.fuzz``.

One seed loop runs any registered exercise (:data:`EXERCISES`) over
``--runs`` consecutive seeds, tallies each run's outcome, writes a
reproducer for every failure to ``tests/corpus/`` (unless
``--no-save``) and, with ``--require-coverage``, exits 2 unless every
coverage class of the exercise was observed.

Exercises
---------

* **differential** — generated list and contraction programs on the
  reference and flat backends in lockstep against the naive model,
  auditing after every op; ``--crash-seed`` arms mid-batch crash
  injection and audits every rollback bit-for-bit.  Failures are
  shrunk before they are saved.
* **recovery** — programs under runtime fault injection must complete
  clean, complete degraded or abort restored
  (:func:`repro.resilience.harness.run_resilience_program`).
* **snapshots** — the rotating save-crash / restore-crash / corruption
  / differential-rig schedule over the snapshot pipeline
  (:data:`repro.snapshots.fuzz.EXERCISES`).
* **chaos** — seeded overload, fault and poison configs through the
  serving core, each run twice for digest determinism
  (:func:`repro.serve.chaos.run_chaos`).
* **self-test** — plant each bug of :mod:`repro.testing.planted`,
  prove the differential exercise finds it and shrinks it to at most
  12 ops, and that the shrunk program passes without the bug.

``--replay PATH`` re-runs one ``repro-corpus/1`` entry through the same
:func:`replay` the corpus replay test uses.

Examples::

    PYTHONPATH=src python -m repro.testing.fuzz differential --runs 3 --ops 2000
    PYTHONPATH=src python -m repro.testing.fuzz recovery --runs 200 --require-coverage
    PYTHONPATH=src python -m repro.testing.fuzz self-test
    PYTHONPATH=src python -m repro.testing.fuzz --replay tests/corpus/<entry>.json

Exit codes: 0 clean, 1 violation (or a failed replay), 2 usage error,
budget exhausted, coverage gap or self-test failure.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Set

from ..errors import BudgetExceededError, InvalidParameterError
from .corpus import (
    Exercise, Outcome, check_expect, entry, load_entry, save_entry, take,
)
from .executor import RunReport, run_sequence
from .generator import generate
from .ops import OpSequence
from .planted import PLANTED
from .shrinker import shrink

__all__ = [
    "DIFFERENTIAL",
    "EXERCISES",
    "exercise",
    "fuzz",
    "main",
    "replay",
    "self_test",
]

#: Exercise name -> ``module:attribute``, imported on first use so this
#: package does not import the serving layer at module level.
EXERCISES: Dict[str, str] = {
    "differential": "repro.testing.fuzz:DIFFERENTIAL",
    "recovery": "repro.resilience.harness:RECOVERY",
    "snapshots": "repro.snapshots.fuzz:SNAPSHOTS",
    "chaos": "repro.serve.chaos:CHAOS",
}

# Contraction batches are ~an order of magnitude heavier than list ops
# (each one re-derives the rake trace); scenario 'all' scales them down
# so the CI smoke load stays inside its budget.
CONTRACTION_OPS_DIVISOR = 10

#: Self-test search space and bound on the shrunk reproducer length.
SELF_TEST_SEEDS = 10
SELF_TEST_OPS = 80
MAX_SHRUNK_OPS = 12


class _Differential(Exercise):
    name = "differential"
    coverage = ("list", "contraction")
    default_size = 500
    options = frozenset(
        {"backend", "scenario", "crash_seed", "op_budget", "wall_timeout"}
    )

    def _programs(
        self, seed: int, size: int, scenario: str, crash_seed: Optional[int]
    ) -> Iterator[OpSequence]:
        for name in ("list", "contraction") if scenario == "all" else (scenario,):
            n_ops = size
            if name == "contraction" and scenario == "all":
                n_ops = max(1, size // CONTRACTION_OPS_DIVISOR)
            profile = "default"
            if crash_seed is not None and name == "list":
                profile = "batch"
            elif scenario == "contraction" and seed % 2:
                # Odd seeds of a contraction-only run take the wide
                # structural batches of the FlatContraction workout.
                profile = "contraction-heavy"
            yield generate(name, seed, n_ops, profile=profile)

    def run_seed(
        self,
        seed: int,
        size: int,
        *,
        backend: str = "both",
        scenario: str = "all",
        crash_seed: Optional[int] = None,
        op_budget: Optional[int] = None,
        wall_timeout: Optional[float] = None,
    ) -> Outcome:
        reports = [
            run_sequence(
                seq, backend=backend, crash_seed=crash_seed,
                op_budget=op_budget, wall_timeout=wall_timeout,
            )
            for seq in self._programs(seed, size, scenario, crash_seed)
        ]
        return _classify(reports, crash_seed is not None)

    def reproducer(
        self, seed: int, size: int, outcome: Outcome, *,
        backend: str = "both", scenario: str = "all",
        crash_seed: Optional[int] = None, **_budgets: Any,
    ) -> Dict[str, Any]:
        def fails(cand: OpSequence) -> bool:
            return not run_sequence(cand, backend=backend, crash_seed=crash_seed).ok

        seq = next(
            s for s in self._programs(seed, size, scenario, crash_seed) if fails(s)
        )
        shrunk = shrink(seq, fails).sequence
        final = run_sequence(shrunk, backend=backend, crash_seed=crash_seed)
        inp: Dict[str, Any] = {"program": shrunk.to_json(), "backend": backend}
        expect = {}
        if crash_seed is not None:
            # The replay re-arms the same crash schedule, which must fire.
            inp["crash_seed"] = crash_seed
            expect["min_crashes"] = 1
        return entry(self.name, inp, expect, note=str(final.failure))

    def replay_entry(self, data: Mapping[str, Any]) -> Outcome:
        inp = take(data["input"], ("program", "backend", "crash_seed"), "input")
        report = run_sequence(
            OpSequence.from_json(inp["program"]),
            backend=inp["backend"],
            crash_seed=inp.get("crash_seed"),
        )
        if report.ok:
            check_expect(data["expect"], {"min_crashes": report.crashes})
        return _classify([report], "crash_seed" in inp)


def _classify(reports: List[RunReport], crashing: bool) -> Outcome:
    parts = []
    for r in reports:
        crashes = f"crashes={r.crashes}  " if crashing else ""
        parts.append(
            f"{r.scenario} ops={r.ops_executed} checks={r.checks}  "
            f"{crashes}final_n={r.final_n}"
        )
    bad = [r for r in reports if not r.ok]
    return Outcome(
        ok=not bad,
        label="clean",
        classes=frozenset(r.scenario for r in reports if r.ok),
        failure=str(bad[0].failure) if bad else None,
        line="; ".join(parts),
        detail=reports,
    )


DIFFERENTIAL = _Differential()


def exercise(name: str) -> Exercise:
    """The exercise registered as ``name``."""
    if name not in EXERCISES:
        raise InvalidParameterError(f"unknown exercise {name!r}")
    module, attr = EXERCISES[name].split(":")
    ex: Exercise = getattr(importlib.import_module(module), attr)
    return ex


def _verdict(call: Callable[[], Outcome]) -> Outcome:
    """``call()``, with any escape but a budget stop classified as a
    failed outcome."""
    try:
        return call()
    except BudgetExceededError:
        raise
    except Exception as exc:  # outcome-classification boundary
        return Outcome(False, "FAILED", failure=f"{type(exc).__name__}: {exc}")


def replay(path: str) -> Outcome:
    """Replay one corpus entry: the run must be clean and every
    ``expect`` clause must hold.  Behind both ``--replay`` and the
    corpus replay test."""

    def go() -> Outcome:
        data = load_entry(path)
        return exercise(data["exercise"]).replay_entry(data)

    return _verdict(go)


def fuzz(
    name: str,
    *,
    seed: int = 0,
    runs: int = 1,
    size: Optional[int] = None,
    save: bool = True,
    require_coverage: bool = False,
    **options: Any,
) -> int:
    """The seed loop; returns the CLI exit code.  A ``crash_seed``
    option advances with the seed."""
    ex = exercise(name)
    size = ex.default_size if size is None else size
    tally: Dict[str, int] = {}
    seen: Set[str] = set()
    rc = 0
    t0 = time.perf_counter()
    for k in range(max(1, runs)):
        s = seed + k
        opts = dict(options)
        if opts.get("crash_seed") is not None:
            opts["crash_seed"] += k
        t_run = time.perf_counter()
        try:
            outcome = _verdict(lambda: ex.run_seed(s, size, **opts))
        except BudgetExceededError as exc:
            print(
                f"[{name}] budget exceeded ({exc.budget}) on seed {s}: {exc}",
                file=sys.stderr,
            )
            return 2
        status = "ok" if outcome.ok else "FAIL"
        print(
            f"[{name}] {status:>4}  seed={s}  {outcome.line}  "
            f"{time.perf_counter() - t_run:.2f}s"
        )
        label = outcome.label if outcome.ok else "FAILED"
        tally[label] = tally.get(label, 0) + 1
        seen |= outcome.classes
        if not outcome.ok:
            rc = 1
            print(f"[{name}] violation: {outcome.failure}")
            if save:
                path = save_entry(ex.reproducer(s, size, outcome, **opts))
                print(f"[{name}] reproducer written to {path}")
    hit = [c for c in ex.coverage if c in seen]
    print(
        f"[{name}] {max(1, runs)} runs in {time.perf_counter() - t0:.1f}s: "
        + "  ".join(f"{k}={v}" for k, v in sorted(tally.items()))
        + f"; covered {len(hit)}/{len(ex.coverage)} classes ({', '.join(hit)})"
    )
    missing = [c for c in ex.coverage if c not in seen]
    if require_coverage and rc == 0 and missing:
        print(
            f"[{name}] coverage failure: {'/'.join(missing)} never "
            "observed — widen --runs",
            file=sys.stderr,
        )
        return 2
    return rc


def self_test() -> int:
    """Planted-bug self-verification (see module docstring).

    Journal bugs (``needs_crash``) only corrupt the *rollback* path,
    so for those the search, the shrink predicate and the final clean
    re-run all arm crash injection — the clean run then doubles as a
    true-rollback check on the shrunk program."""
    failures: List[str] = []
    for name, bug in sorted(PLANTED.items()):
        profile = "batch" if bug.needs_crash else "default"
        found = None
        for seed in range(SELF_TEST_SEEDS):
            report = run_sequence(
                generate("list", seed, SELF_TEST_OPS, profile=profile),
                backend="both",
                planted=name,
                crash_seed=seed if bug.needs_crash else None,
            )
            if not report.ok:
                found = seed
                break
        if found is None:
            failures.append(
                f"{name}: not detected in {SELF_TEST_SEEDS} seeds x "
                f"{SELF_TEST_OPS} ops"
            )
            print(f"[self-test] FAIL {name}: planted bug never detected")
            continue
        seq = generate("list", found, SELF_TEST_OPS, profile=profile)
        crash = found if bug.needs_crash else None

        def fails(cand: OpSequence) -> bool:
            return not run_sequence(
                cand, backend="both", planted=name, crash_seed=crash
            ).ok

        result = shrink(seq, fails)
        n_shrunk = len(result.sequence.ops)
        # bug removed (crash schedule kept for needs_crash bugs)
        clean = run_sequence(result.sequence, backend="both", crash_seed=crash)
        detail = (
            f"seed {found}: {len(seq.ops)} -> {n_shrunk} ops "
            f"({result.attempts} replays)"
        )
        if n_shrunk > MAX_SHRUNK_OPS:
            failures.append(f"{name}: shrunk to {n_shrunk} ops > {MAX_SHRUNK_OPS}")
            print(f"[self-test] FAIL {name}: {detail} — too large")
        elif not clean.ok:
            failures.append(
                f"{name}: shrunk program still fails without the bug "
                f"({clean.failure}) — real bug or flaky oracle?"
            )
            print(f"[self-test] FAIL {name}: shrunk repro fails cleanly")
        else:
            print(
                f"[self-test]  ok  {name}: {detail}; expected "
                f"oracle: {bug.detected_by}"
            )
    if failures:
        print("\nplanted-bug self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 2
    print(f"[self-test] all {len(PLANTED)} planted bugs detected and shrunk.")
    return 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument(
        "exercise", nargs="?", choices=[*EXERCISES, "self-test"],
        help="what to fuzz (omit with --replay)",
    )
    ap.add_argument("--seed", type=int, default=0, help="first seed")
    ap.add_argument(
        "--runs", type=int, default=1, metavar="K",
        help="run K consecutive seeds starting at --seed",
    )
    ap.add_argument(
        "--ops", type=int, default=None, metavar="N",
        help="ops per program (differential, recovery) or requests per "
        "run (chaos); snapshots ignores it",
    )
    ap.add_argument(
        "--require-coverage", action="store_true",
        help="exit 2 unless every coverage class of the exercise was observed",
    )
    ap.add_argument(
        "--no-save", action="store_true",
        help="do not write reproducers to tests/corpus/",
    )
    ap.add_argument(
        "--replay", metavar="PATH", default=None,
        help="replay one corpus entry and exit",
    )
    diff = ap.add_argument_group("differential only")
    diff.add_argument(
        "--backend", choices=["reference", "flat", "both"],
        help="subject backends (default 'both' = lockstep differential)",
    )
    diff.add_argument(
        "--scenario", choices=["all", "list", "contraction"],
        help="workload family (default: both scenarios)",
    )
    diff.add_argument(
        "--crash-seed", type=int, metavar="N",
        help="arm mid-batch crash injection with seed N (+1 per run)",
    )
    diff.add_argument(
        "--op-budget", type=int, metavar="N",
        help="exit 2 once one program has executed N ops (hang guard)",
    )
    diff.add_argument(
        "--wall-timeout", type=float, metavar="S",
        help="exit 2 once one program has run S seconds (hang guard)",
    )
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    if args.replay is not None:
        if args.exercise is not None:
            ap.error("--replay takes no exercise")
        outcome = replay(args.replay)
        status = "ok" if outcome.ok else f"FAIL: {outcome.failure}"
        print(f"[replay] {os.path.basename(args.replay)}: {status}")
        return 0 if outcome.ok else 1
    if args.exercise is None:
        ap.error("name an exercise or pass --replay")
    options = {
        k: getattr(args, k)
        for k in sorted(DIFFERENTIAL.options)
        if getattr(args, k) is not None
    }
    accepted = (
        frozenset() if args.exercise == "self-test"
        else exercise(args.exercise).options
    )
    extra = [k for k in options if k not in accepted]
    if extra:
        ap.error(f"{args.exercise} takes no --{extra[0].replace('_', '-')}")
    if args.exercise == "self-test":
        return self_test()
    return fuzz(
        args.exercise,
        seed=args.seed,
        runs=args.runs,
        size=args.ops,
        save=not args.no_save,
        require_coverage=args.require_coverage,
        **options,
    )


if __name__ == "__main__":
    raise SystemExit(main())
