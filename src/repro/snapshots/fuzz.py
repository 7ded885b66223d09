"""CLI entry point: ``python -m repro.snapshots.fuzz``.

Snapshot fuzzing (PR 8): seeded crash + corruption programs over the
unified snapshot save/restore pipeline.  Each seed runs one exercise
from a rotating schedule on a rotating backend (reference / flat):

* ``differential`` — a generated list program replayed through the
  executor's snapshot differential rig (capture -> mutate -> restore ->
  replay, bit-for-bit on both sides; ``persist`` mode also round-trips
  every captured state through the serialization codec);
* ``save-crash`` — a crash is injected at a seeded
  :class:`~repro.snapshots.persist.SnapshotIO` stage during ``save``
  over an existing good snapshot file; the file must afterwards load as
  *either* the old or the new state (atomicity — never a torn mix),
  matching the stage the crash hit, and a retried save must land the
  new state;
* ``restore-crash`` — a crash is injected mid-``restore`` (between
  columns), leaving the target torn in memory; a re-restore must still
  land bit-for-bit on the loaded state and leave a live structure;
* ``corruption`` — a newer snapshot file is damaged at a seeded byte
  (truncation, bit flip, bad magic); a direct ``load`` must raise the
  right taxonomy error and :func:`~repro.snapshots.persist.load_newest`
  must fall back to the older intact file while reporting the damage.

Contract violations raise (and exit 1); ``--require-coverage`` fails
unless every exercise class — including at least one *fired* save
crash and restore crash — was observed across the runs.

Examples::

    PYTHONPATH=src python -m repro.snapshots.fuzz --seed 0 --runs 24
    PYTHONPATH=src python -m repro.snapshots.fuzz --runs 48 --require-coverage

Exit codes: 0 clean, 1 contract violation, 2 usage / coverage failure.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..algebra.monoid import sum_monoid
from ..algebra.rings import INTEGER
from ..errors import (
    InvalidParameterError,
    SnapshotChecksumError,
    SnapshotFormatError,
)
from ..listprefix.structure import IncrementalListPrefix
from ..testing.crashes import CrashController, CrashInjected, snapshot_crash_points
from ..testing.generator import generate
from ..testing.oracles import shape_signature
from .core import SnapshotState
from .persist import load, load_newest, save

__all__ = [
    "EXERCISES",
    "exercise_corruption",
    "exercise_differential",
    "exercise_restore_crash",
    "exercise_save_crash",
    "fuzz_one",
    "main",
    "run_exercise",
    "states_equal",
]

BACKENDS = ("reference", "flat")

#: Save has 3 SnapshotIO stages; arming past them exercises the
#: no-crash overshoot path.
_SAVE_WINDOW = 4
#: Flat restores tick ~14 stages (begin + 12 columns + scalars), the
#: reference deep restore 3; a window of 8 fires mid-restore on flat
#: most of the time and overshoots on reference some of the time.
_RESTORE_WINDOW = 8

_CORRUPTIONS = ("truncate", "bitflip", "magic")


def _build(seed: int, backend: str) -> IncrementalListPrefix:
    """A small, seeded, non-trivially mutated structure (deterministic
    pure function of ``(seed, backend)``)."""
    rng = random.Random(("snapfuzz-build", seed, backend).__repr__())
    vals = [rng.randrange(100) for _ in range(rng.randint(4, 16))]
    lp = IncrementalListPrefix(
        sum_monoid(INTEGER), vals, seed=seed, backend=backend
    )
    lp.batch_insert(
        [(rng.randrange(len(vals) + 1), rng.randrange(100)) for _ in range(4)]
    )
    n = len(lp.values())
    doomed = sorted({rng.randrange(n) for _ in range(3)})
    lp.batch_delete([lp.handle_at(i) for i in doomed])
    return lp


def _mutate(lp: IncrementalListPrefix, seed: int) -> None:
    rng = random.Random(("snapfuzz-mutate", seed).__repr__())
    n = len(lp.values())
    lp.batch_insert(
        [(rng.randrange(n + 1), rng.randrange(100)) for _ in range(3)]
    )
    lp.delete(lp.handle_at(rng.randrange(len(lp.values()))))


def states_equal(a: SnapshotState, b: SnapshotState) -> bool:
    """Field-identical comparison; handle columns compare as their
    persisted presence masks (handle objects never round-trip)."""
    if (
        a.backend != b.backend
        or a.n != b.n
        or a.root_index != b.root_index
        or list(a.free) != list(b.free)
        or a.rng_state != b.rng_state
        or a.next_id != b.next_id
        or a.highwater != b.highwater
        or a.stats != b.stats
        or set(a.columns) != set(b.columns)
    ):
        return False
    for name, avals in a.columns.items():
        bvals = b.columns[name]
        if name == "_handle":
            # Live states hold handle objects, loaded states the 0/1
            # presence mask — normalize both to the mask.
            avals = [0 if (h is None or h == 0) else 1 for h in avals]
            bvals = [0 if (h is None or h == 0) else 1 for h in bvals]
        if avals != bvals:
            return False
    return True


def _scratch(backend: str) -> IncrementalListPrefix:
    return IncrementalListPrefix(
        sum_monoid(INTEGER), [0, 0], seed=0, backend=backend
    )


# ---------------------------------------------------------------------------
# exercises
# ---------------------------------------------------------------------------


def exercise_differential(seed: int, backend: str) -> str:
    from ..testing.executor import run_sequence

    # The schedule hands this exercise every len(_SCHEDULE)-th seed, so
    # derive the mode from the schedule round, not the raw seed parity.
    mode = "persist" if (seed // 4) % 2 else "state"
    seq = generate("list", seed, 20)
    report = run_sequence(
        seq, backend=backend, snapshot_seed=seed, snapshot_mode=mode
    )
    if not report.ok:
        raise AssertionError(
            f"differential(seed={seed}, backend={backend}, mode={mode}): "
            f"{report.failure}"
        )
    return f"differential-{mode}"


def exercise_save_crash(seed: int, backend: str) -> str:
    """Crash mid-save over an existing good snapshot; the file must
    stay loadable as exactly the old or the new state (stage-matched),
    and a retried save must complete."""
    lp = _build(seed, backend)
    old = SnapshotState.capture(lp.tree)
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "state.snap"
        save(old, target)
        _mutate(lp, seed)
        new = SnapshotState.capture(lp.tree)
        ctl = CrashController()
        point = random.Random(("snapfuzz-save", seed).__repr__()).randint(
            1, _SAVE_WINDOW
        )
        fired = False
        with snapshot_crash_points(ctl):
            ctl.arm(point)
            try:
                save(new, target)
            except CrashInjected:
                fired = True
            finally:
                ctl.disarm()
        on_disk = load(target)  # must verify clean whatever happened
        # Stages 1-2 fire before os.replace -> old file intact; stage 3
        # (and overshoot) fire after -> new file complete.
        expect = old if (fired and point <= 2) else new
        if not states_equal(on_disk, expect):
            raise AssertionError(
                f"save-crash(seed={seed}, backend={backend}, point={point}): "
                f"on-disk state is neither cleanly old nor cleanly new"
            )
        save(new, target)  # the retry must land the new state
        if not states_equal(load(target), new):
            raise AssertionError(
                f"save-crash(seed={seed}, backend={backend}): retried save "
                "did not land the new state"
            )
    return "save-crash" if fired else "save-overshoot"


def exercise_restore_crash(seed: int, backend: str) -> str:
    """Crash mid-restore (tree torn in memory); the re-restore must
    land bit-for-bit and leave a live structure."""
    lp = _build(seed, backend)
    want_sig = shape_signature(lp.tree)
    want_rng = lp.rng_state()
    want_stats = dict(lp.tree.last_batch_stats)
    with tempfile.TemporaryDirectory() as tmp:
        path = save(SnapshotState.capture(lp.tree), Path(tmp) / "state.snap")
        loaded = load(path)
    target = _scratch(backend)
    ctl = CrashController()
    point = random.Random(("snapfuzz-restore", seed).__repr__()).randint(
        1, _RESTORE_WINDOW
    )
    fired = False
    with snapshot_crash_points(ctl):
        ctl.arm(point)
        try:
            loaded.restore(target.tree)
        except CrashInjected:
            fired = True
        finally:
            ctl.disarm()
        loaded.restore(target.tree)  # re-restore over the torn state
    if shape_signature(target.tree) != want_sig:
        raise AssertionError(
            f"restore-crash(seed={seed}, backend={backend}, point={point}): "
            "re-restore did not reproduce the captured shape"
        )
    if target.rng_state() != want_rng:
        raise AssertionError(
            f"restore-crash(seed={seed}, backend={backend}): RNG state lost"
        )
    if dict(target.tree.last_batch_stats) != want_stats:
        raise AssertionError(
            f"restore-crash(seed={seed}, backend={backend}): stats lost"
        )
    target.check_invariants()
    # The restored structure must be live, not a husk.
    target.insert(0, 7)
    target.check_invariants()
    return "restore-crash" if fired else "restore-overshoot"


def _corrupt(raw: bytes, kind: str, rng: random.Random) -> bytes:
    if kind == "truncate":
        return raw[: rng.randrange(1, len(raw))]
    if kind == "bitflip":
        i = rng.randrange(len(raw))
        return raw[:i] + bytes([raw[i] ^ (1 << rng.randrange(8))]) + raw[i + 1 :]
    if kind == "magic":
        return b"NOTSNAP0" + raw[8:]
    raise InvalidParameterError(f"unknown corruption kind {kind!r}")


def exercise_corruption(seed: int, backend: str) -> str:
    """Damage the newest of two snapshot files: direct load must raise
    the taxonomy error, and ``load_newest`` must fall back to the older
    intact file while reporting the damage."""
    rng = random.Random(("snapfuzz-corrupt", seed).__repr__())
    kind = _CORRUPTIONS[seed % len(_CORRUPTIONS)]
    lp = _build(seed, backend)
    old = SnapshotState.capture(lp.tree)
    _mutate(lp, seed)
    new = SnapshotState.capture(lp.tree)
    with tempfile.TemporaryDirectory() as tmp:
        old_path = save(old, Path(tmp) / "a-old.snap")
        new_path = save(new, Path(tmp) / "b-new.snap")
        os.utime(old_path, (1_000_000, 1_000_000))
        os.utime(new_path, (2_000_000, 2_000_000))
        new_path.write_bytes(_corrupt(new_path.read_bytes(), kind, rng))
        try:
            load(new_path)
        except (SnapshotFormatError, SnapshotChecksumError):
            pass  # the taxonomy caught it — exactly the contract
        else:
            raise AssertionError(
                f"corruption(seed={seed}, backend={backend}, kind={kind}): "
                "load returned a state from a damaged file"
            )
        result = load_newest(tmp)
        if result.path != old_path:
            raise AssertionError(
                f"corruption(seed={seed}, kind={kind}): load_newest picked "
                f"{result.path.name}, expected the intact older file"
            )
        if not states_equal(result.state, old):
            raise AssertionError(
                f"corruption(seed={seed}, kind={kind}): recovered state is "
                "not the older snapshot"
            )
        if not any(r.path == new_path for r in result.damage):
            raise AssertionError(
                f"corruption(seed={seed}, kind={kind}): damage to "
                f"{new_path.name} went unreported"
            )
    return f"corruption-{kind}-recovered"


EXERCISES = {
    "differential": exercise_differential,
    "save-crash": exercise_save_crash,
    "restore-crash": exercise_restore_crash,
    "corruption": exercise_corruption,
}

_SCHEDULE = ("differential", "save-crash", "restore-crash", "corruption")

#: Outcome prefixes --require-coverage demands at least one of each.
_COVERAGE = (
    "differential",
    "save-crash",
    "restore-crash",
    "corruption",
)


def run_exercise(name: str, seed: int, *, backend: str = "flat") -> str:
    """Run one named exercise; raises on any contract violation and
    returns the outcome class.  This is also the corpus-replay entry
    point for ``pinned-snapshot-*`` entries."""
    if name not in EXERCISES:
        raise InvalidParameterError(f"unknown snapshot exercise {name!r}")
    if backend not in BACKENDS:
        raise InvalidParameterError(f"unknown backend {backend!r}")
    return EXERCISES[name](seed, backend)


def fuzz_one(seed: int, *, verbose: bool = True) -> Tuple[str, Optional[str]]:
    """One seeded run of the rotating exercise/backend schedule; returns
    ``(outcome, failure-or-None)``."""
    name = _SCHEDULE[seed % len(_SCHEDULE)]
    backend = BACKENDS[(seed // len(_SCHEDULE)) % len(BACKENDS)]
    t0 = time.perf_counter()
    try:
        outcome = run_exercise(name, seed, backend=backend)
        failure = None
    except Exception as exc:
        outcome = f"{name}-FAILED"
        failure = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if verbose:
        status = "ok" if failure is None else "FAIL"
        print(
            f"[snapshots] {status:>4}  seed={seed}  {backend:>9}  "
            f"{outcome}  {dt:.2f}s"
        )
        if failure is not None:
            print(f"[snapshots] violation: {failure}")
    return outcome, failure


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.snapshots.fuzz",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--seed", type=int, default=0, help="first seed")
    ap.add_argument(
        "--runs", type=int, default=12, metavar="K",
        help="fuzz K consecutive seeds starting at --seed",
    )
    ap.add_argument(
        "--require-coverage", action="store_true",
        help="fail unless every exercise class (differential, fired "
        "save-crash, fired restore-crash, corruption-recovered) was "
        "observed across the runs",
    )
    ap.add_argument("--quiet", action="store_true", help="summary line only")
    args = ap.parse_args(argv)

    tally: Dict[str, int] = {}
    rc = 0
    t0 = time.perf_counter()
    for run in range(max(1, args.runs)):
        outcome, failure = fuzz_one(args.seed + run, verbose=not args.quiet)
        tally[outcome] = tally.get(outcome, 0) + 1
        if failure is not None:
            rc = 1
    dt = time.perf_counter() - t0
    print(
        f"[snapshots] {max(1, args.runs)} runs in {dt:.1f}s: "
        + "  ".join(f"{k}={v}" for k, v in sorted(tally.items()))
    )
    if args.require_coverage and rc == 0:
        missing = [
            want
            for want in _COVERAGE
            if not any(
                k.startswith(want) and not k.endswith("FAILED") and "overshoot" not in k
                for k in tally
            )
        ]
        if missing:
            print(
                f"[snapshots] coverage failure: no {'/'.join(missing)} "
                "outcome observed — widen --runs",
                file=sys.stderr,
            )
            return 2
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
