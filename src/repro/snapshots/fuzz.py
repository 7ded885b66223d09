"""Snapshot fuzzing: seeded crash + corruption programs over the
unified snapshot save/restore pipeline.

:data:`SNAPSHOTS` is the ``snapshots`` exercise of the fuzz driver
(``python -m repro.testing.fuzz snapshots``).  Each seed runs one
exercise from a rotating schedule on a rotating backend (reference /
flat):

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
  must fall back to the older intact file while reporting the damage;
* ``pinned`` — a generated list program is pinned at a seeded op and
  the rest of it runs under the pin with every batch crash-armed
  (crashed batches roll back, then re-apply); after every op the
  reader must answer the pin-time list, and ``state()`` must carry the
  pin-time image and master-RNG state.

Contract violations raise; ``--require-coverage`` fails unless every
exercise class — including at least one *fired* save crash and restore
crash, and one pinned run with a crash under the pin — was observed
across the runs.
"""

from __future__ import annotations

import os
import random
import tempfile
from itertools import accumulate
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple

from ..algebra.monoid import sum_monoid
from ..algebra.rings import INTEGER
from ..errors import (
    InvalidParameterError,
    SnapshotChecksumError,
    SnapshotFormatError,
)
from ..listprefix.structure import IncrementalListPrefix
from ..testing.corpus import Exercise, Outcome, check_expect, entry, take
from ..testing.crashes import (
    CrashController,
    CrashInjected,
    crash_points,
    snapshot_crash_points,
)
from ..testing.executor import _ListRunner, run_sequence
from ..testing.generator import generate
from ..testing.ops import OpSequence
from ..testing.oracles import shape_signature
from .core import SnapshotState
from .persist import load, load_newest, save

__all__ = [
    "EXERCISES",
    "SNAPSHOTS",
    "exercise_corruption",
    "exercise_differential",
    "exercise_pinned",
    "exercise_restore_crash",
    "exercise_save_crash",
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
    # The schedule hands this exercise every len(_SCHEDULE)-th seed, so
    # derive the mode from the schedule round, not the raw seed parity.
    mode = "persist" if (seed // len(_SCHEDULE)) % 2 else "state"
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


def _pinned_image(state: SnapshotState) -> Tuple[Any, ...]:
    """Everything a pinned version fixes; the ``_handle`` column is a
    lazy interning cache that reads may fill, so it is left out."""
    columns = {k: v for k, v in state.columns.items() if k != "_handle"}
    return (
        state.backend, state.n, state.root_index, list(state.free),
        state.rng_state, state.next_id, state.highwater, state.stats, columns,
    )


def _check_pinned_answers(reader: Any, model: List[Any], monoid: Any, where: str) -> None:
    n = len(model)
    prefixes = list(accumulate(model, monoid.combine))
    answers = [
        ("len", len(reader), n),
        ("total", reader.total(), monoid.fold(model)),
    ]
    for i in range(n):
        answers.append((f"value_at({i})", reader.value_at(i), model[i]))
        answers.append((f"prefix({i})", reader.prefix(i), prefixes[i]))
        j = n - 1 - i
        if i <= j:
            answers.append(
                (f"range_fold({i}, {j})", reader.range_fold(i, j),
                 monoid.fold(model[i : j + 1]))
            )
    for what, got, want in answers:
        if got != want:
            raise AssertionError(
                f"{where}: pinned {what} = {got!r}, pin-time model {want!r}"
            )


def exercise_pinned(seed: int, backend: str) -> str:
    """Pin a generated list program at a seeded op and run the rest
    under the pin, every batch crash-armed; the reader must answer the
    pin-time model throughout, and its ``state()`` must be the pin-time
    image including the master-RNG state."""
    seq = generate("list", seed, 20)
    # Pin in the first half, so at least half the program runs under it.
    pin_at = random.Random(("snapfuzz-pinned", seed).__repr__()).randrange(
        len(seq.ops) // 2 + 1
    )
    ctl = CrashController()
    runner = _ListRunner(
        seq, backend, "recompute",
        (ctl, random.Random(("crash", seed).__repr__())),
    )
    lp = runner.subjects[backend]
    with crash_points(ctl):
        for op in seq.ops[:pin_at]:
            runner.apply(op)
        model = list(runner.model)
        want = SnapshotState.capture(lp.tree)
        crashes = runner.crashes
        with lp.tree.pinned_reader(monoid=runner.monoid) as reader:
            for k, op in enumerate(seq.ops[pin_at:], pin_at):
                runner.apply(op)
                runner.audit()
                where = f"pinned(seed={seed}, backend={backend}, pin@{pin_at}, op[{k}])"
                _check_pinned_answers(reader, model, runner.monoid, where)
            where = f"pinned(seed={seed}, backend={backend}, pin@{pin_at})"
            got = reader.state()
            if got.rng_state != want.rng_state:
                raise AssertionError(f"{where}: state() lost the pin-time RNG state")
            if _pinned_image(got) != _pinned_image(want):
                raise AssertionError(f"{where}: state() is not the pin-time image")
            if reader.values() != model:
                raise AssertionError(f"{where}: values() drifted from the pin-time list")
            _check_pinned_answers(reader, model, runner.monoid, where)
    return "pinned" if runner.crashes > crashes else "pinned-overshoot"


EXERCISES = {
    "differential": exercise_differential,
    "save-crash": exercise_save_crash,
    "restore-crash": exercise_restore_crash,
    "corruption": exercise_corruption,
    "pinned": exercise_pinned,
}

_SCHEDULE = ("differential", "save-crash", "restore-crash", "corruption", "pinned")


def run_exercise(name: str, seed: int, *, backend: str = "flat") -> str:
    """Run one named exercise; raises on any contract violation and
    returns the outcome class.  This is also the corpus-replay entry
    point for ``pinned-snapshot-*`` entries."""
    if name not in EXERCISES:
        raise InvalidParameterError(f"unknown snapshot exercise {name!r}")
    if backend not in BACKENDS:
        raise InvalidParameterError(f"unknown backend {backend!r}")
    return EXERCISES[name](seed, backend)


def _scheduled(seed: int) -> Dict[str, Any]:
    return {
        "snapshot_exercise": _SCHEDULE[seed % len(_SCHEDULE)],
        "exercise_seed": seed,
        "exercise_backend": BACKENDS[(seed // len(_SCHEDULE)) % len(BACKENDS)],
    }


def _classify(outcome: str, backend: str, report: Any = None) -> Outcome:
    # An overshoot (the armed crash never fired) covers nothing.
    classes = frozenset(
        name for name in _SCHEDULE
        if outcome.startswith(name) and "overshoot" not in outcome
    )
    return Outcome(
        ok=True, label=outcome, classes=classes,
        line=f"{backend:>9}  {outcome}", detail=report,
    )


class _Snapshots(Exercise):
    name = "snapshots"
    coverage = _SCHEDULE
    default_size = 20

    def run_seed(self, seed: int, size: int, **options: Any) -> Outcome:
        s = _scheduled(seed)
        outcome = run_exercise(
            s["snapshot_exercise"], seed, backend=s["exercise_backend"]
        )
        return _classify(outcome, s["exercise_backend"])

    def reproducer(
        self, seed: int, size: int, outcome: Outcome, **options: Any
    ) -> Dict[str, Any]:
        return entry(self.name, _scheduled(seed), note=outcome.failure or "")

    def replay_entry(self, data: Mapping[str, Any]) -> Outcome:
        """An optional ``program`` first runs through the differential
        rig (``snapshot_seed``/``snapshot_mode``) on ``backend``; then
        the named exercise runs."""
        inp = take(
            data["input"],
            (
                "program", "backend", "snapshot_seed", "snapshot_mode",
                "snapshot_exercise", "exercise_seed", "exercise_backend",
            ),
            "input",
        )
        report = None
        if "program" in inp:
            report = run_sequence(
                OpSequence.from_json(inp["program"]),
                backend=inp["backend"],
                snapshot_seed=inp["snapshot_seed"],
                snapshot_mode=inp["snapshot_mode"],
            )
            if not report.ok:
                return Outcome(
                    False, "FAILED", failure=str(report.failure), detail=report
                )
        backend = inp["exercise_backend"]
        outcome = run_exercise(
            inp["snapshot_exercise"], int(inp["exercise_seed"]), backend=backend
        )
        check_expect(
            data["expect"],
            {
                "min_snapshots": 0 if report is None else report.snapshots,
                "exercise_outcome": outcome,
            },
        )
        return _classify(outcome, backend, report)


SNAPSHOTS = _Snapshots()
