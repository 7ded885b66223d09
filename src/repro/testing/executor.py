"""Replay an :class:`~repro.testing.ops.OpSequence` against live
structures with oracle checks after (by default) every operation.

The executor is a **pure function of the sequence**: all randomness is
drawn from seeds recorded in the sequence header, raw op integers are
normalised deterministically, and conflicting requests are skipped by
fixed rules — so the shrinker can re-run candidate subsequences and
trust that failure/pass is reproducible.

List scenario subjects: one :class:`~repro.listprefix.structure.
IncrementalListPrefix` per requested backend plus a plain Python list
(the naive model).  Contraction scenario subjects: one
:class:`~repro.contraction.dynamic.DynamicTreeContraction` per backend
plus a naive oracle from :data:`repro.baselines.CONTRACTION_ORACLES`
(recompute-from-scratch by default, the sequential §1.2 comparator on
request).
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..algebra.monoid import sum_monoid
from ..errors import BudgetExceededError, InvalidParameterError
from ..baselines import CONTRACTION_ORACLES
from ..contraction.dynamic import DynamicTreeContraction
from ..listprefix.structure import IncrementalListPrefix
from ..snapshots.core import SnapshotState
from ..splitting.activation import activate, ancestors_closure, deactivate
from ..trees.builders import random_tree
from ..trees.nodes import add_op, mul_op
from .crashes import CrashController, CrashInjected, crash_points
from .oracles import OracleViolation, assert_model, assert_twins, shape_signature
from .ops import FUZZ_RINGS, OpSequence, norm_value

__all__ = [
    "FailureInfo",
    "OracleViolation",
    "RunReport",
    "SNAPSHOT_MODES",
    "initial_values",
    "run_sequence",
]

_RAW = 1 << 16

#: ``"both"`` runs the reference/flat twin pair (shape-signature and
#: RNG lockstep).
BACKENDS = ("reference", "flat", "both")

#: Upper bound on the armed crash-point index.  Batch ops hit between 2
#: and ~15 interior crash points depending on backend and batch size, so
#: a window of 10 fires mid-batch most of the time while still leaving
#: an overshoot tail (armed point never reached -> the batch completes
#: normally, which doubles as a no-interference check).
_CRASH_WINDOW = 10

#: Probability that the snapshot differential rig guards any given
#: mutation (per subject).  Sampling keeps the O(n) deep captures from
#: dominating a fuzz run while the seed still steers *which* ops get
#: the capture -> mutate -> restore -> replay treatment.
_SNAP_RATE = 0.7

#: ``"state"`` exercises deep capture/restore only; ``"persist"``
#: additionally pushes every captured state through the serialization
#: codec (encode -> verify -> decode) and checks the decoded image is
#: field-identical before the restore/replay audit runs.
SNAPSHOT_MODES = ("state", "persist")


def _sig_divergence(a, b) -> str:
    if len(a) != len(b):
        return f"node counts {len(a)} vs {len(b)}"
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"first divergence at preorder node {i}: {y!r} != {x!r}"
    return "identical"  # pragma: no cover - callers check inequality first


@dataclass
class FailureInfo:
    """Where and how a replay failed (op index ``-1`` = construction)."""

    op_index: int
    op: Optional[list]
    phase: str
    exc_type: str
    message: str

    def __str__(self) -> str:
        where = "construction" if self.op_index < 0 else f"op[{self.op_index}]"
        opdesc = "" if self.op is None else f" {self.op!r}"
        return f"{where}{opdesc}: {self.exc_type} [{self.phase}] {self.message}"


@dataclass
class RunReport:
    scenario: str
    backend: str
    ops_executed: int = 0
    checks: int = 0
    final_n: int = 0
    crashes: int = 0  # injected mid-batch crashes that fired (+ rolled back)
    snapshots: int = 0  # differential snapshot audits that ran
    failure: Optional[FailureInfo] = None
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failure is None


def initial_values(seq: OpSequence) -> List[Any]:
    """The deterministic initial payloads (pure function of the header,
    so they shrink with ``n0``)."""
    rng = random.Random(("init", seq.seed, seq.ring).__repr__())
    return [norm_value(seq.ring, rng.randrange(_RAW)) for _ in range(seq.n0)]


def _planted_context(planted: Optional[str]):
    if planted is None:
        return nullcontext()
    from .planted import PLANTED  # local import: planting patches core classes

    return PLANTED[planted].activate()


def run_sequence(
    seq: OpSequence,
    *,
    backend: str = "both",
    check_every: int = 1,
    planted: Optional[str] = None,
    oracle: str = "recompute",
    crash_seed: Optional[int] = None,
    snapshot_seed: Optional[int] = None,
    snapshot_mode: str = "state",
    op_budget: Optional[int] = None,
    wall_timeout: Optional[float] = None,
) -> RunReport:
    """Replay ``seq``; return a report (never raises on subject bugs —
    violations and crashes are captured as :class:`FailureInfo`).

    ``crash_seed`` arms mid-batch crash injection (crashes.py): every
    batch op on the list scenario crashes at a seeded random interior
    point, the rollback is audited bit-for-bit (phase ``rollback``) and
    the batch is then re-applied cleanly, so the rest of the program —
    and every other oracle — still runs on the crash-free trajectory.
    The contraction scenario ignores it (its engine boundary is
    admission-only; the RBSTS underneath is covered by the list
    scenario and the engine's own sub-batches are already admitted).

    ``snapshot_seed`` arms the snapshot differential rig (mutually
    exclusive with ``crash_seed``): a seeded sample of mutating list
    ops is wrapped in capture -> mutate -> restore -> replay, auditing
    that the restore is bit-for-bit identical to never having mutated
    (shape signature, RNG state, ``last_batch_stats``, invariants) and
    that the replay lands bit-for-bit on the first application — on
    every backend.  ``snapshot_mode="persist"``
    additionally round-trips each captured state through the
    serialization codec.  The contraction scenario ignores it for the
    same admission-boundary reason as ``crash_seed``.

    ``op_budget`` / ``wall_timeout`` are hang guards: a run that
    executes more ops or more wall-clock seconds than budgeted *raises*
    :class:`~repro.errors.BudgetExceededError` (deliberately not
    captured as a :class:`FailureInfo` — budget exhaustion is an
    operational condition, not a subject bug; the seed in the message
    makes the slow program replayable).
    """
    if backend not in BACKENDS:
        raise InvalidParameterError(f"unknown backend {backend!r}")
    if snapshot_mode not in SNAPSHOT_MODES:
        raise InvalidParameterError(f"unknown snapshot mode {snapshot_mode!r}")
    if crash_seed is not None and snapshot_seed is not None:
        raise InvalidParameterError(
            "crash_seed and snapshot_seed are mutually exclusive: crash "
            "injection re-applies batches whose pre-state the snapshot "
            "rig would have already rewound"
        )
    report = RunReport(scenario=seq.scenario, backend=backend)
    t_start = time.monotonic()
    runner = _ListRunner if seq.scenario == "list" else _ContractionRunner
    crash_cfg = None
    crash_ctx = nullcontext()
    if crash_seed is not None and seq.scenario == "list":
        ctl = CrashController()
        crash_cfg = (ctl, random.Random(("crash", crash_seed).__repr__()))
        crash_ctx = crash_points(ctl)
    snap_cfg = None
    if snapshot_seed is not None and seq.scenario == "list":
        snap_cfg = (
            random.Random(("snapshot", snapshot_seed).__repr__()),
            snapshot_mode,
        )
    with _planted_context(planted), crash_ctx:
        try:
            machine = runner(seq, backend, oracle, crash_cfg, snap_cfg)
        except Exception as exc:  # construction failure
            report.failure = FailureInfo(
                -1, None, "construction", type(exc).__name__, str(exc)
            )
            return report
        for i, op in enumerate(seq.ops):
            if op_budget is not None and report.ops_executed >= op_budget:
                raise BudgetExceededError(
                    f"seed {seq.seed}: op budget {op_budget} exhausted at "
                    f"op[{i}] ({seq.describe()})",
                    budget="op-budget",
                    spent=report.ops_executed,
                )
            if wall_timeout is not None:
                elapsed = time.monotonic() - t_start
                if elapsed > wall_timeout:
                    raise BudgetExceededError(
                        f"seed {seq.seed}: wall timeout {wall_timeout}s "
                        f"exceeded at op[{i}] after {elapsed:.2f}s "
                        f"({seq.describe()})",
                        budget="wall-timeout",
                        spent=elapsed,
                    )
            try:
                machine.apply(op)
                if check_every <= 1 or i % check_every == 0 or i == len(seq.ops) - 1:
                    machine.audit()
                    report.checks += 1
            except BudgetExceededError:
                # A guard firing inside an op (e.g. a nested machine run
                # under a budget) must escape the crash net: hung
                # programs fail fast with the seed attached.
                raise
            except OracleViolation as exc:
                report.failure = FailureInfo(
                    i, op, exc.phase, type(exc).__name__, str(exc)
                )
                break
            except Exception as exc:
                report.failure = FailureInfo(
                    i, op, "crash", type(exc).__name__, str(exc)
                )
                break
            report.ops_executed += 1
            report.counts[op[0]] = report.counts.get(op[0], 0) + 1
        if report.failure is None:
            try:
                machine.audit()  # final audit even with check_every > 1
                report.checks += 1
            except OracleViolation as exc:
                report.failure = FailureInfo(
                    len(seq.ops) - 1, None, exc.phase, type(exc).__name__, str(exc)
                )
            except Exception as exc:
                report.failure = FailureInfo(
                    len(seq.ops) - 1, None, "crash", type(exc).__name__, str(exc)
                )
        report.final_n = machine.size()
        report.crashes = getattr(machine, "crashes", 0)
        report.snapshots = getattr(machine, "snapshots", 0)
    return report


# ---------------------------------------------------------------------------
# list scenario
# ---------------------------------------------------------------------------


class _ListRunner:
    """Drives IncrementalListPrefix subjects + the naive list model."""

    def __init__(
        self,
        seq: OpSequence,
        backend: str,
        oracle: str,
        crash_cfg=None,
        snap_cfg=None,
    ) -> None:
        self.seq = seq
        self.ring = FUZZ_RINGS[seq.ring]
        self.monoid = sum_monoid(self.ring)
        vals = initial_values(seq)
        self.model: List[Any] = list(vals)
        self.subjects: Dict[str, IncrementalListPrefix] = {}
        wanted = ("reference", "flat") if backend == "both" else (backend,)
        for name in wanted:
            self.subjects[name] = IncrementalListPrefix(
                self.monoid, vals, seed=seq.seed, backend=name
            )
        self.both = backend == "both"
        self.crash = crash_cfg  # None or (CrashController, random.Random)
        self.crashes = 0
        self.snap = snap_cfg  # None or (random.Random, mode)
        self.snapshots = 0

    # -- crash-point / snapshot harness -----------------------------------
    def _guarded(self, what: str, name: str, lp, thunk) -> None:
        """Run one transactional batch call on one subject.  With crash
        injection armed, audit the crash-consistent rollback and then
        re-apply the batch cleanly (the program continues on the
        crash-free trajectory, so all downstream oracles still apply).
        With the snapshot rig armed, run the capture -> mutate ->
        restore -> replay differential instead."""
        if self.snap is not None:
            rng, mode = self.snap
            if rng.random() < _SNAP_RATE:
                self._snap_differential(what, name, lp, thunk, mode)
            else:
                thunk()
            return
        if self.crash is None:
            thunk()
            return
        ctl, rng = self.crash
        pre_sig = shape_signature(lp.tree)
        pre_rng = lp.rng_state()
        pre_stats = dict(lp.tree.last_batch_stats)
        ctl.arm(rng.randint(1, _CRASH_WINDOW))
        try:
            thunk()
        except CrashInjected:
            self.crashes += 1
            self._audit_rollback(what, name, lp, pre_sig, pre_rng, pre_stats)
            thunk()  # clean re-apply (controller fired -> disarmed)
        finally:
            ctl.disarm()

    def _audit_rollback(
        self, what: str, name: str, lp, pre_sig, pre_rng, pre_stats
    ) -> None:
        """The crash left the apply mid-flight; the journal must have
        restored the *exact* pre-batch state (DESIGN.md §7)."""
        post_sig = shape_signature(lp.tree)
        if post_sig != pre_sig:
            raise OracleViolation(
                "rollback",
                f"{name}: {what} crash rollback left a different shape "
                f"({_sig_divergence(pre_sig, post_sig)})",
            )
        if lp.rng_state() != pre_rng:
            raise OracleViolation(
                "rollback",
                f"{name}: {what} crash rollback did not restore the "
                "master-RNG state",
            )
        if dict(lp.tree.last_batch_stats) != pre_stats:
            raise OracleViolation(
                "rollback",
                f"{name}: {what} crash rollback left stale "
                f"last_batch_stats {lp.tree.last_batch_stats!r} != "
                f"{pre_stats!r}",
            )
        try:
            lp.check_invariants()
        except Exception as exc:
            raise OracleViolation(
                "rollback",
                f"{name}: invariants broken after {what} crash rollback: "
                f"{exc}",
            ) from exc

    # -- snapshot differential rig ----------------------------------------
    def _mut(self, what: str, name: str, lp, thunk) -> None:
        """Single-op mutation entry point: snapshot-guarded when the
        differential rig is armed.  (Single inserts/deletes are not
        transactional batches, so crash injection never applies to
        them — the plain path is unchanged.)"""
        if self.snap is not None:
            self._guarded(what, name, lp, thunk)
        else:
            thunk()

    def _snap_differential(self, what: str, name: str, lp, thunk, mode) -> None:
        """capture -> mutate -> restore -> replay.  The restore must be
        lockstep-identical to never having mutated, and the replay must
        land bit-for-bit on the first application (DESIGN.md §12)."""
        pre = self._observe(lp)
        state = SnapshotState.capture(lp.tree)
        if mode == "persist":
            self._audit_codec(what, name, state)
        thunk()
        post = self._observe(lp)
        state.restore(lp.tree)
        self.snapshots += 1
        self._assert_observed(what, name, lp, pre, "snapshot-restore")
        thunk()
        self._assert_observed(what, name, lp, post, "snapshot-replay")

    @staticmethod
    def _observe(lp) -> Tuple[Any, Any, Dict[str, Any]]:
        return (
            shape_signature(lp.tree),
            lp.rng_state(),
            dict(lp.tree.last_batch_stats),
        )

    def _assert_observed(self, what, name, lp, expect, phase: str) -> None:
        sig, rng_state, stats = expect
        cur_sig = shape_signature(lp.tree)
        if cur_sig != sig:
            raise OracleViolation(
                phase,
                f"{name}: {what} {phase} diverged in shape "
                f"({_sig_divergence(sig, cur_sig)})",
            )
        if lp.rng_state() != rng_state:
            raise OracleViolation(
                phase,
                f"{name}: {what} {phase} did not reproduce the master-RNG "
                "state",
            )
        if dict(lp.tree.last_batch_stats) != stats:
            raise OracleViolation(
                phase,
                f"{name}: {what} {phase} left last_batch_stats "
                f"{lp.tree.last_batch_stats!r} != {stats!r}",
            )
        try:
            lp.check_invariants()
        except Exception as exc:
            raise OracleViolation(
                phase,
                f"{name}: invariants broken after {what} {phase}: {exc}",
            ) from exc

    def _audit_codec(self, what: str, name: str, state: SnapshotState) -> None:
        """Push the captured state through encode -> verify -> decode in
        memory and check the decoded image is field-identical (handles
        compare as their persisted presence mask)."""
        from ..snapshots.persist import _decode, _encode, _verify

        where = f"{name}/{what}"
        raw = _encode(state)
        header, slices = _verify(raw, where)
        dec = _decode(header, slices, where)
        for col, values in state.columns.items():
            expect = (
                [0 if h is None else 1 for h in values]
                if col == "_handle"
                else values
            )
            if dec.columns[col] != expect:
                raise OracleViolation(
                    "snapshot-codec",
                    f"{name}: {what} column {col!r} did not survive the "
                    "serialization round trip",
                )
        for field_name in (
            "backend",
            "n",
            "root_index",
            "free",
            "rng_state",
            "next_id",
            "highwater",
            "stats",
            "epoch",
        ):
            if getattr(dec, field_name) != getattr(state, field_name):
                raise OracleViolation(
                    "snapshot-codec",
                    f"{name}: {what} scalar {field_name!r} did not survive "
                    f"the serialization round trip "
                    f"({getattr(dec, field_name)!r} != "
                    f"{getattr(state, field_name)!r})",
                )

    def size(self) -> int:
        return len(self.model)

    # -- normalisation ---------------------------------------------------
    def _nv(self, raw: int) -> Any:
        return norm_value(self.seq.ring, raw)

    def _positions(self, raw: Sequence[int], *, dedupe: bool) -> List[int]:
        n = len(self.model)
        out: List[int] = []
        seen = set()
        for p in raw:
            q = int(p) % n
            if dedupe:
                if q in seen:
                    continue
                seen.add(q)
            out.append(q)
        return out

    # -- op dispatch ------------------------------------------------------
    def apply(self, op: list) -> None:
        kind = op[0]
        n = len(self.model)
        if kind == "ins":
            pos, val = int(op[1]) % (n + 1), self._nv(op[2])
            for name, lp in self.subjects.items():
                self._mut("ins", name, lp, lambda lp=lp: lp.insert(pos, val))
            self.model.insert(pos, val)
        elif kind == "del":
            if n < 2:
                return
            pos = int(op[1]) % n
            for name, lp in self.subjects.items():
                # Materialise the handle outside the snapshot window so
                # the replay reuses the identical handle object (live
                # restores preserve handle identity).
                h = lp.handle_at(pos)
                self._mut("del", name, lp, lambda lp=lp, h=h: lp.delete(h))
            self.model.pop(pos)
        elif kind == "bins":
            reqs = [(int(p) % (n + 1), self._nv(v)) for p, v in op[1]]
            if not reqs:
                return
            for name, lp in self.subjects.items():
                self._guarded(
                    "bins", name, lp, lambda lp=lp: lp.batch_insert(reqs)
                )
            self._compare_batch_stats("bins")
            by_pos: Dict[int, List[Any]] = {}
            for pos, v in reqs:  # equal indices land in request order
                by_pos.setdefault(pos, []).append(v)
            out: List[Any] = []
            for pos in range(n + 1):
                out.extend(by_pos.get(pos, ()))
                if pos < n:
                    out.append(self.model[pos])
            self.model = out
        elif kind == "bdel":
            if n < 2:
                return
            idxs = self._positions(op[1], dedupe=True)[: n - 1]
            if not idxs:
                return
            for name, lp in self.subjects.items():
                # Materialise handles before the crash window: handle
                # interning is lazy and happens outside transactions.
                hs = [lp.handle_at(i) for i in idxs]
                self._guarded(
                    "bdel", name, lp, lambda lp=lp, hs=hs: lp.batch_delete(hs)
                )
            self._compare_batch_stats("bdel")
            dead = set(idxs)
            self.model = [x for i, x in enumerate(self.model) if i not in dead]
        elif kind == "bset":
            updates = [(int(p) % n, self._nv(v)) for p, v in op[1]]
            if not updates:
                return
            for name, lp in self.subjects.items():
                pairs = [(lp.handle_at(i), v) for i, v in updates]
                self._guarded(
                    "bset",
                    name,
                    lp,
                    lambda lp=lp, pairs=pairs: lp.batch_set(pairs),
                )
            for i, v in updates:
                self.model[i] = v
        elif kind == "prefix":
            idxs = self._positions(op[1], dedupe=False)
            if not idxs:
                return
            prefixes = list(accumulate(self.model, self.monoid.combine))
            expect = [prefixes[i] for i in idxs]
            for name, lp in self.subjects.items():
                got = lp.batch_prefix([lp.handle_at(i) for i in idxs])
                if got != expect:
                    raise OracleViolation(
                        "query",
                        f"{name}: batch_prefix{idxs!r} = {got!r} != naive "
                        f"{expect!r} (Theorem 3.1)",
                    )
                # The 'known sequential algorithm' of §1.2 doubles as a
                # second, independent oracle for the first query point.
                seq_ans = lp.prefix(lp.handle_at(idxs[0]))
                if seq_ans != expect[0]:
                    raise OracleViolation(
                        "query",
                        f"{name}: sequential prefix at {idxs[0]} = "
                        f"{seq_ans!r} != naive {expect[0]!r}",
                    )
        elif kind == "range":
            i, j = int(op[1]) % n, int(op[2]) % n
            if i > j:
                i, j = j, i
            expect = self.monoid.fold(self.model[i : j + 1])
            for name, lp in self.subjects.items():
                got = lp.range_fold(lp.handle_at(i), lp.handle_at(j))
                if got != expect:
                    raise OracleViolation(
                        "query",
                        f"{name}: range_fold[{i},{j}] = {got!r} != naive "
                        f"{expect!r}",
                    )
        elif kind == "activate":
            idxs = self._positions(op[1], dedupe=True)
            if not idxs:
                return
            results = {}
            try:
                for name, lp in self.subjects.items():
                    results[name] = activate(
                        lp.tree, [lp.handle_at(i) for i in idxs]
                    )
                ref_res = results.get("reference")
                if ref_res is not None:
                    handles = [
                        self.subjects["reference"].handle_at(i) for i in idxs
                    ]
                    if ref_res.node_set() != ancestors_closure(handles):
                        raise OracleViolation(
                            "query",
                            f"activation of {idxs!r} != ancestors closure "
                            "(Theorem 2.1 oracle)",
                        )
                if self.both:
                    r, f = results["reference"], results["flat"]
                    r_stats = (
                        r.rounds_stage1, r.rounds_stage2, r.rounds_stage3,
                        r.processors, r.peak_processors, r.threshold,
                        r.fallback_walk_steps, len(r.activated),
                    )
                    f_stats = (
                        f.rounds_stage1, f.rounds_stage2, f.rounds_stage3,
                        f.processors, f.peak_processors, f.threshold,
                        f.fallback_walk_steps, len(f.activated),
                    )
                    if r_stats != f_stats:
                        raise OracleViolation(
                            "twins",
                            f"activation statistics diverged at {idxs!r}: "
                            f"{r_stats} != {f_stats}",
                        )
            finally:
                for res in results.values():
                    deactivate(res)
        else:
            raise InvalidParameterError(f"unknown list op kind {kind!r}")

    def _compare_batch_stats(self, what: str) -> None:
        if not self.both:
            return
        r = self.subjects["reference"].tree.last_batch_stats
        f = self.subjects["flat"].tree.last_batch_stats
        if r != f:
            raise OracleViolation(
                "stats",
                f"{what}: last_batch_stats diverged: {r!r} != {f!r}",
            )

    # -- the audit --------------------------------------------------------
    def audit(self) -> None:
        for name, lp in self.subjects.items():
            assert_model(
                lp.tree, self.model, monoid=self.monoid, label=name
            )
            total = lp.total()
            expect = self.monoid.fold(self.model)
            if total != expect:
                raise OracleViolation(
                    "model", f"{name}: total() {total!r} != naive {expect!r}"
                )
        if self.both:
            assert_twins(
                self.subjects["reference"].tree,
                self.subjects["flat"].tree,
                where=f"(n={len(self.model)})",
            )


# ---------------------------------------------------------------------------
# contraction scenario
# ---------------------------------------------------------------------------


class _ContractionRunner:
    """Drives DynamicTreeContraction subjects + a naive baseline oracle
    over structurally identical expression trees (same builder seed, so
    node ids stay in sync across all copies)."""

    def __init__(
        self,
        seq: OpSequence,
        backend: str,
        oracle: str,
        crash_cfg=None,
        snap_cfg=None,
    ) -> None:
        # crash_cfg/snap_cfg are accepted for interface parity but
        # unused: the contraction boundary is admission-only
        # (run_sequence docstring).
        self.seq = seq
        self.ring = FUZZ_RINGS[seq.ring]
        self.engines: Dict[str, DynamicTreeContraction] = {}
        wanted = ("reference", "flat") if backend == "both" else (backend,)
        for name in wanted:
            self.engines[name] = DynamicTreeContraction(
                self._build_tree(), seed=seq.seed, backend=name
            )
        self.both = backend == "both"
        oracle_cls = CONTRACTION_ORACLES[oracle]
        naive_tree = self._build_tree()
        if oracle == "sequential":
            self.naive = oracle_cls(naive_tree, seed=seq.seed)
        else:
            self.naive = oracle_cls(naive_tree)
        self.primary = self.engines.get("reference") or next(
            iter(self.engines.values())
        )

    def _build_tree(self):
        rng = random.Random(("tree", self.seq.seed).__repr__())
        return random_tree(
            self.ring,
            self.seq.n0,
            rng,
            values=lambda r: norm_value(self.seq.ring, r.randrange(_RAW)),
            ops=lambda r: mul_op() if r.random() < 0.3 else add_op(),
        )

    def size(self) -> int:
        return self.primary.pt.n_leaves

    # -- request resolution ----------------------------------------------
    def _resolve(self, raw_reqs: List[list]) -> Tuple[List[Tuple], List[int]]:
        """Map raw slot-based requests onto valid, conflict-free §4.1
        requests against the pre-batch tree (fixed deterministic rules)."""
        tree = self.primary.tree
        leaves = [l.nid for l in tree.leaves_in_order()]
        internal = [n.nid for n in tree.nodes_preorder() if not n.is_leaf]
        prunable = [
            n.nid
            for n in tree.nodes_preorder()
            if not n.is_leaf and n.left.is_leaf and n.right.is_leaf
        ]
        removal = self.primary.trace.removal
        compressible = [
            nid
            for nid in internal
            if nid != tree.root.nid
            and (rec := removal.get(nid)) is not None
            and rec[0] == "compressed"
        ]
        all_ids = leaves + internal
        used: set = set()
        removed: set = set()
        resolved: List[Tuple] = []
        queries: List[int] = []
        for raw in raw_reqs:
            kind = raw[0]
            if kind == "grow":
                _, slot, opk, lv, rv = raw
                nid = leaves[int(slot) % len(leaves)]
                if nid in used:
                    continue
                used.add(nid)
                resolved.append(
                    (
                        "grow",
                        nid,
                        mul_op() if opk else add_op(),
                        norm_value(self.seq.ring, lv),
                        norm_value(self.seq.ring, rv),
                    )
                )
            elif kind == "prune":
                if not prunable:
                    continue
                _, slot, v = raw
                nid = prunable[int(slot) % len(prunable)]
                node = tree.node(nid)
                kids = (node.left.nid, node.right.nid)
                if nid in used or kids[0] in used or kids[1] in used:
                    continue
                used.update((nid,) + kids)
                removed.update(kids)
                resolved.append(("prune", nid, norm_value(self.seq.ring, v)))
            elif kind == "setv":
                _, slot, v = raw
                nid = leaves[int(slot) % len(leaves)]
                if nid in used:
                    continue
                used.add(nid)
                resolved.append(("set_value", nid, norm_value(self.seq.ring, v)))
            elif kind == "setop":
                if not compressible:
                    continue
                _, slot, opk = raw
                nid = compressible[int(slot) % len(compressible)]
                if nid in used:
                    continue
                used.add(nid)
                resolved.append(("set_op", nid, mul_op() if opk else add_op()))
            elif kind == "query":
                nid = all_ids[int(raw[1]) % len(all_ids)]
                queries.append(nid)
            else:
                raise InvalidParameterError(f"unknown contraction request {kind!r}")
        # Drop queries of nodes removed by this batch's prunes, and
        # attach the survivors after the structural requests.
        queries = [nid for nid in queries if nid not in removed]
        resolved.extend(("query", nid) for nid in queries)
        return resolved, queries

    # -- op dispatch ------------------------------------------------------
    def apply(self, op: list) -> None:
        if op[0] != "cbatch":
            raise InvalidParameterError(f"unknown contraction op kind {op[0]!r}")
        resolved, queries = self._resolve(op[1])
        if not resolved:
            return
        outs: Dict[str, List[Any]] = {}
        for name, engine in self.engines.items():
            outs[name] = engine.apply_requests(resolved)
        if self.both and outs["reference"] != outs["flat"]:
            raise OracleViolation(
                "contraction",
                f"apply_requests answers diverged: {outs['reference']!r} != "
                f"{outs['flat']!r}",
            )
        # Naive oracle: same request groups in the engine's phase order.
        grows = [r[1:] for r in resolved if r[0] == "grow"]
        prunes = [r[1:] for r in resolved if r[0] == "prune"]
        setvs = [r[1:] for r in resolved if r[0] == "set_value"]
        setops = [r[1:] for r in resolved if r[0] == "set_op"]
        if grows:
            created = self.naive.batch_grow(grows)
            engine_created = [
                o for o in next(iter(outs.values())) if isinstance(o, tuple)
            ]
            if created != engine_created:
                raise OracleViolation(
                    "contraction",
                    f"grow ids diverged from the naive oracle: "
                    f"{engine_created!r} != {created!r}",
                )
        if prunes:
            self.naive.batch_prune(prunes)
        if setvs:
            self.naive.batch_set_leaf_values(setvs)
        if setops:
            self.naive.batch_set_ops(setops)
        if queries:
            naive_answers = self.naive.query_values(queries)
            for name, engine_out in outs.items():
                got = [o for o, r in zip(engine_out, resolved) if r[0] == "query"]
                for nid, a, b in zip(queries, got, naive_answers):
                    if not self.ring.eq(a, b):
                        raise OracleViolation(
                            "contraction",
                            f"{name}: query({nid}) = {a!r} != naive {b!r} "
                            "(§4.1 request 4)",
                        )

    # -- the audit --------------------------------------------------------
    def audit(self) -> None:
        naive_value = self.naive.value()
        for name, engine in self.engines.items():
            try:
                engine.check_consistency()
            except Exception as exc:
                raise OracleViolation(
                    "invariants", f"{name} contraction: {exc}"
                ) from exc
            if not self.ring.eq(engine.value(), naive_value):
                raise OracleViolation(
                    "contraction",
                    f"{name}: maintained value {engine.value()!r} != naive "
                    f"recompute {naive_value!r} (exactly-maintained root, §1.1)",
                )
        if self.both:
            ref, flat = self.engines["reference"], self.engines["flat"]
            if ref.rounds() != flat.rounds():
                raise OracleViolation(
                    "twins",
                    f"contraction rounds diverged: {ref.rounds()} != "
                    f"{flat.rounds()}",
                )
            assert_twins(ref.pt, flat.pt, where="(contraction PT)")
            if ref.last_stats != flat.last_stats:
                raise OracleViolation(
                    "twins",
                    f"contraction last_stats diverged: {ref.last_stats!r} "
                    f"!= {flat.last_stats!r}",
                )
