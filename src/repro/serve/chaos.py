"""Chaos harness: overload + faults + poison against the serving core.

:func:`run_chaos` drives the *synchronous* serving core —
:class:`~repro.serve.shard.Shard` under a
:class:`~repro.serve.clock.VirtualClock` — with a seeded request
stream (:mod:`repro.serve.loadgen`) whose knobs plant every failure
mode at once: Zipf-skewed overload bursts against bounded queues,
per-shard :class:`~repro.resilience.faults.FaultPlan` corruption,
poisoned payloads, invalid positions and tight deadlines.

The gate (one run = one verdict):

* **never lose or double-apply an acked batch** — every request gets
  exactly one response; a request acked ``applied`` appears in exactly
  one ``applied_log`` entry of its shard, and a request acked anything
  else appears in none;
* **never corrupt shard state** — post-run ``check_invariants`` per
  shard, plus oracle parity: replaying each shard's ``applied_log``
  over its initial values on a
  :class:`~repro.baselines.sequential_list.SequentialList` must
  reproduce the live structure bit-for-bit, and a final pinned read
  must match the oracle's fold;
* **quarantine isolates exactly the poisoned requests** — no
  :class:`~repro.serve.loadgen.PoisonPill` ever commits, and every
  quarantined ack names a request that carried one;
* **sheds and rejections are seed-deterministic** — the whole run is
  condensed into a decision digest (every response + final state) and
  the same config must produce the same digest twice.

:data:`CHAOS` is the ``chaos`` exercise of the fuzz driver
(``python -m repro.testing.fuzz chaos``): seed ``s`` runs
:func:`config_for_seed` twice.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..algebra.monoid import sum_monoid
from ..algebra.rings import INTEGER
from ..baselines.sequential_list import SequentialList, apply_phase
from ..resilience.executor import ResiliencePolicy
from ..resilience.faults import FaultPlan
from ..testing.corpus import Exercise, Outcome, check_expect, entry, take
from .clock import VirtualClock
from .loadgen import RAW, PoisonPill, generate_specs, spec_args
from .requests import Request, ServePolicy
from .shard import Shard

__all__ = [
    "CHAOS",
    "COVERAGE_CLASSES",
    "ChaosConfig",
    "ChaosReport",
    "config_for_seed",
    "run_chaos",
]

#: Behaviour classes ``--require-coverage`` demands across a batch of
#: runs (each is reachable within a few dozen seeds of the default
#: config sweep).
COVERAGE_CLASSES = (
    "applied",
    "rejected",
    "shed",
    "timeout",
    "quarantined",
    "failed",
    "breaker-open",
    "demotion",
    "fault-fired",
)


@dataclass(frozen=True)
class ChaosConfig:
    """Everything one chaos run depends on — JSON round-trippable, so
    a failing config IS the reproducer."""

    seed: int = 0
    n_requests: int = 200
    n_shards: int = 3
    shard_size: int = 24
    profile: str = "serve"
    zipf_s: float = 1.1
    fault_rate: float = 0.0
    sticky_rate: float = 0.5
    poison_rate: float = 0.0
    invalid_rate: float = 0.06
    deadline_s: Optional[float] = None
    deadline_jitter: float = 0.5
    burst: int = 8
    drain_every: int = 2
    max_batch: int = 8
    max_wait_s: float = 0.005
    queue_capacity: int = 16
    shed_highwater: float = 0.5
    breaker_threshold: int = 2
    breaker_reset_s: float = 0.05
    max_retries: int = 1
    ladder: Tuple[str, ...] = ("flat", "reference", "sequential")


@dataclass
class ChaosReport:
    """Verdict + evidence for one chaos run."""

    config: ChaosConfig
    ok: bool
    failure: str
    digest: str
    statuses: Dict[str, int]
    observed: Dict[str, bool]
    shed_ids: List[int]
    quarantined_ids: List[int]
    rungs: Dict[int, str]

    def describe(self) -> str:
        parts = "  ".join(
            f"{k}={v}" for k, v in sorted(self.statuses.items()) if v
        )
        return (
            f"digest={self.digest} {parts}  "
            f"rungs={'/'.join(self.rungs[s] for s in sorted(self.rungs))}"
        )


def config_for_seed(seed: int, n_requests: int = 200) -> ChaosConfig:
    """The default per-seed knob sweep: consecutive seeds cycle through
    fault-heavy, poison-heavy, overload-heavy and deadline-tight
    regimes (plus mixtures), so a modest ``--runs`` covers every class
    in :data:`COVERAGE_CLASSES`."""
    rng = random.Random(repr(("serve-chaos", seed)))
    # A short ladder makes RetryExhausted reachable (the full ladder
    # bottoms out at the fault-free sequential oracle, which never
    # fails) — that is what drives the breaker classes.
    ladder = rng.choice(
        (
            ("flat", "reference", "sequential"),
            ("flat", "sequential"),
            ("flat",),
            ("reference", "sequential"),
        )
    )
    return ChaosConfig(
        seed=seed,
        n_requests=n_requests,
        n_shards=rng.choice((2, 3, 4)),
        shard_size=rng.randint(12, 40),
        fault_rate=rng.choice((0.0, 0.2, 0.45)),
        sticky_rate=rng.choice((0.3, 0.6)),
        poison_rate=rng.choice((0.0, 0.06, 0.15)),
        invalid_rate=rng.choice((0.0, 0.08)),
        deadline_s=rng.choice((None, 0.03, 0.15)),
        burst=rng.choice((6, 8, 12)),
        drain_every=rng.choice((1, 2, 3)),
        queue_capacity=rng.choice((12, 16, 24)),
        shed_highwater=rng.choice((0.4, 0.6)),
        breaker_threshold=rng.choice((2, 3)),
        max_retries=rng.choice((0, 1, 2)),
        ladder=ladder,
    )


def _initial_values(cfg: ChaosConfig, sid: int) -> List[int]:
    rng = random.Random(repr(("serve-init", cfg.seed, sid)))
    return [rng.randrange(RAW) for _ in range(cfg.shard_size)]


def _build_shards(cfg: ChaosConfig) -> Dict[int, Shard]:
    monoid = sum_monoid(INTEGER)
    policy = ServePolicy(
        max_batch=cfg.max_batch,
        max_wait_s=cfg.max_wait_s,
        queue_capacity=cfg.queue_capacity,
        shed_highwater=cfg.shed_highwater,
        breaker_threshold=cfg.breaker_threshold,
        breaker_reset_s=cfg.breaker_reset_s,
        resilience=ResiliencePolicy(
            max_retries=cfg.max_retries, ladder=tuple(cfg.ladder)
        ),
    )
    shards: Dict[int, Shard] = {}
    for sid in range(cfg.n_shards):
        plan = None
        if cfg.fault_rate > 0.0:
            plan_seed = random.Random(
                repr(("serve-fault", cfg.seed, sid))
            ).getrandbits(32)
            plan = FaultPlan(
                plan_seed, rate=cfg.fault_rate, sticky_rate=cfg.sticky_rate
            )
        shards[sid] = Shard(
            sid,
            monoid,
            _initial_values(cfg, sid),
            seed=cfg.seed,
            policy=policy,
            plan=plan,
        )
    return shards


def run_chaos(cfg: ChaosConfig) -> ChaosReport:
    """One full chaos run: pump, drain, audit (see module docstring)."""
    clock = VirtualClock()
    shards = _build_shards(cfg)
    monoid = shards[0].session.monoid
    initial = {sid: shards[sid].values() for sid in shards}
    specs = generate_specs(
        cfg.seed,
        cfg.n_requests,
        cfg.n_shards,
        profile=cfg.profile,
        zipf_s=cfg.zipf_s,
        poison_rate=cfg.poison_rate,
        invalid_rate=cfg.invalid_rate,
        deadline_s=cfg.deadline_s,
        deadline_jitter=cfg.deadline_jitter,
    )
    responses: Dict[int, Any] = {}
    write_ids: Dict[int, bool] = {}
    poison_ids: Dict[int, bool] = {}

    def drain_once() -> None:
        for shard in shards.values():
            if shard.pending:
                window = shard.take_window()
                for rid, resp in shard.execute_window(
                    window, clock.now()
                ).items():
                    responses[rid] = resp

    # -- pump: bursts of arrivals, windows every ``drain_every`` bursts,
    # so arrival rate outruns service rate and queues genuinely fill.
    for req_id, spec in enumerate(specs):
        now = clock.now()
        shard = shards[spec.shard]
        deadline = None if spec.deadline_s is None else now + spec.deadline_s
        req = Request(
            req_id=req_id,
            shard=spec.shard,
            kind=spec.kind,
            args=spec_args(spec, len(shard)),
            deadline=deadline,
            arrival=now,
        )
        if req.is_write:
            write_ids[req_id] = True
            if isinstance(spec.value, PoisonPill):
                poison_ids[req_id] = True
            refusal = shard.offer(req, now)
            if refusal is not None:
                responses[req_id] = refusal
        else:
            responses[req_id] = shard.read(req, now)
        if (req_id + 1) % cfg.burst == 0:
            clock.advance(cfg.max_wait_s)
            if ((req_id + 1) // cfg.burst) % cfg.drain_every == 0:
                drain_once()
    # -- final drain: windows until every queue is empty (the virtual
    # clock keeps advancing, so open breakers half-open and deadlines
    # expire rather than wedging the loop).
    rounds = 0
    while any(shard.pending for shard in shards.values()):
        rounds += 1
        if rounds > 10 * cfg.n_requests + 100:
            return _report(
                cfg, shards, responses, "final drain did not converge"
            )
        clock.advance(cfg.max_wait_s)
        drain_once()

    # -- audits ---------------------------------------------------------
    failure = ""
    for sid, shard in shards.items():
        try:
            shard.check_invariants()
        except Exception as exc:  # outcome-classification boundary
            failure = f"shard {sid}: invariant audit failed: {exc}"
            break
        model = SequentialList(monoid, initial[sid])
        logged: Dict[int, bool] = {}
        for verb, payload, req_ids in shard.applied_log:
            for rid in req_ids:
                if rid in logged:
                    failure = f"shard {sid}: req {rid} applied twice"
                if rid not in write_ids:
                    failure = f"shard {sid}: unknown req {rid} in log"
                if rid in poison_ids:
                    failure = f"shard {sid}: poisoned req {rid} committed"
                logged[rid] = True
            apply_phase(model, verb, payload)
        if failure:
            break
        if model.values() != shard.values():
            failure = (
                f"shard {sid}: oracle divergence (acked batches do not "
                f"reproduce the live state)"
            )
            break
        for rid, resp in responses.items():
            if resp.shard != sid or rid not in write_ids:
                continue
            if resp.status == "applied" and rid not in logged:
                failure = f"shard {sid}: req {rid} acked applied but lost"
                break
            if resp.status != "applied" and rid in logged:
                failure = (
                    f"shard {sid}: req {rid} acked {resp.status} but applied"
                )
                break
            if resp.status == "quarantined" and rid not in poison_ids:
                failure = f"shard {sid}: req {rid} quarantined without a pill"
                break
        if failure:
            break
        # Final pinned read must agree with the oracle's own fold.
        read = shard.read(
            Request(req_id=10**9 + sid, shard=sid, kind="total"), clock.now()
        )
        expect = model.total()
        if read.status != "applied" or read.result != expect:
            failure = (
                f"shard {sid}: pinned total {read.result!r} != oracle "
                f"{expect!r}"
            )
            break
    for req_id in range(len(specs)):
        if failure:
            break
        if req_id not in responses:
            failure = f"req {req_id} got no response"
    return _report(cfg, shards, responses, failure)


def _report(
    cfg: ChaosConfig,
    shards: Dict[int, Shard],
    responses: Dict[int, Any],
    failure: str,
) -> ChaosReport:
    statuses: Dict[str, int] = {}
    for resp in responses.values():
        statuses[resp.status] = statuses.get(resp.status, 0) + 1
    observed = {
        "applied": statuses.get("applied", 0) > 0,
        "rejected": statuses.get("rejected", 0) > 0,
        "shed": statuses.get("shed", 0) > 0,
        "timeout": statuses.get("timeout", 0) > 0,
        "quarantined": statuses.get("quarantined", 0) > 0,
        "failed": statuses.get("failed", 0) > 0,
        "circuit-open": statuses.get("circuit-open", 0) > 0,
        "breaker-open": any(
            s.stats["breaker_opens"] for s in shards.values()
        ),
        "demotion": any(s.session.events for s in shards.values()),
        "fault-fired": any(
            s.session.executor.fault_descriptions for s in shards.values()
        ),
    }
    body = {
        "responses": [
            [rid, responses[rid].status, responses[rid].reason,
             repr(responses[rid].result)]
            for rid in sorted(responses)
        ],
        "values": {str(sid): shards[sid].values() for sid in shards},
        "rungs": {str(sid): shards[sid].session.rung for sid in shards},
        "breaker": {
            str(sid): shards[sid].breaker_opened_count for sid in shards
        },
    }
    digest = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()[:16]
    return ChaosReport(
        config=cfg,
        ok=not failure,
        failure=failure,
        digest=digest,
        statuses=statuses,
        observed=observed,
        shed_ids=sorted(
            rid for rid, r in responses.items() if r.status == "shed"
        ),
        quarantined_ids=sorted(
            rid for rid, r in responses.items() if r.status == "quarantined"
        ),
        rungs={sid: shards[sid].session.rung for sid in shards},
    )


def _pinned(report: ChaosReport) -> Dict[str, Any]:
    return {
        "digest": report.digest,
        "statuses": report.statuses,
        "shed_ids": report.shed_ids,
        "quarantined_ids": report.quarantined_ids,
    }


def _classify(report: ChaosReport) -> Outcome:
    return Outcome(
        ok=report.ok,
        label="clean",
        classes=frozenset(
            k for k, hit in report.observed.items()
            if hit and k in COVERAGE_CLASSES
        ),
        failure=report.failure or None,
        line=report.describe(),
        detail=report,
    )


class _Chaos(Exercise):
    name = "chaos"
    coverage = COVERAGE_CLASSES
    default_size = 200

    def run_seed(self, seed: int, size: int, **options: Any) -> Outcome:
        """One seeded config, run TWICE: the second run must reproduce
        the first's decision digest bit-for-bit (shed choices,
        quarantine verdicts, final state — everything), on top of the
        per-run gate."""
        cfg = config_for_seed(seed, size)
        report = run_chaos(cfg)
        rerun = run_chaos(cfg)
        if report.ok and rerun.digest != report.digest:
            report.ok = False
            report.failure = (
                f"nondeterministic: digest {report.digest} != rerun "
                f"{rerun.digest} for identical config"
            )
        return _classify(report)

    def reproducer(
        self, seed: int, size: int, outcome: Outcome, **options: Any
    ) -> Dict[str, Any]:
        config = asdict(config_for_seed(seed, size))
        config["ladder"] = list(config["ladder"])
        return entry(
            self.name, {"config": config}, _pinned(outcome.detail),
            outcome.failure or "",
        )

    def replay_entry(self, data: Mapping[str, Any]) -> Outcome:
        config = dict(take(data["input"], ("config",), "input")["config"])
        config["ladder"] = tuple(config["ladder"])
        report = run_chaos(ChaosConfig(**config))
        if report.ok:
            check_expect(data["expect"], _pinned(report))
        return _classify(report)


CHAOS = _Chaos()
