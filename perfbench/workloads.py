"""The benchmark's four workloads.

Each workload runs in *rounds*.  A round builds the system afresh from
the seed (timed as set-up), runs one fixed script of requests against
it (timed), then checks the outputs (untimed).  Every round of a run
replays the same script, so its counts must come out identical: that is
the deterministic count channel.

* ``serve-4k`` / ``serve-tiny`` drive
  :meth:`repro.serve.service.BatchService.submit` from a closed loop of
  asyncio client coroutines (one process, one thread).
* ``contract-labels`` / ``contract-churn`` drive
  :class:`repro.contraction.dynamic.DynamicTreeContraction` with
  ``backend="flat"``.

Latency samples fall in two classes per workload: ``write`` (serve: one
write request, submit to ack; contraction: one batch of leaf-value
updates) and ``aux`` (serve: one read request; contract-labels: one
``query_values`` batch; contract-churn: one ``batch_grow`` or
``batch_prune`` batch).
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER, modular_ring
from repro.contraction.dynamic import DynamicTreeContraction
from repro.pram.frames import SpanTracker
from repro.serve.loadgen import RAW, RequestSpec, generate_specs, spec_args
from repro.serve.requests import STATUSES, WRITE_KINDS, ServePolicy
from repro.serve.service import BatchService
from repro.trees.builders import random_tree
from repro.trees.nodes import add_op, mul_op

#: Modulus of the contraction workloads' ring Z/P.
P = 1_000_003
RING = modular_ring(P)

#: Seed of the structure of workloads with ``fixed_structure``.
STRUCTURE_SEED = 0

clock = time.perf_counter

#: Length of the request stream the serve mix is read from.
MIX_POOL = 20_000


@dataclass
class Round:
    """What one round measured, counted and found wrong."""

    setup_s: float = 0.0
    #: seconds of timed work (serve: closed-loop wall; contraction: the
    #: sum of batch times) — the base of the per-layer shares
    timed_s: float = 0.0
    #: latency samples in script order: sample k is the same operation
    #: in every round of a run
    write_s: List[float] = field(default_factory=list)
    aux_s: List[float] = field(default_factory=list)
    sent: int = 0
    applied: int = 0
    #: useful updates, and the timed work they are credited against cut
    #: into steps that are the same work in every round (serve: the
    #: closed loop cut at each ack; contraction: the update batches)
    good: int = 0
    good_steps_s: List[float] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


def _tally(counts: Dict[str, int], key: str, n: int = 1) -> None:
    counts[key] = counts.get(key, 0) + n


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    n_shards: int
    shard_len: int
    clients: int
    requests: int  # per round

    def sizes(self) -> Dict[str, int]:
        return {
            "shards": self.n_shards,
            "leaves_per_shard": self.shard_len,
            "clients": self.clients,
            "requests_per_round": self.requests,
        }

    def mix(self) -> Dict[Tuple[int, str], int]:
        """Requests per (shard, kind) in a round: the ``serve`` profile
        with Zipf s=1.1 across shards, read off one long fixed stream of
        :func:`generate_specs`.  Every seed sends this same mix; a mix
        drawn afresh per seed moved serve-4k's latencies by 15% between
        seeds (a round of 500 requests held 30–34% reads)."""
        pool = generate_specs(
            0, MIX_POOL, self.n_shards, profile="serve", zipf_s=1.1
        )
        counts = Counter((spec.shard, spec.kind) for spec in pool)
        return {
            cell: round(self.requests * k / MIX_POOL)
            for cell, k in sorted(counts.items())
        }

    def inputs(self, seed: int) -> Any:
        rng = random.Random(repr(("perfbench-serve-values", seed)))
        values = {
            sid: [rng.randrange(RAW) for _ in range(self.shard_len)]
            for sid in range(self.n_shards)
        }
        cells = [cell for cell, k in self.mix().items() for _ in range(k)]
        rng.shuffle(cells)
        specs = [
            RequestSpec(
                shard=shard,
                kind=kind,
                raw=(rng.randrange(RAW), rng.randrange(RAW)),
                value=rng.randrange(RAW) if kind in ("insert", "set") else None,
            )
            for shard, kind in cells
        ]
        return seed, values, specs

    def run_round(self, inputs: Any, tracer: Any) -> Round:
        return asyncio.run(self._round(inputs, tracer))

    def _live_args(
        self, spec: Any, length: int, busy: Dict[int, Dict[str, set]]
    ) -> Tuple[Any, ...]:
        """Normalise a spec's positions against the live shard length so
        that no request can be refused.

        With at most ``clients <= max_batch`` writes outstanding, every
        write sent lands in its shard's next window, and that window
        starts at the length seen here.  A set or delete therefore moves
        up to the next position no outstanding request of its kind holds
        (a window refuses duplicates), and an insert stays below the
        length left after the ``clients - 1`` deletes that may share its
        window and run before it.
        """
        if spec.kind == "insert":
            return spec_args(spec, max(0, length - (self.clients - 1)))
        args = spec_args(spec, length)
        if spec.kind in ("set", "delete"):
            held = busy[spec.shard][spec.kind]
            pos = args[0]
            while pos in held:
                pos = (pos + 1) % length
            held.add(pos)
            args = (pos,) + args[1:]
        return args

    async def _round(self, inputs: Any, tracer: Any) -> Round:
        seed, values, specs = inputs
        out = Round()
        monoid = sum_monoid(INTEGER)
        # Default ServePolicy/ResiliencePolicy except the window timer,
        # so windows close as soon as the pump runs, not on a clock.
        policy = ServePolicy(max_wait_s=0.0)
        t0 = clock()
        svc = BatchService(monoid, values, seed=seed, policy=policy)
        await svc.start()
        for sid in svc.shards:  # warm-up: one pinned read per shard
            await svc.submit(sid, "total")
        out.setup_s = clock() - t0

        n = len(specs)
        responses: List[Any] = [None] * n
        answered = [0] * n
        latency = [0.0] * n
        acked: List[float] = []  # clock at each ack, in ack order
        cursor = iter(enumerate(specs))
        shards = svc.shards
        # Positions of set/delete requests sent and not yet answered,
        # per shard and kind: the shard's next window.
        busy = {sid: {"set": set(), "delete": set()} for sid in shards}

        async def client() -> None:
            for i, spec in cursor:
                args = self._live_args(spec, len(shards[spec.shard]), busy)
                start = clock()
                resp = await svc.submit(spec.shard, spec.kind, *args)
                end = clock()
                latency[i] = end - start
                acked.append(end)
                if spec.kind in ("set", "delete"):
                    busy[spec.shard][spec.kind].discard(args[0])
                responses[i] = resp
                answered[i] += 1

        if tracer is not None:
            tracer.enabled = True
        start = clock()
        await asyncio.gather(*(client() for _ in range(self.clients)))
        out.timed_s = clock() - start
        if tracer is not None:
            tracer.enabled = False
        for spec, elapsed in zip(specs, latency):
            (out.write_s if spec.kind in WRITE_KINDS else out.aux_s).append(elapsed)
        out.good_steps_s = [b - a for a, b in zip([start] + acked, acked)]

        # -- checks (untimed) ---------------------------------------------
        errors = out.errors
        if any(a != 1 for a in answered) or any(r is None for r in responses):
            errors.append("a request was not answered exactly once")
        if len({r.req_id for r in responses if r is not None}) != n:
            errors.append("duplicate response ids")
        counts = out.counts
        applied_writes = 0
        for spec, resp in zip(specs, responses):
            if resp is None:
                continue
            _tally(counts, f"status.{resp.status}")
            if resp.status not in STATUSES:
                errors.append(f"unknown status {resp.status!r}")
            if resp.ok:
                out.applied += 1
                if spec.kind in WRITE_KINDS:
                    applied_writes += 1
        stats = svc.stats()
        if sum(s["applied"] for s in stats.values()) != applied_writes:
            errors.append("shard applied counts disagree with the acks")
        for sid, shard in shards.items():
            try:
                shard.check_invariants()
            except Exception as exc:  # report, do not abort the run
                errors.append(f"shard {sid} invariants: {exc!r}")
            total = (await svc.submit(sid, "total")).result
            if total != sum(shard.values()):
                errors.append(f"shard {sid} pinned total != fold of values()")
        await svc.close()

        for s in stats.values():
            for key in ("windows", "offers", "enqueued", "reads", "rejections"):
                _tally(counts, f"serve.{key}", s[key])
        for shard in shards.values():
            ex = shard.session.stats
            _tally(counts, "resilience.retries", ex["retries"])
            _tally(counts, "resilience.rollbacks", ex["rollbacks"])
        if counts.get("resilience.retries") or counts.get("resilience.rollbacks"):
            errors.append("retries or rollbacks on a fault-free workload")
        out.sent = n
        out.good = applied_writes
        return out


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------


def _values(rng: random.Random) -> int:
    return rng.randrange(P)


def _ops(rng: random.Random) -> Any:
    return mul_op() if rng.random() < 0.3 else add_op()


@dataclass(frozen=True)
class ContractWorkload:
    name: str
    leaves: int
    batch: int
    batches: int  # per round (labels: batches; churn: 4 per cycle)
    hot: int = 0  # labels only: size of the hot leaf set
    #: Draw the tree shape, the engine seed and every structural choice
    #: from :data:`STRUCTURE_SEED`, leaving only labels (values and op
    #: kinds) to ``--seed``.  Churn's cost is the structure's: with the
    #: structure drawn per seed, fresh rake-tree nodes per round spread
    #: 0.3-1.0 (IQR over median) across seeds even at 128 batches a
    #: round, more than any usable bound.
    fixed_structure: bool = False

    def sizes(self) -> Dict[str, int]:
        out = {
            "leaves": self.leaves,
            "batch": self.batch,
            "batches_per_round": self.batches,
        }
        if self.hot:
            out["hot_leaves"] = self.hot
        if self.fixed_structure:
            out["structure_seed"] = STRUCTURE_SEED
        return out

    def inputs(self, seed: int) -> Any:
        return seed

    def _tree(self, seed: int) -> Any:
        rng = random.Random(repr(("perfbench-tree", seed)))
        return random_tree(RING, self.leaves, rng, values=_values, ops=_ops)

    def run_round(self, seed: Any, tracer: Any) -> Round:
        out = Round()
        structure = STRUCTURE_SEED if self.fixed_structure else seed
        tree = self._tree(structure)
        engine_seed = random.Random(
            repr(("perfbench-engine", structure))
        ).getrandbits(32)
        rng = random.Random(repr(("perfbench-script", self.name, structure)))
        labels = (
            random.Random(repr(("perfbench-labels", self.name, seed)))
            if self.fixed_structure else rng
        )
        script = self._script(tree, rng) if self.hot else None

        t0 = clock()
        engine = DynamicTreeContraction(tree, seed=engine_seed, backend="flat")
        engine.value()  # warm-up read
        out.setup_s = clock() - t0

        counts = out.counts
        work = span = 0

        def timed(fn: Callable[..., Any], *args: Any) -> Tuple[Any, float]:
            nonlocal work, span
            tracker = SpanTracker()
            start = clock()
            result = fn(*args, tracker)
            elapsed = clock() - start
            work += tracker.work
            span += tracker.span
            out.timed_s += elapsed
            return result, elapsed

        def set_values(updates: List[Tuple[int, int]]) -> None:
            _, elapsed = timed(engine.batch_set_leaf_values, updates)
            out.write_s.append(elapsed)
            out.good += len(updates)
            out.good_steps_s.append(elapsed)
            _tally(counts, "contraction.wound_rows", engine.last_stats["wound"])

        if tracer is not None:
            tracer.enabled = True
        if script is not None:
            self._run_labels(engine, tree, script, timed, set_values, out, rng)
        else:
            self._run_churn(engine, tree, timed, set_values, out, rng, labels)
        if tracer is not None:
            tracer.enabled = False

        # -- checks (untimed) ---------------------------------------------
        try:
            engine.check_consistency()
        except Exception as exc:  # report, do not abort the run
            out.errors.append(f"contraction consistency: {exc!r}")
        if not RING.eq(engine.value(), tree.evaluate()):
            out.errors.append("value() != tree.evaluate()")
        _tally(counts, "pram.work", work)
        _tally(counts, "pram.span", span)
        _tally(counts, "status.applied", out.sent)
        out.applied = out.sent
        return out

    def _script(self, tree: Any, rng: random.Random) -> List[Tuple[str, Any]]:
        """contract-labels: every 4th batch queries internal nodes, the
        rest set values of leaves drawn from a fixed hot set."""
        leaves = [leaf.nid for leaf in tree.leaves_in_order()]
        internal = [n.nid for n in tree.nodes_preorder() if not n.is_leaf]
        hot = rng.sample(leaves, self.hot)
        script: List[Tuple[str, Any]] = []
        for i in range(self.batches):
            if i % 4 == 3:
                script.append(("query", rng.sample(internal, self.batch)))
            else:
                script.append((
                    "set",
                    [(nid, _values(rng)) for nid in rng.sample(hot, self.batch)],
                ))
        return script

    def _run_labels(self, engine, tree, script, timed, set_values, out, rng):
        checked = 0
        for kind, payload in script:
            out.sent += len(payload)
            if kind == "set":
                set_values(payload)
                continue
            answers, elapsed = timed(engine.query_values, payload)
            out.aux_s.append(elapsed)
            # A seeded sample of answers against direct subtree evaluation.
            checked += 1
            if checked % 8 == 1:
                for k in rng.sample(range(len(payload)), 4):
                    if not RING.eq(answers[k], tree.evaluate(at=payload[k])):
                        out.errors.append(
                            f"query_values({payload[k]}) != subtree evaluation"
                        )

    def _run_churn(self, engine, tree, timed, set_values, out, rng, labels):
        """contract-churn: ``rng`` picks the grown, set and pruned
        nodes, ``labels`` their new op kinds and values."""
        b = self.batch
        for _ in range(self.batches // 4):
            leaves = sorted(engine.handle)
            grows = [
                (nid, _ops(labels), _values(labels), _values(labels))
                for nid in rng.sample(leaves, b)
            ]
            _, elapsed = timed(engine.batch_grow, grows)
            self._structural(out, engine, elapsed, b)

            leaves = sorted(engine.handle)
            set_values([(nid, _values(labels)) for nid in rng.sample(leaves, b)])

            prunable = sorted({
                leaf.parent.nid
                for leaf in map(tree.node, engine.handle)
                if leaf.parent is not None
                and leaf.parent.left.is_leaf
                and leaf.parent.right.is_leaf
            })
            prunes = [(nid, _values(labels)) for nid in rng.sample(prunable, b)]
            _, elapsed = timed(engine.batch_prune, prunes)
            self._structural(out, engine, elapsed, b)

            leaves = sorted(engine.handle)
            set_values([(nid, _values(labels)) for nid in rng.sample(leaves, b)])
            out.sent += 4 * b

    @staticmethod
    def _structural(out: Round, engine: Any, elapsed: float, b: int) -> None:
        out.aux_s.append(elapsed)
        out.good += b
        out.good_steps_s.append(elapsed)
        _tally(out.counts, "contraction.fresh_rt_nodes",
               engine.last_stats["fresh_rt_nodes"])


WORKLOADS: Dict[str, Any] = {
    w.name: w
    for w in (
        ServeWorkload(
            "serve-4k", n_shards=2, shard_len=4096, clients=32,
            requests=500,
        ),
        ServeWorkload(
            "serve-tiny", n_shards=8, shard_len=64, clients=2,
            requests=3000,
        ),
        ContractWorkload(
            "contract-labels", leaves=1 << 14, batch=64, batches=400,
            hot=256,
        ),
        ContractWorkload(
            "contract-churn", leaves=1 << 14, batch=64, batches=16,
            fixed_structure=True,
        ),
    )
}
