"""Shard core: window semantics, admission parity, shedding, deadlines."""

from __future__ import annotations

import pytest

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.resilience.executor import ResiliencePolicy
from repro.resilience.faults import FaultPlan
from repro.serve.requests import Request, ServePolicy
from repro.serve.shard import Shard

MONOID = sum_monoid(INTEGER)


def make_shard(values=(1, 2, 3, 4, 5), *, seed=0, plan=None, **policy_kw):
    policy_kw.setdefault("resilience", ResiliencePolicy(ladder=("flat",)))
    return Shard(
        0, MONOID, list(values), seed=seed,
        policy=ServePolicy(**policy_kw), plan=plan,
    )


def req(req_id, kind, *args, deadline=None, shard=0):
    return Request(
        req_id=req_id, shard=shard, kind=kind, args=args, deadline=deadline
    )


# ---------------------------------------------------------------------------
# window semantics
# ---------------------------------------------------------------------------


def test_window_phases_apply_in_canonical_order():
    shard = make_shard([1, 2, 3, 4, 5])
    # Arrival order insert-delete-set; execution order set, delete, insert
    # — each phase's positions read against the state at its start.
    window = [
        req(0, "insert", 0, 100),
        req(1, "delete", 4),
        req(2, "set", 0, 999),
    ]
    out = shard.execute_window(window, now=0.0)
    assert all(out[i].status == "applied" for i in range(3))
    # set: [999,2,3,4,5]; delete pos 4: [999,2,3,4]; insert 100@0.
    assert shard.values() == [100, 999, 2, 3, 4]
    assert [entry[0] for entry in shard.applied_log] == [
        "set", "delete", "insert"
    ]


def test_window_matches_sequential_oracle():
    shard = make_shard([1, 2, 3, 4, 5])
    window = [
        req(0, "insert", 0, 10),
        req(1, "insert", 3, 20),
        req(2, "insert", 0, 30),
        req(3, "delete", 1),
        req(4, "delete", 3),
        req(5, "set", 2, 7),
    ]
    out = shard.execute_window(window, now=0.0)
    assert all(out[i].status == "applied" for i in range(6))
    # Oracle: set {2:7} -> [1,2,7,4,5]; delete {1,3} -> [1,7,5];
    # insert phase sees length 3: 10@0,30@0 (request order), 20@3.
    assert shard.values() == [10, 30, 1, 7, 5, 20]
    shard.check_invariants()


def test_admission_rejects_via_shared_validators():
    shard = make_shard([1, 2, 3])
    window = [
        req(0, "insert", 99, 5),     # position-out-of-range
        req(1, "delete", 0),
        req(2, "delete", 0),          # duplicate-handle
        req(3, "set", 99, 5),         # unknown-handle
        req(4, "insert", 1, 50),      # fine
        req(5, "insert", True, 9),    # bool is not position 1
    ]
    out = shard.execute_window(window, now=0.0)
    assert out[0].status == "rejected"
    assert out[0].reason == "position-out-of-range"
    assert out[1].status == "applied"
    assert out[2].status == "rejected"
    assert out[2].reason == "duplicate-handle"
    assert out[3].status == "rejected"
    assert out[3].reason == "unknown-handle"
    assert out[4].status == "applied"
    assert out[5].status == "rejected"
    assert out[5].reason == "position-out-of-range"
    assert shard.values() == [2, 50, 3]


def test_delete_all_leaves_rejected_whole_phase():
    shard = make_shard([1, 2])
    window = [req(0, "delete", 0), req(1, "delete", 1)]
    out = shard.execute_window(window, now=0.0)
    assert out[0].reason == "delete-all-leaves"
    assert out[1].reason == "delete-all-leaves"
    assert shard.values() == [1, 2]


# ---------------------------------------------------------------------------
# queue overload: bounded queue + seeded deterministic shedding
# ---------------------------------------------------------------------------


def _offer_run(seed, n=64):
    shard = make_shard(
        seed=seed, queue_capacity=16, shed_highwater=0.25
    )
    decisions = []
    for i in range(n):
        refusal = shard.offer(req(i, "insert", 0, i), now=0.0)
        decisions.append("-" if refusal is None else refusal.status)
    return shard, decisions


def test_shedding_is_seed_deterministic():
    _, first = _offer_run(seed=42)
    _, second = _offer_run(seed=42)
    assert first == second
    assert "shed" in first  # the run actually exercised shedding
    _, other = _offer_run(seed=43)
    assert other != first  # a different seed sheds differently


def test_full_queue_always_sheds():
    shard, decisions = _offer_run(seed=7, n=200)
    assert shard.pending <= shard.policy.queue_capacity
    # Every offer past a full queue is shed deterministically.
    assert decisions.count("-") == shard.stats["enqueued"]
    assert shard.stats["sheds"] > 0


def test_shed_decisions_survive_interleaving():
    """Per-shard decisions depend only on the shard's own arrival
    order, not on how other shards' traffic interleaves globally."""
    a1 = Shard(1, MONOID, [1, 2], seed=9,
               policy=ServePolicy(queue_capacity=8, shed_highwater=0.25))
    b1 = Shard(2, MONOID, [1, 2], seed=9,
               policy=ServePolicy(queue_capacity=8, shed_highwater=0.25))
    solo = [a1.offer(req(i, "insert", 0, i, shard=1), 0.0) for i in range(32)]
    a2 = Shard(1, MONOID, [1, 2], seed=9,
               policy=ServePolicy(queue_capacity=8, shed_highwater=0.25))
    b2 = Shard(2, MONOID, [1, 2], seed=9,
               policy=ServePolicy(queue_capacity=8, shed_highwater=0.25))
    mixed = []
    for i in range(32):
        b2.offer(req(1000 + i, "insert", 0, i, shard=2), 0.0)
        mixed.append(a2.offer(req(i, "insert", 0, i, shard=1), 0.0))
    assert [r is None or r.status for r in solo] == [
        r is None or r.status for r in mixed
    ]
    assert b1 is not b2  # silence linters; b1 exercised nothing


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------


def test_expired_request_refused_at_offer_and_at_execution():
    shard = make_shard()
    assert shard.offer(req(0, "insert", 0, 1, deadline=5.0), now=6.0).status \
        == "timeout"
    out = shard.execute_window([req(1, "insert", 0, 1, deadline=5.0)], now=6.0)
    assert out[1].status == "timeout"
    assert shard.values() == [1, 2, 3, 4, 5]


def test_retry_backoff_expires_later_phase_mid_window():
    """Deadline-exceeded mid-batch: simulated backoff charged by an
    earlier phase's retries advances the window's effective clock past
    a later-phase request's deadline — it times out instead of being
    applied late."""
    plan = FaultPlan(3, rate=1.0, sticky_rate=0.0)  # transient faults
    shard = make_shard(
        [1, 2, 3, 4, 5],
        plan=plan,
        resilience=ResiliencePolicy(
            ladder=("flat",), max_retries=2, backoff_base_s=10.0
        ),
    )
    window = [
        req(0, "set", 0, 50),                      # no deadline: retries OK
        req(1, "insert", 0, 60, deadline=5.0),      # dies if set-phase retries
    ]
    out = shard.execute_window(window, now=0.0)
    assert out[0].status == "applied"
    assert shard.session.stats["retries"] >= 1  # the fault really fired
    assert out[1].status == "timeout"
    assert shard.values() == [50, 2, 3, 4, 5]
    shard.check_invariants()


def test_tight_deadline_caps_retry_budget():
    """A deadline too tight to afford backoff reduces the granted
    retries (here: to zero), so a sticky fault fails the phase instead
    of burning budget the deadline does not have."""
    plan = FaultPlan(1, rate=1.0, sticky_rate=1.0)  # sticky: every attempt
    shard = make_shard(
        [1, 2, 3, 4, 5],
        plan=plan,
        resilience=ResiliencePolicy(
            ladder=("flat",), max_retries=3, backoff_base_s=10.0
        ),
    )
    out = shard.execute_window(
        [req(0, "insert", 0, 9, deadline=1.0)], now=0.0
    )
    assert out[0].status == "failed"
    # max_retries=3 was configured, but the 1s budget affords none.
    assert shard.session.stats["attempts"] == 1
    assert shard.values() == [1, 2, 3, 4, 5]
    # The window-scoped cap is restored afterwards.
    assert shard.session.executor.policy.max_retries == 3


def test_retry_budget_computation():
    shard = make_shard(
        resilience=ResiliencePolicy(
            ladder=("flat",), max_retries=3,
            backoff_base_s=1.0,
        )
    )
    policy = shard.policy.resilience
    no_deadline = [req(0, "insert", 0, 1)]
    assert shard._retry_budget(no_deadline, 0.0, policy) == 3
    # Backoff schedule: 1, 2, 4 (cumulative 1, 3, 7).
    cases = [(0.5, 0), (1.0, 1), (3.0, 2), (6.9, 2), (7.0, 3), (99.0, 3)]
    for budget, want in cases:
        reqs = [req(0, "insert", 0, 1, deadline=budget)]
        assert shard._retry_budget(reqs, 0.0, policy) == want, budget


# ---------------------------------------------------------------------------
# reads from the pinned epoch
# ---------------------------------------------------------------------------


def test_reads_answer_from_pinned_epoch():
    shard = make_shard([1, 2, 3, 4])
    assert shard.read(req(0, "total"), 0.0).result == 10
    assert shard.read(req(1, "prefix", 2), 0.0).result == 6
    assert shard.read(req(2, "range", 1, 3), 0.0).result == 9
    assert shard.read(req(3, "len"), 0.0).result == 4
    assert shard.read(req(4, "prefix", 9), 0.0).status == "rejected"
    assert shard.read(req(5, "range", 3, 1), 0.0).status == "rejected"
    assert shard.read(req(6, "total", deadline=1.0), 2.0).status == "timeout"


def test_reads_work_on_every_rung():
    for ladder in (("flat",), ("reference",), ("sequential",)):
        shard = make_shard(
            [5, 6, 7], resilience=ResiliencePolicy(ladder=ladder)
        )
        assert shard.session.rung == ladder[0]
        assert shard.read(req(0, "total"), 0.0).result == 18
        assert shard.read(req(1, "prefix", 1), 0.0).result == 11
        assert shard.read(req(2, "range", 1, 2), 0.0).result == 13
        assert shard.read(req(3, "len"), 0.0).result == 3


@pytest.mark.parametrize("rung", ("flat", "reference", "sequential"))
def test_reads_reject_bool_positions(rung):
    """``True`` is an int subclass but no position: reads reject it as
    out of range and name its type, as writes already refuse it."""
    shard = make_shard([5, 6, 7], resilience=ResiliencePolicy(ladder=(rung,)))
    for args in (("prefix", True), ("range", False, True), ("range", 0, True)):
        resp = shard.read(req(0, *args), 0.0)
        assert resp.status == "rejected", args
        assert resp.reason == "position-out-of-range"
        assert "bool" in resp.detail
    # Plain ints still answer on the same shard.
    assert shard.read(req(1, "prefix", 1), 0.0).result == 11
    assert shard.read(req(2, "range", 0, 1), 0.0).result == 11
