"""Poison quarantine: admission isolates exactly the pills, on every
rung, and a crash of the apply fails the window with state intact."""

from __future__ import annotations

import pytest

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.resilience.executor import ResiliencePolicy
from repro.serve.loadgen import PoisonPill
from repro.serve.requests import Request, ServePolicy
from repro.serve.shard import Shard

MONOID = sum_monoid(INTEGER)

RUNGS = ("flat", "reference", "sequential")


def shard_on(rung, values=(1, 2, 3, 4, 5)):
    return Shard(
        0, MONOID, list(values), seed=5,
        policy=ServePolicy(resilience=ResiliencePolicy(ladder=(rung,))),
    )


def window_of(verb, payload):
    return [
        Request(req_id=i, shard=0, kind=verb, args=args)
        for i, args in enumerate(payload)
    ]


def statuses(out):
    return [out[rid].status for rid in sorted(out)]


@pytest.mark.parametrize("rung", RUNGS)
def test_bisection_isolates_exactly_the_pills(rung):
    """Each pill is quarantined at admission and the innocent rest of
    the phase commits as one batch, on every rung."""
    shard = shard_on(rung)
    payload = [
        (0, 10), (1, PoisonPill(1)), (2, 30), (3, 40),
        (4, PoisonPill(2)), (5, 60), (0, 70), (2, 80),
    ]
    out = shard.execute_window(window_of("insert", payload), now=0.0)
    assert statuses(out) == [
        "applied", "quarantined", "applied", "applied",
        "quarantined", "applied", "applied", "applied",
    ]
    assert out[1].reason == out[4].reason == "poisoned-payload"
    assert "PoisonedPayloadError" in out[1].detail
    # The good subset alone, at its pre-batch positions.
    assert shard.values() == [10, 70, 1, 2, 30, 80, 3, 40, 4, 5, 60]
    assert shard.session.rung == rung
    assert shard.session.stats["retries"] == 0
    shard.check_invariants()


@pytest.mark.parametrize("rung", RUNGS)
@pytest.mark.parametrize("verb", ("insert", "set"))
def test_single_pill_any_verb(rung, verb):
    shard = shard_on(rung)
    payload = [(0, 5), (1, PoisonPill(9)), (2, 6)]
    out = shard.execute_window(window_of(verb, payload), now=0.0)
    assert statuses(out) == ["applied", "quarantined", "applied"]
    expect = {"insert": [5, 1, 2, 6, 3, 4, 5], "set": [5, 2, 6, 4, 5]}
    assert shard.values() == expect[verb]
    assert shard.stats["quarantines"] == 1
    assert shard.stats["quarantined"] == 1


@pytest.mark.parametrize("rung", ("flat", "reference"))
def test_apply_crash_fails_the_window_with_state_intact(rung, monkeypatch):
    """A non-poison escape from the apply (here a KeyError planted after
    the tree's own batch_set mutated) is no quarantine: the supervisor
    rolls the phase back, its requests fail ``apply-crashed``, later
    phases are aborted and the breaker records one failure."""
    shard = shard_on(rung)
    before = shard.values()
    structure = shard.session._structure
    real_batch_set = structure.batch_set

    def crashing_batch_set(pairs):
        real_batch_set(pairs)
        raise KeyError("planted")

    monkeypatch.setattr(structure, "batch_set", crashing_batch_set)
    window = [
        Request(req_id=0, shard=0, kind="set", args=(0, 100)),
        Request(req_id=1, shard=0, kind="set", args=(2, 300)),
        Request(req_id=2, shard=0, kind="delete", args=(1,)),
        Request(req_id=3, shard=0, kind="insert", args=(0, 7)),
    ]
    out = shard.execute_window(window, now=0.0)
    for rid in (0, 1):
        assert (out[rid].status, out[rid].reason) == ("failed", "apply-crashed")
        assert "KeyError" in out[rid].detail
    for rid in (2, 3):
        assert (out[rid].status, out[rid].reason) == ("failed", "window-aborted")
    assert shard.values() == before
    shard.check_invariants()
    assert shard.applied_log == []
    assert shard.breaker_failures == 1
    assert shard.stats["failed_windows"] == 1
    assert shard.stats["quarantines"] == 0


def test_shard_quarantine_commits_exactly_the_oracle_subset():
    """End-to-end: a window with pills commits precisely the innocent
    requests (committed subset == oracle), acks the pills as
    quarantined, and the shard state equals replaying only the good
    subset."""
    shard = Shard(
        0, MONOID, [1, 2, 3, 4, 5], seed=0,
        policy=ServePolicy(
            resilience=ResiliencePolicy(ladder=("flat",))
        ),
    )
    window = [
        Request(req_id=0, shard=0, kind="insert", args=(0, 100)),
        Request(req_id=1, shard=0, kind="insert", args=(1, PoisonPill(7))),
        Request(req_id=2, shard=0, kind="insert", args=(2, 300)),
        Request(req_id=3, shard=0, kind="set", args=(4, PoisonPill(8))),
        Request(req_id=4, shard=0, kind="set", args=(0, 900)),
    ]
    out = shard.execute_window(window, now=0.0)
    assert out[0].status == "applied"
    assert out[1].status == "quarantined"
    assert out[1].reason == "poisoned-payload"
    assert out[2].status == "applied"
    assert out[3].status == "quarantined"
    assert out[4].status == "applied"
    # Oracle replay of ONLY the good requests: set {0:900} ->
    # [900,2,3,4,5]; insert 100@0, 300@2 -> [100,900,2,300,3,4,5].
    assert shard.values() == [100, 900, 2, 300, 3, 4, 5]
    shard.check_invariants()
    assert shard.stats["quarantines"] == 2  # one per poisoned phase
    assert shard.stats["quarantined"] == 2
    # The applied log records exactly the committed req_ids.
    logged = [rid for _, _, ids in shard.applied_log for rid in ids]
    assert sorted(logged) == [0, 2, 4]


def test_quarantine_preserves_rng_parity():
    """Probes must not consume structure randomness: after quarantine,
    committing the good subset leaves the tree in the same state as a
    run that never saw the pills at all."""
    shard = Shard(
        0, MONOID, [1, 2, 3], seed=0,
        policy=ServePolicy(resilience=ResiliencePolicy(ladder=("flat",))),
    )
    twin = Shard(
        0, MONOID, [1, 2, 3], seed=0,
        policy=ServePolicy(resilience=ResiliencePolicy(ladder=("flat",))),
    )
    shard.execute_window(
        [
            Request(req_id=0, shard=0, kind="insert", args=(0, 10)),
            Request(req_id=1, shard=0, kind="insert", args=(1, PoisonPill())),
            Request(req_id=2, shard=0, kind="insert", args=(2, 30)),
        ],
        now=0.0,
    )
    twin.execute_window(
        [
            Request(req_id=0, shard=0, kind="insert", args=(0, 10)),
            Request(req_id=2, shard=0, kind="insert", args=(2, 30)),
        ],
        now=0.0,
    )
    assert shard.values() == twin.values()
    assert shard.session.rng_state() == twin.session.rng_state()
