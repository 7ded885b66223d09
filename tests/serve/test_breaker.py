"""Circuit breaker: closed → open → half-open → closed/reopen."""

from __future__ import annotations

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.errors import CorruptionDetectedError, MachineHangError
from repro.resilience.executor import ResiliencePolicy
from repro.serve.requests import Request, ServePolicy
from repro.serve.shard import Shard

MONOID = sum_monoid(INTEGER)


def make_shard(**policy_kw):
    policy_kw.setdefault(
        "resilience", ResiliencePolicy(ladder=("flat",), max_retries=0)
    )
    policy_kw.setdefault("breaker_threshold", 2)
    policy_kw.setdefault("breaker_reset_s", 1.0)
    return Shard(
        0, MONOID, [1, 2, 3], seed=0, policy=ServePolicy(**policy_kw)
    )


def req(req_id, *, deadline=None):
    return Request(
        req_id=req_id, shard=0, kind="insert", args=(0, req_id),
        deadline=deadline,
    )


def _break_structure(shard):
    """Make every tree batch fail recoverably; with a single-rung
    ladder and no retries, each window then fails outright."""
    def boom(*a, **k):
        raise CorruptionDetectedError("induced batch failure")
    shard.session._structure.batch_insert = boom
    return boom


def _fix_structure(shard):
    del shard.session._structure.batch_insert  # back to the class method


def test_breaker_opens_after_consecutive_failures_and_recovers():
    shard = make_shard()
    _break_structure(shard)
    # Two consecutive failed windows reach the threshold.
    assert shard.execute_window([req(0)], 0.0)[0].status == "failed"
    assert shard.breaker_state == "closed"
    assert shard.execute_window([req(1)], 0.0)[1].status == "failed"
    assert shard.breaker_state == "open"
    assert shard.stats["breaker_opens"] == 1
    # While open: instant refusal, nothing queued.
    refusal = shard.offer(req(2), now=0.5)
    assert refusal.status == "circuit-open"
    assert shard.pending == 0
    # After the open interval the next offer half-opens and queues.
    assert shard.offer(req(3), now=1.1) is None
    assert shard.breaker_state == "half-open"
    # The probe window succeeds (structure repaired) -> breaker closes.
    _fix_structure(shard)
    out = shard.execute_window(shard.take_window(), 1.2)
    assert out[3].status == "applied"
    assert shard.breaker_state == "closed"
    assert shard.stats["breaker_closes"] == 1


def test_failed_probe_reopens_with_doubled_interval():
    shard = make_shard(breaker_backoff_factor=2.0)
    _break_structure(shard)
    shard.execute_window([req(0)], 0.0)
    shard.execute_window([req(1)], 0.0)
    assert shard.breaker_state == "open"
    first_until = shard.breaker_open_until
    assert first_until == 1.0  # reset_s * factor^0
    # Half-open probe fails -> reopen immediately (no threshold wait)
    # with the interval doubled.
    assert shard.offer(req(2), now=1.5) is None
    assert shard.breaker_state == "half-open"
    out = shard.execute_window(shard.take_window(), 1.5)
    assert out[2].status == "failed"
    assert shard.breaker_state == "open"
    assert shard.stats["breaker_opens"] == 2
    assert shard.breaker_open_until == 1.5 + 2.0  # reset_s * factor^1


def test_success_resets_consecutive_failure_count():
    shard = make_shard()
    _break_structure(shard)
    shard.execute_window([req(0)], 0.0)
    assert shard.breaker_failures == 1
    _fix_structure(shard)
    shard.execute_window([req(1)], 0.0)
    assert shard.breaker_failures == 0
    _break_structure(shard)
    shard.execute_window([req(2)], 0.0)
    assert shard.breaker_state == "closed"  # 1 < threshold again


def test_backend_hang_demotion_is_confined_to_one_shard():
    """A hanging backend on one shard demotes that shard's session down
    the ladder; sibling shards keep their rung and their traffic."""
    policy = ServePolicy(
        resilience=ResiliencePolicy(
            ladder=("flat", "reference"), max_retries=0
        )
    )
    sick = Shard(0, MONOID, [1, 2, 3], seed=0, policy=policy)
    healthy = Shard(1, MONOID, [4, 5, 6], seed=0, policy=policy)

    def hang(*a, **k):
        raise MachineHangError("backend hung mid-batch")

    sick.session._structure.batch_insert = hang
    out = sick.execute_window([req(0)], 0.0)
    # The ladder absorbed the hang: demoted to reference, op applied.
    assert out[0].status == "applied"
    assert sick.session.rung == "reference"
    assert len(sick.session.events) == 1
    assert "backend hung" in sick.session.events[0].reason
    assert sick.values() == [0, 1, 2, 3]
    # The sibling shard is untouched.
    h_out = healthy.execute_window(
        [Request(req_id=9, shard=1, kind="insert", args=(0, 9))], 0.0
    )
    assert h_out[9].status == "applied"
    assert healthy.session.rung == "flat"
    assert healthy.session.events == []
    # And the sick shard keeps serving on its new rung.
    assert sick.execute_window([req(1)], 0.0)[1].status == "applied"
    assert sick.breaker_state == "closed"  # demotion is not a failure
