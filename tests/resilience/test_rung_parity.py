"""Every ladder rung refuses the same requests the same way.

The tree rungs check a request inside the trees (``leaf_at``'s range
check, then the batch validators of :mod:`repro.transactions`); the
sequential rung runs the same checks before its plain list applies the
request.  So a client sees the same exception class or return value,
and the same values afterwards, whichever rung the session is on, and
a refused request costs no retry and no demotion.
"""

from __future__ import annotations

import pytest

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.errors import BatchStructureError
from repro.resilience.executor import ResiliencePolicy, ResilientListSession

MONOID = sum_monoid(INTEGER)
RUNGS = ("flat", "reference", "sequential")
FIVE = [10, 11, 12, 13, 14]
THREE = [1, 2, 3]

#: (values, call) — fifteen requests the trees refuse, five they accept.
PROBES = {
    "batch_delete-duplicate": (FIVE, lambda s: s.batch_delete([3, 3])),
    "batch_delete-negative": (FIVE, lambda s: s.batch_delete([-1])),
    "batch_set-negative": (FIVE, lambda s: s.batch_set([(-1, 99)])),
    "delete-negative": (FIVE, lambda s: s.delete(-1)),
    "insert-negative": (FIVE, lambda s: s.insert(-1, 99)),
    "prefix-negative": (THREE, lambda s: s.prefix(-1)),
    "batch_insert-past-end": (FIVE, lambda s: s.batch_insert([(9, 99)])),
    "batch_insert-bool": (FIVE, lambda s: s.batch_insert([(True, 99)])),
    "batch_set-past-end": (FIVE, lambda s: s.batch_set([(5, 99)])),
    "batch_delete-every-leaf": (FIVE, lambda s: s.batch_delete([0, 1, 2, 3, 4])),
    "range_fold-reversed": (THREE, lambda s: s.range_fold(2, 0)),
    "range_fold-past-end": (THREE, lambda s: s.range_fold(0, 5)),
    "range_fold-negative": (THREE, lambda s: s.range_fold(-1, 2)),
    "prefix-past-end": (THREE, lambda s: s.prefix(3)),
    "delete-last-leaf": ([7], lambda s: s.delete(0)),
    "batch_insert-valid": (
        FIVE, lambda s: s.batch_insert([(5, 99), (0, 98), (0, 97)])
    ),
    "batch_delete-valid": (FIVE, lambda s: s.batch_delete([4, 0])),
    "batch_set-bool": (FIVE, lambda s: s.batch_set([(True, 99), (3, 98)])),
    "insert-at-end": (FIVE, lambda s: s.insert(5, 99)),
    "range_fold-valid": (THREE, lambda s: s.range_fold(1, 2)),
}


def _outcome(rung, values, call):
    session = ResilientListSession(
        MONOID, values, seed=1, policy=ResiliencePolicy(ladder=(rung,))
    )
    try:
        result = ("returned", call(session))
    except Exception as exc:  # the outcome under comparison
        result = ("raised", type(exc))
    assert session.stats["retries"] == 0, f"{rung}: a request cost a retry"
    assert not session.events, f"{rung}: a request demoted the session"
    return result, session.values()


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_every_rung_gives_the_same_outcome(probe):
    values, call = PROBES[probe]
    outcomes = {rung: _outcome(rung, values, call) for rung in RUNGS}
    assert outcomes["sequential"] == outcomes["flat"] == outcomes["reference"], (
        outcomes
    )


def test_deleting_the_last_leaf_is_a_client_error_on_the_default_ladder():
    """The tree's TreeStructureError would read as a fault: six attempts
    and two demotions, then a sequential rung holding no values."""
    session = ResilientListSession(MONOID, [7], seed=1)
    with pytest.raises(BatchStructureError):
        session.delete(0)
    assert session.rung == "flat"
    assert session.values() == [7]
    assert session.stats["attempts"] == 0
    assert session.stats["checkpoints"] == 0
    assert not session.events
