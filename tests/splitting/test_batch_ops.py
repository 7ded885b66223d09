"""Batch insert/delete/update (Theorems 2.2/2.3): semantics + costs."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.baselines.sequential_list import SequentialList
from repro.errors import RequestError, TreeStructureError
from repro.pram.frames import SpanTracker
from repro.splitting.build import Summarizer
from repro.splitting.rbsts import RBSTS


def summed(items, seed=0):
    return RBSTS(
        items, seed=seed, summarizer=Summarizer(sum_monoid(INTEGER), lambda x: x)
    )


def batch_insert_oracle(items, requests):
    oracle = SequentialList(sum_monoid(INTEGER), items)
    oracle.batch_insert(requests)
    return oracle.values()


@given(
    n=st.integers(2, 120),
    seed=st.integers(0, 30),
    k=st.integers(1, 25),
)
@settings(max_examples=40, deadline=None)
def test_batch_insert_semantics(n, seed, k):
    rng = random.Random(seed * 1000 + n)
    items = list(range(n))
    t = summed(items, seed=seed)
    requests = [(rng.randint(0, n), 1000 + i) for i in range(k)]
    handles = t.batch_insert(requests)
    expect = batch_insert_oracle(items, requests)
    assert [l.item for l in t.leaves()] == expect
    assert [h.item for h in handles] == [it for _, it in requests]
    t.check_invariants()
    assert t.root.summary == sum(expect)


def test_batch_insert_equal_positions_keep_request_order():
    t = RBSTS(list("abc"), seed=0)
    t.batch_insert([(1, "x"), (1, "y"), (1, "z")])
    assert [l.item for l in t.leaves()] == ["a", "x", "y", "z", "b", "c"]


def test_batch_insert_empty_is_noop():
    t = RBSTS(range(5))
    assert t.batch_insert([]) == []


def test_batch_insert_rejects_bad_position():
    t = RBSTS(range(5))
    with pytest.raises(RequestError):
        t.batch_insert([(9, 0)])


@given(
    n=st.integers(4, 120),
    seed=st.integers(0, 30),
    k=st.integers(1, 20),
)
@settings(max_examples=40, deadline=None)
def test_batch_delete_semantics(n, seed, k):
    rng = random.Random(seed * 917 + n)
    k = min(k, n - 1)
    t = summed(range(n), seed=seed)
    victims = [t.leaf_at(i) for i in rng.sample(range(n), k)]
    keep = [l.item for l in t.leaves() if l not in victims]
    t.batch_delete(victims)
    assert [l.item for l in t.leaves()] == keep
    t.check_invariants()
    assert t.root.summary == sum(keep)


def test_batch_delete_rejects_duplicates_and_all_leaves():
    t = RBSTS(range(4))
    leaf = t.leaf_at(0)
    with pytest.raises(RequestError):
        t.batch_delete([leaf, leaf])
    with pytest.raises(TreeStructureError):
        t.batch_delete(t.leaves())


def test_batch_delete_contiguous_block():
    # Deleting a whole subtree's leaves exercises site widening.
    t = RBSTS(range(64), seed=7)
    victims = [t.leaf_at(i) for i in range(10, 40)]
    t.batch_delete(victims)
    assert [l.item for l in t.leaves()] == list(range(10)) + list(range(40, 64))
    t.check_invariants()


def test_batch_update_items_semantics_and_summaries():
    t = summed(range(30), seed=2)
    updates = [(t.leaf_at(i), 100 + i) for i in (3, 7, 20)]
    t.batch_update_items(updates)
    expect = [100 + i if i in (3, 7, 20) else i for i in range(30)]
    assert [l.item for l in t.leaves()] == expect
    assert t.root.summary == sum(expect)
    t.check_invariants()


def test_batch_rebuild_mass_is_reported_and_bounded():
    rng = random.Random(3)
    t = RBSTS(range(4096), seed=3)
    requests = [(rng.randint(0, t.n_leaves), i) for i in range(16)]
    t.batch_insert(requests)
    stats = t.last_batch_stats
    assert stats["sites"] >= 1
    assert stats["rebuild_mass"] >= stats["sites"]
    # Theorem 2.2: E[S] = O(|U| log n); allow generous slack for variance.
    import math

    assert stats["rebuild_mass"] <= 40 * 16 * math.log2(4096)


def test_batch_span_grows_sublinearly_in_u():
    """Parallel batch span must be far below the sequential |U|·log n."""
    import math

    t = RBSTS(range(4096), seed=11)
    rng = random.Random(5)
    tracker = SpanTracker()
    requests = [(rng.randint(0, t.n_leaves), i) for i in range(64)]
    t.batch_insert(requests, tracker)
    sequential = 64 * math.log2(4096)
    assert tracker.span < sequential / 2
    assert tracker.work >= tracker.span


def test_interleaved_batches_stay_consistent():
    rng = random.Random(8)
    t = summed(range(100), seed=8)
    oracle = SequentialList(sum_monoid(INTEGER), range(100))
    for round_ in range(15):
        reqs = [(rng.randint(0, len(oracle)), 10_000 + round_ * 100 + i) for i in range(5)]
        t.batch_insert(reqs)
        oracle.batch_insert(reqs)
        idxs = rng.sample(range(len(oracle)), 4)
        victims = [t.leaf_at(i) for i in idxs]
        t.batch_delete(victims)
        oracle.batch_delete(idxs)
        model = oracle.values()
        assert [l.item for l in t.leaves()] == model
        t.check_invariants()
