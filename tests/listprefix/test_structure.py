"""Theorem 3.1 — incremental list prefix against itertools oracles."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.monoid import max_monoid, min_monoid, sum_monoid
from repro.algebra.rings import INTEGER
from repro.baselines.sequential_list import SequentialList
from repro.errors import RequestError
from repro.listprefix.structure import IncrementalListPrefix
from repro.pram.frames import SpanTracker


def sum_lp(values, seed=0):
    return IncrementalListPrefix(sum_monoid(INTEGER), values, seed=seed)


@given(
    values=st.lists(st.integers(-50, 50), min_size=1, max_size=150),
    seed=st.integers(0, 20),
)
@settings(max_examples=40, deadline=None)
def test_single_prefix_matches_accumulate(values, seed):
    lp = sum_lp(values, seed)
    prefixes = list(itertools.accumulate(values))
    handles = lp.handles()
    for i in (0, len(values) // 2, len(values) - 1):
        assert lp.prefix(handles[i]) == prefixes[i]


@given(
    values=st.lists(st.integers(-50, 50), min_size=1, max_size=150),
    seed=st.integers(0, 20),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_batch_prefix_matches_accumulate(values, seed, data):
    lp = sum_lp(values, seed)
    prefixes = list(itertools.accumulate(values))
    k = data.draw(st.integers(1, min(20, len(values))))
    idxs = data.draw(
        st.lists(
            st.integers(0, len(values) - 1), min_size=k, max_size=k, unique=True
        )
    )
    handles = lp.handles()
    got = lp.batch_prefix([handles[i] for i in idxs])
    assert got == [prefixes[i] for i in idxs]


def test_total_is_exactly_maintained():
    lp = sum_lp([1, 2, 3])
    assert lp.total() == 6
    lp.batch_set([(lp.handle_at(1), 10)])
    assert lp.total() == 14  # O(1) read, no recomputation


def test_batch_prefix_empty():
    lp = sum_lp([1])
    assert lp.batch_prefix([]) == []


def test_batch_prefix_duplicate_handles():
    lp = sum_lp([1, 2, 3])
    h = lp.handle_at(1)
    assert lp.batch_prefix([h, h]) == [3, 3]


@given(
    values=st.lists(st.integers(-20, 20), min_size=2, max_size=100),
    seed=st.integers(0, 10),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_range_fold_min_max(values, seed, data):
    i = data.draw(st.integers(0, len(values) - 1))
    j = data.draw(st.integers(i, len(values) - 1))
    for monoid, oracle in ((min_monoid(), min), (max_monoid(), max)):
        lp = IncrementalListPrefix(monoid, values, seed=seed)
        hs = lp.handles()
        assert lp.range_fold(hs[i], hs[j]) == oracle(values[i : j + 1])


def test_range_fold_single_element():
    lp = sum_lp([5, 7, 9])
    h = lp.handle_at(1)
    assert lp.range_fold(h, h) == 7


def test_range_fold_rejects_reversed():
    lp = sum_lp([1, 2, 3])
    with pytest.raises(RequestError):
        lp.range_fold(lp.handle_at(2), lp.handle_at(0))


def test_inserts_deletes_updates_keep_prefixes():
    rng = random.Random(0)
    values = [rng.randint(-9, 9) for _ in range(60)]
    lp = sum_lp(values, seed=1)
    oracle = SequentialList(sum_monoid(INTEGER), values)
    for round_ in range(12):
        reqs = [(rng.randint(0, len(oracle)), rng.randint(-9, 9)) for _ in range(3)]
        lp.batch_insert(reqs)
        oracle.batch_insert(reqs)
        victims_idx = rng.sample(range(len(oracle)), 2)
        lp.batch_delete([lp.handle_at(i) for i in victims_idx])
        oracle.batch_delete(victims_idx)
        model = oracle.values()
        assert lp.values() == model
        prefixes = list(itertools.accumulate(model))
        sample = rng.sample(range(len(model)), 5)
        hs = lp.handles()
        assert lp.batch_prefix([hs[i] for i in sample]) == [
            prefixes[i] for i in sample
        ]


def test_batch_prefix_span_beats_sequential():
    import math

    n = 1 << 12
    values = list(range(n))
    lp = sum_lp(values, seed=2)
    hs = lp.handles()
    idxs = random.Random(1).sample(range(n), 32)
    tracker = SpanTracker()
    lp.batch_prefix([hs[i] for i in idxs], tracker)
    assert tracker.span <= 32 * math.log2(n) / 4  # far below |U| log n


def test_works_with_noncommutative_monoid():
    """Prefix machinery needs associativity only: string concatenation."""
    from repro.algebra.monoid import Monoid

    concat = Monoid("concat", "", lambda a, b: a + b)
    lp = IncrementalListPrefix(concat, list("hello world"), seed=3)
    hs = lp.handles()
    assert lp.prefix(hs[4]) == "hello"
    assert lp.batch_prefix([hs[10]]) == ["hello world"]
    assert lp.range_fold(hs[6], hs[10]) == "world"
