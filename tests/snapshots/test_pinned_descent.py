"""The pinned reader's two descent paths against the pin-time model.

``PinnedReader`` walks the live columns while its pin holds no
pre-images, and overlays ``saved`` once a writer under the pin has
written.  Both paths must answer ``len``, ``value_at``, ``prefix``,
``range_fold`` and ``total`` exactly as a plain list captured at pin
time does, while the writer is open, after it commits, and after it
rolls back.  The bracketing test folds with a combine that records its
own bracketing and requires every answer to equal ``monoid.fold`` over
the canonical cover, computed here from a deep copy taken at pin time.
"""

from __future__ import annotations

import random
from itertools import accumulate

import pytest

from repro.algebra.monoid import Monoid, sum_monoid
from repro.algebra.rings import INTEGER
from repro.errors import PositionError
from repro.listprefix.structure import IncrementalListPrefix
from repro.snapshots.core import SnapshotState

N = 4096
SUM = sum_monoid(INTEGER)
#: Records its bracketing: every answer is the nested tuple of combines.
BRACKET = Monoid("bracket", "e", lambda a, b: (a, b))


def _ranges(rng, n, k):
    out = [(0, 0), (0, n - 1), (n - 1, n - 1), (1, n - 2)]
    for _ in range(k):
        i, j = sorted((rng.randrange(n), rng.randrange(n)))
        out.append((i, j))
    return out


def _check_against_list(reader, model, rng):
    n = len(model)
    assert len(reader) == n
    for i in range(n):
        assert reader.value_at(i) == model[i]
    prefixes = list(accumulate(model))
    for i in range(n):
        assert reader.prefix(i) == prefixes[i]
    for i, j in _ranges(rng, n, 300):
        assert reader.range_fold(i, j) == sum(model[i : j + 1]), (i, j)
    assert reader.total() == sum(model)
    for bad in ((n, n), (3, 2), (-1, 0)):
        with pytest.raises(PositionError):
            reader.range_fold(*bad)
    with pytest.raises(PositionError):
        reader.prefix(n)
    with pytest.raises(PositionError):
        reader.value_at(n)


def _write(lp, rng):
    n = len(lp)
    lp.batch_insert([(rng.randrange(n + 1), rng.randrange(100)) for _ in range(20)])
    lp.batch_delete([lp.handle_at(i) for i in sorted(rng.sample(range(n), 15))])
    lp.batch_set([(lp.handle_at(i), -i) for i in rng.sample(range(n), 25)])
    lp.insert(rng.randrange(n), 7)
    lp.delete(lp.handle_at(rng.randrange(n)))


def test_both_descent_paths_match_the_pin_time_list():
    rng = random.Random(7)
    lp = IncrementalListPrefix(
        SUM, [rng.randrange(1000) for _ in range(N)], seed=3, backend="flat"
    )
    tree = lp.tree
    model = lp.values()
    with tree.pinned_reader(monoid=SUM) as reader:
        assert not reader._snap.saved  # the live-column path
        _check_against_list(reader, model, rng)

        journal = tree._txn_begin()  # a writer under the pin
        _write(lp, rng)
        assert reader._snap.saved  # the overlay path
        _check_against_list(reader, model, rng)
        tree._txn_rollback(journal)
        assert lp.values() == model
        _check_against_list(reader, model, rng)

        _write(lp, rng)  # committed writes under the pin
        assert lp.values() != model
        _check_against_list(reader, model, rng)
        assert reader.values() == model


def _canonical_cover(state, lo, hi):
    """Roots of the maximal subtrees inside ``[lo, hi]``, left to right."""
    left = state.columns["_left"]
    right = state.columns["_right"]
    counts = state.columns["_n_leaves"]
    out = []

    def walk(v, first):
        last = first + counts[v] - 1
        if last < lo or first > hi:
            return
        if lo <= first and last <= hi:
            out.append(v)
            return
        walk(left[v], first)
        walk(right[v], first + counts[left[v]])

    walk(state.root_index, 0)
    return out


def _check_bracketing(reader, pinned, rng):
    summary = pinned.columns["_summary"]

    def want(i, j):
        return BRACKET.fold(summary[v] for v in _canonical_cover(pinned, i, j))

    n = pinned.columns["_n_leaves"][pinned.root_index]
    for i, j in _ranges(rng, n, 60):
        assert reader.range_fold(i, j) == want(i, j), (i, j)
    for i in (0, 1, n // 3, n - 2, n - 1):
        assert reader.prefix(i) == want(0, i)
    assert reader.total() == want(0, n - 1) == ("e", summary[pinned.root_index])


def test_folds_bracket_like_monoid_fold_over_the_canonical_cover():
    rng = random.Random(11)
    lp = IncrementalListPrefix(BRACKET, list(range(N)), seed=5, backend="flat")
    tree = lp.tree
    pinned = SnapshotState.capture(tree)
    with tree.pinned_reader(monoid=BRACKET) as reader:
        _check_bracketing(reader, pinned, rng)
        journal = tree._txn_begin()
        _write(lp, rng)
        assert reader._snap.saved
        _check_bracketing(reader, pinned, rng)
        tree._txn_rollback(journal)
        _check_bracketing(reader, pinned, rng)
