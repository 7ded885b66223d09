"""Pinned-epoch reader API (PR 10 satellite).

``tree.pinned_reader()`` pins the capture epoch (O(1) on the flat
family via the transaction stack; deep capture on the reference
backend) and answers values/folds from that epoch while the live tree
keeps mutating.  The descent tests check every answer against a plain
list model with an order-sensitive monoid, never against the tree.  The differential test
interleaves a writer with an open reader and demands the reader stays
bit-stable on the pinned image while the writer's transactional
semantics (including crash rollback) are untouched by the pin.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.monoid import Monoid, max_monoid, sum_monoid
from repro.algebra.rings import INTEGER
from repro.contraction.dynamic import DynamicTreeContraction
from repro.errors import BatchPositionError, InvalidParameterError
from repro.listprefix.structure import IncrementalListPrefix
from repro.snapshots import PinnedReader, pinned_reader
from repro.snapshots.core import FlatSnapshot
from repro.splitting.rbsts import RBSTS
from repro.trees.expr import ExprTree

BACKENDS = ("reference", "flat")
MONOID = sum_monoid(INTEGER)


def _prefix_oracle(values, i):
    acc = MONOID.identity
    for v in values[: i + 1]:
        acc = MONOID.combine(acc, v)
    return acc


@pytest.mark.parametrize("backend", BACKENDS)
def test_reader_pins_epoch_while_writer_mutates(backend):
    lp = IncrementalListPrefix(
        MONOID, list(range(1, 9)), seed=11, backend=backend
    )
    pinned = lp.values()
    with lp.tree.pinned_reader(monoid=MONOID) as reader:
        assert reader.values() == pinned
        assert len(reader) == len(pinned)
        # Writer churns through several batches while the pin is open.
        lp.batch_insert([(0, 100), (4, 200)])
        lp.batch_delete([lp.handle_at(1)])
        lp.batch_set([(lp.handle_at(0), 999)])
        assert lp.values() != pinned
        # Reader still answers from the pinned epoch, bit-for-bit.
        assert reader.values() == pinned
        for i in range(len(pinned)):
            assert reader.value_at(i) == pinned[i]
            assert reader.prefix(i) == _prefix_oracle(pinned, i)
        assert reader.range_fold(2, 5) == sum(pinned[2:6])
        assert reader.total() == sum(pinned)
    # After close the live tree is what the writer made it.
    assert lp.values()[0] == 999


@pytest.mark.parametrize("backend", BACKENDS)
def test_writer_rollback_is_untouched_by_open_pin(backend):
    """A strict-rejected batch under an open pin must still roll back
    to the pre-batch state: the pinned reader is an observer, never the
    rollback owner (``Snapshot.pinned`` contract)."""
    lp = IncrementalListPrefix(
        MONOID, [5, 6, 7, 8], seed=3, backend=backend
    )
    with lp.tree.pinned_reader(monoid=MONOID) as reader:
        before = lp.values()
        rng_before = lp.rng_state()
        with pytest.raises(BatchPositionError):
            lp.batch_insert([(0, 50), (999, 51)])
        assert lp.values() == before
        assert lp.rng_state() == rng_before
        lp.check_invariants()
        assert reader.values() == [5, 6, 7, 8]


@pytest.mark.parametrize("backend", BACKENDS)
def test_nested_pins_and_epoch(backend):
    lp = IncrementalListPrefix(MONOID, [1, 2, 3], seed=0, backend=backend)
    with lp.tree.pinned_reader(monoid=MONOID) as outer:
        lp.insert(0, 10)
        with lp.tree.pinned_reader(monoid=MONOID) as inner:
            lp.insert(0, 20)
            assert outer.values() == [1, 2, 3]
            assert inner.values() == [10, 1, 2, 3]
        assert lp.values() == [20, 10, 1, 2, 3]


@pytest.mark.parametrize("backend", BACKENDS)
def test_reader_error_contract(backend):
    lp = IncrementalListPrefix(MONOID, [1, 2, 3], seed=0, backend=backend)
    reader = PinnedReader(lp.tree, monoid=MONOID)
    assert reader.values() == [1, 2, 3]
    reader.close()
    reader.close()  # idempotent
    # Materialized before close: queries keep working after.
    assert reader.total() == 6
    # Unmaterialized-at-close readers refuse queries on the flat
    # family (lazy materialize needs the pin open); the reference
    # backend captures eagerly so its image survives regardless.
    fresh = PinnedReader(lp.tree, monoid=MONOID)
    fresh.close()
    if backend == "flat":
        with pytest.raises(InvalidParameterError):
            fresh.values()
    else:
        assert fresh.values() == [1, 2, 3]
    # No monoid -> folds refuse, values still work.
    with pinned_reader(lp.tree) as plain:
        assert plain.values() == [1, 2, 3]
        with pytest.raises(InvalidParameterError):
            plain.total()


@pytest.mark.parametrize("backend", BACKENDS)
def test_contraction_exposes_pinned_reader(backend):
    from repro.trees.nodes import add_op

    tree = ExprTree(INTEGER)
    left, _right = tree.grow_leaf(tree.root.nid, add_op(), 3, 4)
    dtc = DynamicTreeContraction(tree, backend=backend)
    with dtc.pinned_reader() as reader:
        pinned_ids = reader.values()
        dtc.batch_grow([(left, add_op(), 7, 8)])
        # The pin is immune to the PT churn batch_grow causes.
        assert reader.values() == pinned_ids
        assert dtc.pt.n_leaves == len(pinned_ids) + 1


# ---------------------------------------------------------------------------
# O(depth) descents: differential against an independent list model
# ---------------------------------------------------------------------------

P = 1_000_003


class Detonation(Exception):
    pass


def _compose(f, g):
    # Affine maps x -> a*x + b mod P, applied left then right: order
    # matters, so a fold assembled out of order cannot pass.
    if f == "boom" or g == "boom":
        raise Detonation("poisoned value reached the summary fold")
    return (f[0] * g[0] % P, (f[1] * g[0] + g[1]) % P)


AFFINE = Monoid("affine-mod-p", (1, 0), _compose)


def _value(rng):
    return (rng.randrange(1, P), rng.randrange(P))


def _fold(values):
    acc = AFFINE.identity
    for v in values:
        acc = _compose(acc, v)
    return acc


def _apply_inserts(model, reqs):
    """Model of batch_insert: indices address the pre-batch list and
    equal indices land in request order."""
    by_pos = {}
    for pos, v in reqs:
        by_pos.setdefault(pos, []).append(v)
    out = []
    for pos in range(len(model) + 1):
        out.extend(by_pos.get(pos, ()))
        if pos < len(model):
            out.append(model[pos])
    return out


def _check_all_pairs(reader, expected):
    assert len(reader) == len(expected)
    assert reader.total() == _fold(expected)
    for i in range(len(expected)):
        assert reader.value_at(i) == expected[i]
        acc = AFFINE.identity
        for j in range(i, len(expected)):
            acc = _compose(acc, expected[j])
            assert reader.range_fold(i, j) == acc
            if i == 0:
                assert reader.prefix(j) == acc


def _check_some_pairs(reader, expected, rng, samples):
    n = len(expected)
    assert len(reader) == n
    assert reader.total() == _fold(expected)
    edges = {0, 1, n // 2, n - 2, n - 1}
    pairs = {(i, j) for i in edges for j in edges if i <= j}
    while len(pairs) < len(edges) ** 2 + samples:
        i, j = sorted(rng.randrange(n) for _ in range(2))
        pairs.add((i, j))
    for i, j in sorted(pairs):
        assert reader.range_fold(i, j) == _fold(expected[i : j + 1])
        assert reader.value_at(j) == expected[j]
    for j in sorted(edges | {rng.randrange(n) for _ in range(samples)}):
        assert reader.prefix(j) == _fold(expected[: j + 1])


def _churn(lp, model, rng, *, inserts, deletes):
    """One rebuilding insert batch then one delete batch on the live
    structure; returns the updated model and the rebuild mass."""
    reqs = [(rng.randrange(len(model) + 1), _value(rng)) for _ in range(inserts)]
    lp.batch_insert(reqs)
    mass = lp.tree.last_batch_stats["rebuild_mass"]
    model = _apply_inserts(model, reqs)
    dead = sorted(rng.sample(range(len(model)), deletes))
    lp.batch_delete([lp.handle_at(i) for i in dead])
    mass += lp.tree.last_batch_stats["rebuild_mass"]
    gone = set(dead)
    return [v for i, v in enumerate(model) if i not in gone], mass


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_descents_match_model_under_churn_rollback_and_nesting(backend, seed):
    rng = random.Random(seed)
    model = [_value(rng) for _ in range(40)]
    lp = IncrementalListPrefix(AFFINE, model, seed=seed, backend=backend)
    with lp.tree.pinned_reader(monoid=AFFINE) as outer:
        pinned_outer = list(model)
        model, mass = _churn(lp, model, rng, inserts=12, deletes=8)
        assert mass > 0
        _check_all_pairs(outer, pinned_outer)
        # Strict admission rejection: no mutation at all.
        with pytest.raises(BatchPositionError):
            lp.batch_insert([(0, _value(rng)), (10_000, _value(rng))])
        # Mid-apply crash: the poisoned summary fold rolls the batch
        # back after it has already rewritten slots under the pin.
        with pytest.raises(Detonation):
            lp.batch_insert([(3, _value(rng)), (7, "boom")])
        assert lp.values() == model
        _check_all_pairs(outer, pinned_outer)
        with lp.tree.pinned_reader(monoid=AFFINE) as inner:
            pinned_inner = list(model)
            model, mass = _churn(lp, model, rng, inserts=16, deletes=4)
            assert mass > 0
            _check_all_pairs(inner, pinned_inner)
            _check_all_pairs(outer, pinned_outer)
        model, _ = _churn(lp, model, rng, inserts=5, deletes=5)
        assert lp.values() == model
        _check_all_pairs(outer, pinned_outer)
    lp.check_invariants()


@pytest.mark.parametrize("seed", [0, 1])
def test_descents_match_model_on_a_4096_leaf_flat_tree(seed):
    rng = random.Random(100 + seed)
    model = [_value(rng) for _ in range(4096)]
    lp = IncrementalListPrefix(AFFINE, model, seed=seed, backend="flat")
    with lp.tree.pinned_reader(monoid=AFFINE) as reader:
        pinned = list(model)
        for _ in range(3):
            model, mass = _churn(lp, model, rng, inserts=64, deletes=48)
            assert mass > 0
        with pytest.raises(Detonation):
            lp.batch_insert([(0, _value(rng)), (2048, "boom")])
        _check_some_pairs(reader, pinned, rng, samples=60)
    assert lp.values() == model


def test_descent_queries_never_materialize(monkeypatch):
    calls = []
    original = FlatSnapshot.materialize

    def counting(self, tree):
        calls.append(1)
        return original(self, tree)

    monkeypatch.setattr(FlatSnapshot, "materialize", counting)
    rng = random.Random(7)
    model = [_value(rng) for _ in range(300)]
    lp = IncrementalListPrefix(AFFINE, model, seed=7, backend="flat")
    with lp.tree.pinned_reader(monoid=AFFINE) as reader:
        _churn(lp, model, rng, inserts=20, deletes=10)
        assert len(reader) == 300
        assert reader.value_at(299) == model[299]
        assert reader.prefix(150) == _fold(model[:151])
        assert reader.range_fold(20, 280) == _fold(model[20:281])
        assert reader.total() == _fold(model)
        assert calls == []
        assert reader.values() == model  # the O(n) cut, once
        assert calls == [1]


@pytest.mark.parametrize("backend", BACKENDS)
def test_fold_monoid_must_be_the_trees_own(backend):
    lp = IncrementalListPrefix(MONOID, [1, 2, 3], seed=0, backend=backend)
    # An equal-looking but distinct monoid, and an unrelated one.
    for other in (sum_monoid(INTEGER), max_monoid()):
        with pytest.raises(InvalidParameterError):
            PinnedReader(lp.tree, monoid=other)
        assert lp.tree._txn is None  # a refused reader pins nothing
    with lp.tree.pinned_reader(monoid=lp.monoid) as reader:
        assert reader.total() == 6


@pytest.mark.parametrize("backend", BACKENDS)
def test_fold_reader_refused_without_summaries(backend):
    tree = RBSTS([4, 5, 6], seed=0, backend=backend)
    assert tree.summarizer is None
    with pytest.raises(InvalidParameterError):
        PinnedReader(tree, monoid=MONOID)
    assert tree._txn is None
    # Structural reads need no monoid and stay allowed.
    with tree.pinned_reader() as reader:
        assert len(reader) == 3
        assert [reader.value_at(i) for i in range(3)] == [4, 5, 6]
        assert reader.values() == [4, 5, 6]
