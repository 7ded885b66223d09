"""Differential harness: FlatContraction pinned op-for-op against the
reference RakeTrace.

The flat contraction backend's contract (see
``src/repro/perf/flat_contraction.py``) promises the *same replay
semantics* as :func:`~repro.contraction.rake_tree.build_trace` — values,
rounds, wound sizes, fresh-node counts, removal/death records, tracker
charges and RNG consumption all bit-identical, on either kernel path.
These tests drive randomized mixed batch sequences through both
backends in lockstep and compare everything observable.
"""

from __future__ import annotations

import random
import statistics

import pytest

from repro.algebra.rings import BOOLEAN, FLOAT, INTEGER, modular_ring
from repro.contraction.dynamic import DynamicTreeContraction
from repro.contraction.rake_tree import RakeTrace
from repro.errors import TreeStructureError
from repro.perf.flat_contraction import FlatContraction
from repro.perf.kernels import KERNEL_ENV
from repro.pram.frames import SpanTracker
from repro.trees.builders import random_expression_tree, random_tree
from repro.trees.expr import ExprTree
from repro.trees.nodes import add_op, mul_op

MOD97 = modular_ring(97)


def make_pair(ring, n, seed):
    """Twin engines over identically-built trees, one per backend."""
    t_ref = random_expression_tree(ring, n, seed=seed)
    t_flat = random_expression_tree(ring, n, seed=seed)
    ref = DynamicTreeContraction(t_ref, seed=seed + 1)
    flat = DynamicTreeContraction(t_flat, seed=seed + 1, backend="flat")
    return ref, flat


def assert_twins(ref, flat):
    assert flat.value() == ref.value()
    assert flat.rounds() == ref.rounds()
    assert flat.last_stats == ref.last_stats
    assert flat.rng_state() == ref.rng_state()
    ref.check_consistency()
    flat.check_consistency()


def random_ops(rnd):
    return mul_op() if rnd.random() < 0.3 else add_op()


def drive(ref, flat, rnd, steps=10, kinds=None, width=3, records=False):
    """A deterministic mixed batch sequence applied to both twins.
    ``width`` is the grow/prune batch size; ``records`` also compares
    every death record, removal kind and ``next_rid`` after each
    batch."""
    tree_r, tree_f = ref.tree, flat.tree
    for _ in range(steps):
        kind = rnd.choice(kinds or ["grow", "prune", "setv", "setop", "query"])
        tr_r, tr_f = SpanTracker(), SpanTracker()
        if kind == "grow":
            leaves = [l.nid for l in tree_r.leaves_in_order()]
            targets = sorted(rnd.sample(leaves, min(width, len(leaves))))
            reqs = [
                (nid, random_ops(rnd), rnd.randint(-4, 4), rnd.randint(-4, 4))
                for nid in targets
            ]
            assert ref.batch_grow(reqs, tr_r) == flat.batch_grow(reqs, tr_f)
        elif kind == "prune":
            cands = [
                n.nid
                for n in tree_r.nodes_preorder()
                if not n.is_leaf and n.left.is_leaf and n.right.is_leaf
            ]
            if not cands:
                continue
            targets = sorted(rnd.sample(cands, min(width - 1, len(cands))))
            reqs = [(nid, rnd.randint(-4, 4)) for nid in targets]
            ref.batch_prune(reqs, tr_r)
            flat.batch_prune(reqs, tr_f)
        elif kind == "setv":
            leaves = [l.nid for l in tree_r.leaves_in_order()]
            targets = sorted(rnd.sample(leaves, min(4, len(leaves))))
            reqs = [(nid, rnd.randint(-4, 4)) for nid in targets]
            ref.batch_set_leaf_values(reqs, tr_r)
            flat.batch_set_leaf_values(reqs, tr_f)
        elif kind == "setop":
            internal = [
                n.nid for n in tree_r.nodes_preorder() if not n.is_leaf
            ]
            if not internal:
                continue
            targets = sorted(rnd.sample(internal, min(2, len(internal))))
            reqs = [(nid, random_ops(rnd)) for nid in targets]
            ref.batch_set_ops(reqs, tr_r)
            flat.batch_set_ops(reqs, tr_f)
        else:  # query
            ids = [n.nid for n in tree_r.nodes_preorder()]
            picks = sorted(rnd.sample(ids, min(6, len(ids))))
            assert ref.query_values(picks, tr_r) == flat.query_values(
                picks, tr_f
            )
        assert (tr_r.work, tr_r.span) == (tr_f.work, tr_f.span)
        assert_twins(ref, flat)
        if records:
            m = tree_r._next_id
            assert_same_labels(ref, flat, m)
            for nid in range(m):
                assert flat.trace.removal_kind(nid) == ref.trace.removal_kind(
                    nid
                ), nid
            assert flat.trace.next_rid == ref.trace.next_rid


# ---------------------------------------------------------------------------
# construction + the backend switch
# ---------------------------------------------------------------------------


def test_backend_switch_dispatches():
    tree = random_expression_tree(INTEGER, 16, seed=0)
    flat = DynamicTreeContraction(tree, backend="flat")
    assert isinstance(flat.trace, FlatContraction)
    tree2 = random_expression_tree(INTEGER, 16, seed=0)
    ref = DynamicTreeContraction(tree2)
    assert isinstance(ref.trace, RakeTrace)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [2, 3, 7, 64, 257])
def test_same_seed_same_contraction(n, seed):
    ref, flat = make_pair(INTEGER, n, seed)
    assert_twins(ref, flat)
    assert flat.value() == flat.tree.evaluate()
    assert flat.trace.size() == ref.trace.size()


def test_single_leaf_early_path():
    """The single-node tree mirrors the reference early return: zero
    rounds, the value read straight off the base row."""
    t_ref, t_flat = ExprTree(INTEGER, root_value=11), ExprTree(
        INTEGER, root_value=11
    )
    ref = DynamicTreeContraction(t_ref)
    flat = DynamicTreeContraction(t_flat, backend="flat")
    assert flat.value() == 11
    assert (flat.rounds(), ref.rounds()) == (0, 0)
    ref.batch_grow([(t_ref.root.nid, add_op(), 1, 2)])
    flat.batch_grow([(t_flat.root.nid, add_op(), 1, 2)])
    assert flat.value() == 3
    assert_twins(ref, flat)


# ---------------------------------------------------------------------------
# the main differential mixes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ring", [INTEGER, MOD97], ids=lambda r: r.name)
@pytest.mark.parametrize("seed", range(10))
def test_mixed_ops_differential(ring, seed):
    rnd = random.Random(0xF1A7 ^ seed)
    ref, flat = make_pair(ring, rnd.randint(4, 90), seed)
    drive(ref, flat, rnd, steps=10)


@pytest.mark.parametrize("seed", range(3))
def test_churn_differential_at_scale(seed):
    """Grow/prune churn at n = 2**10, |U| = 16: after every batch the
    change-propagation replay leaves every death record, removal kind,
    fresh-node count, round count and rid stamp equal to the
    reference's from-scratch memoised replay."""
    rnd = random.Random(0xC4 ^ seed)
    ref, flat = make_pair(INTEGER, 1 << 10, seed)
    drive(
        ref, flat, rnd, steps=8, kinds=["grow", "prune", "setv"],
        width=16, records=True,
    )


@pytest.mark.parametrize("seed", range(4))
def test_float_ring_bitwise_parity(seed):
    """Float labels: both backends apply the identical IEEE-754
    expression shapes, so even the inexact ring agrees exactly."""
    rnd = random.Random(0x0F10A7 ^ seed)
    t_ref = random_tree(
        FLOAT, 40, random.Random(seed),
        values=lambda r: round(r.uniform(-2.0, 2.0), 3),
    )
    t_flat = random_tree(
        FLOAT, 40, random.Random(seed),
        values=lambda r: round(r.uniform(-2.0, 2.0), 3),
    )
    ref = DynamicTreeContraction(t_ref, seed=seed)
    flat = DynamicTreeContraction(t_flat, seed=seed, backend="flat")
    assert_twins(ref, flat)
    for _ in range(6):
        leaves = [l.nid for l in t_ref.leaves_in_order()]
        targets = sorted(rnd.sample(leaves, 3))
        reqs = [(nid, round(rnd.uniform(-2.0, 2.0), 3)) for nid in targets]
        ref.batch_set_leaf_values(reqs)
        flat.batch_set_leaf_values(reqs)
        assert_twins(ref, flat)


def test_boolean_ring_forces_python_kernels(monkeypatch):
    """Non-numeric rings take the Python kernels in every mode — the
    fallback is silent and the answers still match the oracle."""
    monkeypatch.setenv(KERNEL_ENV, "numpy")
    rnd = random.Random(7)
    tree = random_tree(
        BOOLEAN, 33, random.Random(7), values=lambda r: r.random() < 0.5
    )
    flat = DynamicTreeContraction(tree, seed=1, backend="flat")
    assert flat.value() == tree.evaluate()
    leaves = [l.nid for l in tree.leaves_in_order()]
    flat.batch_set_leaf_values(
        [(nid, rnd.random() < 0.5) for nid in sorted(rnd.sample(leaves, 5))]
    )
    assert flat.value() == tree.evaluate()
    flat.check_consistency()


# ---------------------------------------------------------------------------
# kernel-path equivalence: REPRO_KERNELS must not change any output
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "ring", [INTEGER, FLOAT, MOD97], ids=lambda r: r.name
)
def test_kernel_modes_bit_identical(ring, monkeypatch):
    def transcript(mode):
        monkeypatch.setenv(KERNEL_ENV, mode)
        rnd = random.Random(0xBEEF)
        tree = random_expression_tree(ring, 70, seed=5)
        d = DynamicTreeContraction(tree, seed=6, backend="flat")
        out = [d.value(), d.rounds(), dict(d.last_stats)]
        for _ in range(8):
            leaves = [l.nid for l in tree.leaves_in_order()]
            targets = sorted(rnd.sample(leaves, 4))
            d.batch_set_leaf_values(
                [(nid, rnd.randint(-4, 4)) for nid in targets]
            )
            out.append((d.value(), dict(d.last_stats)))
            grow = sorted(rnd.sample(leaves, 2))
            d.batch_grow(
                [(nid, random_ops(rnd), 1, rnd.randint(-3, 3)) for nid in grow]
            )
            ids = [n.nid for n in tree.nodes_preorder()]
            out.append(d.query_values(sorted(rnd.sample(ids, 5))))
            out.append((d.value(), dict(d.last_stats)))
        d.check_consistency()
        return out

    assert transcript("python") == transcript("numpy")


# ---------------------------------------------------------------------------
# protocol surfaces: removal / death records
# ---------------------------------------------------------------------------


def test_removal_and_death_records_match_reference():
    ref, flat = make_pair(INTEGER, 48, 3)
    m = ref.tree._next_id
    for nid in range(m + 2):
        assert flat.trace.removal_kind(nid) == ref.trace.removal_kind(nid)
        r_rec = ref.trace.death_record(nid)
        f_rec = flat.trace.death_record(nid)
        if r_rec is None:
            assert f_rec is None
        else:
            # Same tag, payload label, survivor, and child positions.
            assert f_rec == r_rec
    # The lazy reference-shaped removal map exposes the same keys/kinds.
    assert {k: v[0] for k, v in flat.trace.removal.items()} == {
        k: v[0] for k, v in ref.trace.removal.items()
    }


def test_set_op_on_leaf_rejected_flat():
    tree = random_expression_tree(INTEGER, 12, seed=4)
    flat = DynamicTreeContraction(tree, backend="flat")
    leaf = tree.leaves_in_order()[0]
    with pytest.raises(TreeStructureError):
        flat.batch_set_ops([(leaf.nid, add_op())])


def test_query_values_match_subtree_oracle_flat():
    tree = random_expression_tree(INTEGER, 150, seed=6)
    flat = DynamicTreeContraction(tree, seed=7, backend="flat")
    rng = random.Random(6)
    ids = rng.sample([n.nid for n in tree.nodes_preorder()], 30)
    for nid, v in zip(ids, flat.query_values(ids)):
        assert v == tree.evaluate(at=nid)


# ---------------------------------------------------------------------------
# slab hygiene: churn must not grow the slab without bound
# ---------------------------------------------------------------------------


def test_slab_stays_bounded_under_churn():
    """Rows in use stay within the live bound — ``_GC_FACTOR`` rows per
    live T node — however many ids the tree has issued."""
    from repro.perf.flat_contraction import _GC_FACTOR

    rnd = random.Random(9)
    tree = random_expression_tree(INTEGER, 48, seed=9)
    flat = DynamicTreeContraction(tree, seed=10, backend="flat")
    trace = flat.trace
    for step in range(300):
        leaves = [l.nid for l in tree.leaves_in_order()]
        grow = sorted(rnd.sample(leaves, 3))
        flat.batch_grow(
            [(nid, random_ops(rnd), 1, 2) for nid in grow]
        )
        cands = [
            n.nid
            for n in tree.nodes_preorder()
            if not n.is_leaf and n.left.is_leaf and n.right.is_leaf
        ]
        prune = sorted(rnd.sample(cands, min(3, len(cands))))
        flat.batch_prune([(nid, rnd.randint(-4, 4)) for nid in prune])
        assert flat.value() == tree.evaluate()
        bound = _GC_FACTOR * max(64, len(tree))
        assert len(trace._kind) - len(trace._free) <= bound
        assert len(trace._kind) <= 2 * bound
    assert tree._next_id > 10 * len(tree)
    flat.check_consistency()


def test_structural_replay_visits_the_wound_not_the_tree():
    """Change propagation re-runs only the rake events a batch
    disturbs: at |U| = 16 the median events visited per grow/prune
    batch grow less than 2x from n = 2**10 to 2**12, while the event
    total grows 4x."""

    def median_visited(n):
        tree = random_expression_tree(INTEGER, n, seed=21)
        flat = DynamicTreeContraction(tree, seed=22, backend="flat")
        rnd = random.Random(23)
        visited = []
        for _ in range(12):
            leaves = sorted(flat.handle)
            flat.batch_grow(
                [(nid, random_ops(rnd), 1, 2) for nid in rnd.sample(leaves, 16)]
            )
            visited.append(flat.trace.visited_events)
            cands = sorted({
                leaf.parent.nid
                for leaf in map(tree.node, flat.handle)
                if leaf.parent is not None
                and leaf.parent.left.is_leaf
                and leaf.parent.right.is_leaf
            })
            flat.batch_prune([(nid, 3) for nid in rnd.sample(cands, 16)])
            visited.append(flat.trace.visited_events)
            assert flat.value() == tree.evaluate()
        return statistics.median(visited)

    small, large = median_visited(1 << 10), median_visited(1 << 12)
    assert large < 2 * small
    assert large < (1 << 12) / 4


# ---------------------------------------------------------------------------
# single-pass evaluation: wide wounds and the creation-order invariant
# ---------------------------------------------------------------------------


def _wide_values(ring):
    if ring is FLOAT:
        return lambda r: round(r.uniform(-1.0, 1.0), 6)
    if ring is BOOLEAN:
        return lambda r: r.random() < 0.5
    return lambda r: r.randint(0, 96)


def _wide_ops(values):
    """Mixed ``+``/``×`` ops, half the additions with a constant, so
    every rake rule (with and without a constant) is exercised."""

    def ops(r):
        if r.random() < 0.3:
            return mul_op()
        return add_op(values(r) if r.random() < 0.5 else None)

    return ops


def assert_same_labels(ref, flat, m):
    """Every position's death record (labels included) and the value,
    compared as ``repr`` text so float labels match bitwise."""
    assert repr(flat.value()) == repr(ref.value())
    for pid in range(m):
        r_rec = repr(ref.trace.death_record(pid))
        assert repr(flat.trace.death_record(pid)) == r_rec, pid


@pytest.mark.parametrize(
    "ring", [FLOAT, BOOLEAN, MOD97], ids=lambda r: r.name
)
def test_wide_wound_matches_reference(ring):
    """A virgin build of 2**12 leaves (every composite row fresh) and a
    heal of every leaf agree with the reference backend label for
    label."""
    values = _wide_values(ring)
    ops = _wide_ops(values)
    t_ref = random_tree(ring, 1 << 12, random.Random(3), values, ops)
    t_flat = random_tree(ring, 1 << 12, random.Random(3), values, ops)
    ref = DynamicTreeContraction(t_ref, seed=4)
    flat = DynamicTreeContraction(t_flat, seed=4, backend="flat")
    m = t_ref._next_id
    assert_same_labels(ref, flat, m)
    assert_twins(ref, flat)

    rnd = random.Random(5)
    reqs = [(leaf.nid, values(rnd)) for leaf in t_ref.leaves_in_order()]
    tr_r, tr_f = SpanTracker(), SpanTracker()
    ref.batch_set_leaf_values(reqs, tr_r)
    flat.batch_set_leaf_values(reqs, tr_f)
    assert (tr_r.work, tr_r.span) == (tr_f.work, tr_f.span)
    # Every row but the n - 1 internal nodes' init rows is wounded.
    assert flat.last_stats["wound"] == flat.trace.size() - (len(reqs) - 1)
    assert_same_labels(ref, flat, m)
    assert_twins(ref, flat)


def test_rid_is_topological_under_churn(monkeypatch):
    """The single pass evaluates rows in ascending ``_rid`` order, so
    every live composite row must be stamped after both children —
    also after sweeps and free-list reuse have recycled rows."""
    from repro.perf import flat_contraction as fc

    sweeps = []
    real_sweep = fc.FlatContraction._sweep

    def counting_sweep(self):
        sweeps.append(len(self._kind))
        real_sweep(self)

    monkeypatch.setattr(fc.FlatContraction, "_sweep", counting_sweep)
    rnd = random.Random(11)
    tree = random_expression_tree(INTEGER, 48, seed=11)
    flat = DynamicTreeContraction(tree, seed=12, backend="flat")
    trace = flat.trace
    reused = 0
    for _ in range(120):
        leaves = [l.nid for l in tree.leaves_in_order()]
        grow = sorted(rnd.sample(leaves, 4))
        free_before = len(trace._free)
        flat.batch_grow([(nid, random_ops(rnd), 1, 2) for nid in grow])
        reused += free_before > len(trace._free)
        cands = [
            n.nid
            for n in tree.nodes_preorder()
            if not n.is_leaf and n.left.is_leaf and n.right.is_leaf
        ]
        prune = sorted(rnd.sample(cands, min(4, len(cands))))
        free_before = len(trace._free)
        flat.batch_prune([(nid, rnd.randint(-4, 4)) for nid in prune])
        reused += free_before > len(trace._free)
        kind, rid = trace._kind, trace._rid
        lch, rch = trace._lchild, trace._rchild
        for row in range(len(kind)):
            if trace._is_free[row] or kind[row] < fc._RAKE:
                continue
            assert rid[row] > rid[lch[row]], row
            assert rid[row] > rid[rch[row]], row
        assert flat.value() == tree.evaluate()
    assert len(sweeps) >= 2
    assert reused >= 2
    flat.check_consistency()
