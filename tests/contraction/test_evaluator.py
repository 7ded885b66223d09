"""Theorem 4.2's proof obligation: wound re-evaluation by contraction
over affine maps agrees with bottom-up label recomputation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.rings import INTEGER, modular_ring
from repro.contraction import evaluator
from repro.contraction.evaluator import (
    collect_wound,
    heal_bottom_up,
    reevaluate_by_contraction,
)
from repro.contraction.rake_tree import build_trace
from repro.contraction.schedule import build_schedule
from repro.pram.frames import SpanTracker
from repro.splitting.rbsts import RBSTS
from repro.trees.builders import random_expression_tree


def wounded_trace(n, seed, k):
    """Build a trace, dirty k leaf labels, return (trace, dirty RTs)."""
    tree = random_expression_tree(INTEGER, n, seed=seed)
    pt = RBSTS([l.nid for l in tree.leaves_in_order()], seed=seed + 1)
    trace = build_trace(tree, build_schedule(pt.root))
    rng = random.Random(seed)
    dirty = []
    for leaf in rng.sample(tree.leaves_in_order(), min(k, n)):
        value = rng.randint(-9, 9)
        tree.set_leaf_value(leaf.nid, value)
        base = trace.base[leaf.nid]
        base.label = (0, value)
        dirty.append(base)
    return tree, trace, dirty


#: Wound orders for reevaluate_by_contraction.  In collect_wound's
#: topological order every node resolves directly in round 1; reversed
#: or shuffled, nodes wait on unresolved children, so partial
#: application and pointer jumping over affine maps run.
ORDERS = ("topological", "reversed", "shuffled")


def ordered(wound, order, seed):
    if order == "reversed":
        return wound[::-1]
    if order == "shuffled":
        wound = list(wound)
        random.Random(seed).shuffle(wound)
    return wound


def test_collect_wound_is_rootward_closure_in_topo_order():
    tree, trace, dirty = wounded_trace(100, 0, 3)
    wound = collect_wound(dirty)
    ids = {id(w) for w in wound}
    for node in wound:
        if node.parent is not None:
            assert id(node.parent) in ids
    rids = [w.rid for w in wound]
    assert rids == sorted(rids)
    assert id(trace.root_rt) in ids


@given(n=st.integers(2, 150), seed=st.integers(0, 25), k=st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_bottom_up_heal_restores_correct_value(n, seed, k):
    tree, trace, dirty = wounded_trace(n, seed, k)
    heal_bottom_up(INTEGER, collect_wound(dirty))
    assert trace.value == tree.evaluate()


@given(n=st.integers(2, 150), seed=st.integers(0, 25), k=st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_affine_contraction_agrees_with_bottom_up(n, seed, k):
    """The Theorem 4.2 equivalence, label-for-label, whatever order
    the wound is handed over in."""
    tree, trace, dirty = wounded_trace(n, seed, k)
    wound = collect_wound(dirty)
    by_contraction = {
        order: reevaluate_by_contraction(INTEGER, ordered(wound, order, seed))
        for order in ORDERS
    }
    heal_bottom_up(INTEGER, wound)
    for order, labels in by_contraction.items():
        for node in wound:
            assert labels[id(node)] == node.label, (order, node.kind)


def test_affine_contraction_does_not_mutate():
    tree, trace, dirty = wounded_trace(80, 3, 2)
    wound = collect_wound(dirty)
    before = [(w.rid, w.label) for w in wound]
    reevaluate_by_contraction(INTEGER, wound)
    assert [(w.rid, w.label) for w in wound] == before


def test_affine_contraction_span_logarithmic(monkeypatch):
    import math

    partials = []
    real_partial = evaluator._partial

    def counting_partial(*args):
        partials.append(args)
        return real_partial(*args)

    monkeypatch.setattr(evaluator, "_partial", counting_partial)
    tree, trace, dirty = wounded_trace(2000, 4, 4)
    wound = collect_wound(dirty)
    for order in ORDERS:
        partials.clear()
        tracker = SpanTracker()
        reevaluate_by_contraction(INTEGER, ordered(wound, order, 4), tracker)
        assert tracker.span <= 6 * math.log2(len(wound) + 2) + 8, order
        if order != "topological":
            assert tracker.span >= 2, order
            assert partials, order


def test_heal_charges_logarithmic_span():
    tree, trace, dirty = wounded_trace(500, 5, 3)
    wound = collect_wound(dirty)
    tracker = SpanTracker()
    heal_bottom_up(INTEGER, wound, tracker)
    import math

    assert tracker.work >= len(wound)
    assert tracker.span <= 2 * math.ceil(math.log2(len(wound) + 2)) + 2


def test_empty_wound_is_noop():
    heal_bottom_up(INTEGER, [])
    assert reevaluate_by_contraction(INTEGER, []) == {}
