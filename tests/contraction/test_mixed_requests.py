"""The §1.3 heterogeneous-batch interface."""

import random

import pytest

from repro.algebra.rings import INTEGER
from repro.contraction.dynamic import DynamicTreeContraction
from repro.errors import BatchValidationError, RequestError
from repro.pram.frames import SpanTracker
from repro.testing.oracles import shape_signature
from repro.trees.builders import random_expression_tree
from repro.trees.nodes import add_op, mul_op


def make(n=60, seed=0):
    tree = random_expression_tree(INTEGER, n, seed=seed)
    return tree, DynamicTreeContraction(tree, seed=seed + 1)


def test_mixed_batch_returns_per_request_results():
    tree, d = make()
    leaves = [l.nid for l in tree.leaves_in_order()]
    internal = [n.nid for n in tree.nodes_preorder() if not n.is_leaf]
    reqs = [
        ("set_value", leaves[0], 9),
        ("grow", leaves[1], add_op(), 1, 2),
        ("query", tree.root.nid),
        ("set_op", internal[2], mul_op()),
    ]
    out = d.apply_requests(reqs)
    assert out[0] is None
    assert isinstance(out[1], tuple) and len(out[1]) == 2
    assert out[2] == tree.evaluate()  # query answered post-heal
    assert out[3] is None
    d.check_consistency()


def test_query_sees_the_healed_tree():
    tree, d = make(seed=1)
    leaf = tree.leaves_in_order()[3].nid
    (answer,) = [
        r
        for r in d.apply_requests(
            [("set_value", leaf, 1234), ("query", tree.root.nid)]
        )
        if r is not None
    ]
    assert answer == tree.evaluate()
    assert tree.node(leaf).value == 1234


def test_unknown_kind_rejected():
    tree, d = make(seed=2)
    with pytest.raises(RequestError):
        d.apply_requests([("frobnicate", 1)])


def test_mixed_batch_session_against_oracle():
    rng = random.Random(3)
    tree, d = make(40, seed=3)
    for _ in range(20):
        reqs = []
        leaves = [l.nid for l in tree.leaves_in_order()]
        reqs.append(("set_value", rng.choice(leaves), rng.randint(-4, 4)))
        reqs.append(("grow", rng.choice([x for x in leaves if x != reqs[0][1]]),
                     add_op(), 1, 1))
        reqs.append(("query", tree.root.nid))
        tracker = SpanTracker()
        out = d.apply_requests(reqs, tracker)
        assert out[2] == tree.evaluate()
        assert tracker.span > 0
        d.check_consistency()


def test_prune_and_grow_in_one_batch():
    tree, d = make(seed=4)
    cands = [
        n.nid
        for n in tree.nodes_preorder()
        if not n.is_leaf and n.left.is_leaf and n.right.is_leaf
    ]
    target_leaf = next(
        l.nid
        for l in tree.leaves_in_order()
        if l.parent.nid != cands[0]
    )
    out = d.apply_requests(
        [("prune", cands[0], 5), ("grow", target_leaf, add_op(), 2, 3)]
    )
    assert out[0] is None and isinstance(out[1], tuple)
    assert d.value() == tree.evaluate()


# ---------------------------------------------------------------------------
# cross-request conflicts: admitted as a whole, rejected atomically
# ---------------------------------------------------------------------------

BACKENDS = ["reference", "flat"]


def _conflict_setup(backend):
    """A tree, its engine with ``last_stats`` populated, and a
    non-root node ``p`` whose children are both leaves."""
    tree = random_expression_tree(INTEGER, 60, seed=0)
    d = DynamicTreeContraction(tree, seed=1, backend=backend)
    d.batch_set_leaf_values([(tree.leaves_in_order()[0].nid, 7)])
    p = next(
        n
        for n in tree.nodes_preorder()
        if not n.is_leaf
        and n.left.is_leaf
        and n.right.is_leaf
        and n is not tree.root
    )
    return tree, d, p


def _state(tree, d):
    tree_shape = [
        (n.nid, n.left and n.left.nid, n.right and n.right.nid, n.op, n.value)
        for n in tree.nodes_preorder()
    ]
    return (
        d.value(),
        d.rng_state(),
        tree_shape,
        shape_signature(d.pt),
        dict(d.last_stats),
    )


def _rejected(d, reqs):
    with pytest.raises(BatchValidationError) as ei:
        d.apply_requests(reqs)
    return [(r.index, r.reason) for r in ei.value.rejections]


@pytest.mark.parametrize("backend", BACKENDS)
def test_prune_of_a_grown_leaf_rejects_both_requests(backend):
    tree, d, p = _conflict_setup(backend)
    before = _state(tree, d)
    reqs = [("prune", p.nid, 5), ("grow", p.left.nid, add_op(), 1, 2)]
    assert _rejected(d, reqs) == [
        (0, "conflicting-requests"),
        (1, "conflicting-requests"),
    ]
    assert _state(tree, d) == before


@pytest.mark.parametrize("backend", BACKENDS)
def test_requests_on_nodes_pruned_away_are_rejected(backend):
    """``set_value`` and ``query`` on a child the batch prunes away are
    ``target-removed-by-batch``; such a child is a leaf, so a
    ``set_op`` on it is already ``no-rake-event``."""
    tree, d, p = _conflict_setup(backend)
    before = _state(tree, d)
    reqs = [
        ("prune", p.nid, 5),
        ("set_value", p.left.nid, 3),
        ("set_op", p.right.nid, mul_op()),
        ("query", p.right.nid),
    ]
    assert _rejected(d, reqs) == [
        (1, "target-removed-by-batch"),
        (2, "no-rake-event"),
        (3, "target-removed-by-batch"),
    ]
    assert _state(tree, d) == before


@pytest.mark.parametrize("backend", BACKENDS)
def test_set_value_on_a_leaf_grown_internal_is_rejected(backend):
    tree, d, p = _conflict_setup(backend)
    before = _state(tree, d)
    reqs = [("grow", p.left.nid, add_op(), 1, 2), ("set_value", p.left.nid, 3)]
    assert _rejected(d, reqs) == [(1, "conflicting-requests")]
    assert _state(tree, d) == before


@pytest.mark.parametrize("backend", BACKENDS)
def test_set_op_on_a_node_pruned_to_a_leaf_is_rejected(backend):
    tree, d, p = _conflict_setup(backend)
    before = _state(tree, d)
    reqs = [("prune", p.nid, 5), ("set_op", p.nid, mul_op())]
    assert _rejected(d, reqs) == [(1, "conflicting-requests")]
    assert _state(tree, d) == before
