"""The flat rake tree's label row kernel agrees with the scalar §4.2
rules row by row.

:func:`~repro.contraction.labels.relabel_rows` evaluates every
composite row of :class:`~repro.perf.flat_contraction.FlatContraction`
on heal and replay; over ``Z/p`` it runs native int arithmetic instead
of the ring's ``add``/``mul``.  Each test recomputes every composite row
reachable from the RT root with :func:`rake_label` /
:func:`compress_label` from the row's stored children and demands the
identical value and type (floats compared with ``==``, not
``ring.eq``): after a virgin build, after a heal of every leaf, and
after grow and prune replays.  The ``Z/p`` leaf values and add
constants run past ``p`` and below zero, so the kernel meets unreduced
operands.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.algebra.rings import (
    BOOLEAN,
    FLOAT,
    INTEGER,
    Ring,
    modular_ring,
    tropical_semiring,
)
from repro.contraction.dynamic import DynamicTreeContraction
from repro.contraction.labels import (
    ROW_COMPRESS,
    ROW_RAKE,
    compress_label,
    rake_label,
)
from repro.trees.builders import random_tree
from repro.trees.nodes import add_op, mul_op


def _zp(p):
    def value(r):
        return r.randint(-3 * p, 3 * p)

    return modular_ring(p), value, value


def _float_value(r):
    return r.uniform(-2.0, 2.0)


def _tropical_value(r):
    return float("inf") if r.random() < 0.1 else r.uniform(0.0, 8.0)


def _bool_value(r):
    return r.random() < 0.5


def _int_value(r):
    return r.randint(-5, 5)


CASES = {
    "Z/1000003": _zp(1_000_003),
    "Z/2": _zp(2),
    "Z": (INTEGER, _int_value, _int_value),
    "R": (FLOAT, _float_value, _float_value),
    "B": (BOOLEAN, _bool_value, _bool_value),
    "Trop": (tropical_semiring(), _tropical_value, _tropical_value),
}


def _ops(const):
    def sample(r):
        if r.random() < 0.35:
            return mul_op()
        return add_op(const(r) if r.random() < 0.5 else None)

    return sample


def _same(x, y):
    return type(x) is type(y) and x == y


def _assert_rows_match_scalar_rules(engine):
    """Every composite row reachable from the RT root holds exactly
    what the scalar rule computes from its stored children."""
    trace, ring = engine.trace, engine.tree.ring
    kind, lch, rch = trace._kind, trace._lchild, trace._rchild
    lab_a, lab_b, ops = trace._labA, trace._labB, trace._op
    stack, seen, checked = [trace._root_row], set(), 0
    while stack:
        row = stack.pop()
        if row < 0 or row in seen:
            continue
        seen.add(row)
        l, r = lch[row], rch[row]
        stack += [l, r]
        if kind[row] == ROW_COMPRESS:
            want = compress_label(ring, (lab_a[l], lab_b[l]), (lab_a[r], lab_b[r]))
        elif kind[row] == ROW_RAKE:
            want = rake_label(
                ring, ops[row], (lab_a[l], lab_b[l]), (lab_a[r], lab_b[r])
            )
        else:
            continue
        got = (lab_a[row], lab_b[row])
        assert _same(got[0], want[0]) and _same(got[1], want[1]), (
            f"row {row} kind {kind[row]}: kernel {got!r} != rule {want!r}"
        )
        checked += 1
    return checked


@pytest.mark.parametrize("name", sorted(CASES))
def test_row_kernel_matches_scalar_rules(name):
    ring, value, const = CASES[name]
    rnd = random.Random(11)
    tree = random_tree(ring, 96, rnd, values=value, ops=_ops(const))
    engine = DynamicTreeContraction(tree, seed=5, backend="flat")
    assert _assert_rows_match_scalar_rules(engine) > 0

    leaves = [leaf.nid for leaf in tree.leaves_in_order()]
    engine.batch_set_leaf_values([(nid, value(rnd)) for nid in leaves])
    assert engine.last_stats["wound"] >= len(leaves)
    _assert_rows_match_scalar_rules(engine)

    for _ in range(3):
        leaves = [leaf.nid for leaf in tree.leaves_in_order()]
        grown = sorted(rnd.sample(leaves, 8))
        engine.batch_grow(
            [(nid, _ops(const)(rnd), value(rnd), value(rnd)) for nid in grown]
        )
        assert engine.last_stats["fresh_rt_nodes"] > 0
        _assert_rows_match_scalar_rules(engine)
        engine.batch_prune([(nid, value(rnd)) for nid in grown[:5]])
        _assert_rows_match_scalar_rules(engine)


def test_only_modular_ring_marks_its_modulus():
    """The Z/p form runs only for rings ``modular_ring`` built; the
    mark is no constructor argument, and a copy with other operations
    loses it."""
    assert modular_ring(7).modulus == 7
    for ring in (INTEGER, FLOAT, BOOLEAN, tropical_semiring()):
        assert ring.modulus is None
    with pytest.raises(TypeError):
        Ring("Z/5?", 0, 1, INTEGER.add, INTEGER.mul, modulus=5)
    assert dataclasses.replace(modular_ring(7), add=INTEGER.add).modulus is None
