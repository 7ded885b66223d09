"""Copy-on-write master-RNG capture in flat snapshots.

A ``FlatSnapshot`` (writer journal or reader pin) copies the tree's
master-RNG state on the first draw made under it, not when it opens.
Each flat entry point that draws must call the ``save_rng`` seam before
that draw.  These tests take one draw site at a time and check both
halves of the contract: a writer snapshot that rolls back restores the
generator bit for bit, and a pin reports the pin-time state from
``state()`` after the live generator has moved on.  A site that draws
before its hook fails both checks.
"""

from __future__ import annotations

import importlib
import random

import pytest

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.contraction.dynamic import DynamicTreeContraction
from repro.errors import RepairFailedError
from repro.perf.flat_rbsts import FlatRBSTS
from repro.resilience.executor import ResiliencePolicy, ResilientListSession
from repro.resilience.faults import plant_link_damage
from repro.serve.requests import Request, ServePolicy
from repro.serve.shard import Shard
from repro.trees.builders import random_expression_tree
from repro.trees.nodes import add_op

# The package re-exports the ``scrub`` function under the module's name.
scrub_mod = importlib.import_module("repro.resilience.scrub")

MONOID = sum_monoid(INTEGER)
N = 64


def _check_writer_rollback(tree, op) -> None:
    before = tree.rng_state()
    journal = tree._txn_begin()
    op()
    assert tree.rng_state() != before, "the operation must draw"
    tree._txn_rollback(journal)
    assert tree.rng_state() == before


def _check_pin(tree, op) -> None:
    before = tree.rng_state()
    with tree.pinned_reader() as reader:
        op()
        assert tree.rng_state() != before, "the operation must draw"
        assert reader.state().rng_state == before


def _flat(seed=5):
    return FlatRBSTS(list(range(N)), seed=seed)


FLAT_SITES = {
    "insert": lambda t: t.insert(N // 2, "x"),
    "delete": lambda t: t.delete(t.leaf_at(N // 3)),
    "batch_insert": lambda t: t.batch_insert([(3, "a"), (N // 2, "b"), (N, "c")]),
    "batch_delete": lambda t: t.batch_delete([t.leaf_at(i) for i in (2, 30, 61)]),
}


@pytest.mark.parametrize("site", sorted(FLAT_SITES))
def test_flat_draw_site_under_rolled_back_writer(site):
    tree = _flat()
    _check_writer_rollback(tree, lambda: FLAT_SITES[site](tree))
    tree.check_invariants()


@pytest.mark.parametrize("site", sorted(FLAT_SITES))
def test_flat_draw_site_under_pin(site):
    tree = _flat()
    _check_pin(tree, lambda: FLAT_SITES[site](tree))


def _failing_repair(tree, monkeypatch) -> None:
    """A structural repair that fails after its reseeded rebuild: the
    repair's own journal rolls back, so only the copy taken at the
    reseed can bring the master RNG back."""

    def boom(*args, **kwargs):
        raise RuntimeError("planted failure after the rebuild")

    monkeypatch.setattr(scrub_mod, "_recompute_meta", boom)
    with pytest.raises(RepairFailedError):
        scrub_mod.repair(tree, repair_seed=3)


def test_repair_rebuild_under_rolled_back_writer(monkeypatch):
    tree = _flat()
    plant_link_damage(tree, seed=4)
    before = tree.rng_state()
    _failing_repair(tree, monkeypatch)
    assert tree.rng_state() == before


def test_repair_rebuild_under_pin(monkeypatch):
    tree = _flat()
    plant_link_damage(tree, seed=4)
    before = tree.rng_state()
    with tree.pinned_reader() as reader:
        _failing_repair(tree, monkeypatch)
        assert reader.state().rng_state == before
    assert tree.rng_state() == before


def test_successful_repair_keeps_pin_time_rng():
    tree = _flat()
    plant_link_damage(tree, seed=4)
    before = tree.rng_state()
    with tree.pinned_reader() as reader:
        assert scrub_mod.repair(tree, repair_seed=3).rebuilt
        assert reader.state().rng_state == before


def _engine():
    tree = random_expression_tree(INTEGER, 40, seed=2)
    engine = DynamicTreeContraction(tree, seed=3, backend="flat")
    return tree, engine


def _grow(tree, engine):
    leaves = [leaf.nid for leaf in tree.leaves_in_order()[::7]]
    engine.batch_grow([(nid, add_op(), 1, 2) for nid in leaves])
    return leaves


CONTRACTION_SITES = ("batch_grow", "batch_prune")


def _contraction_op(site):
    tree, engine = _engine()
    if site == "batch_grow":
        return engine, lambda: _grow(tree, engine)
    grown = _grow(tree, engine)  # outside the snapshot: prune needs them
    return engine, lambda: engine.batch_prune([(nid, 5) for nid in grown])


@pytest.mark.parametrize("site", CONTRACTION_SITES)
def test_contraction_site_under_rolled_back_writer(site):
    # Only the parse tree rolls back; the engine is discarded after.
    engine, op = _contraction_op(site)
    _check_writer_rollback(engine.pt, op)


@pytest.mark.parametrize("site", CONTRACTION_SITES)
def test_contraction_site_under_pin(site):
    engine, op = _contraction_op(site)
    _check_pin(engine.pt, op)
    assert engine.value() == engine.tree.evaluate()


def _count_getstate(monkeypatch):
    calls = []
    original = random.Random.getstate

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(random.Random, "getstate", counting)
    return calls


def test_reads_and_value_writes_copy_no_rng_state(monkeypatch):
    """Neither a pinned read nor a supervised value batch draws, so
    neither copies the 625-word generator state."""
    shard = Shard(
        0, MONOID, list(range(N)), seed=1,
        policy=ServePolicy(resilience=ResiliencePolicy(ladder=("flat",))),
    )
    session = ResilientListSession(MONOID, list(range(N)), seed=1)
    calls = _count_getstate(monkeypatch)
    read = Request(req_id=0, shard=0, kind="prefix", args=(5,), deadline=None)
    assert shard.read(read, 0.0).result == sum(range(6))
    assert calls == []
    session.batch_set([(3, 7), (10, 2)])
    assert calls == []
    assert session.values()[3] == 7
    # A structural batch draws, so its journal copies the state once.
    session.batch_insert([(0, 1)])
    assert len(calls) == 1
