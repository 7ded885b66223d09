"""Scrub-and-repair of at-rest damage: metadata recompute, §2
randomized rebuild of the smallest damaged subtree, and master-RNG
isolation of the repair path."""

from __future__ import annotations

import pytest

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.errors import TreeStructureError
from repro.listprefix.structure import IncrementalListPrefix
from repro.resilience.faults import plant_link_damage, plant_metadata_damage
from repro.resilience.scrub import repair, scrub

BACKENDS = ["reference", "flat"]
N = 64


def make(backend, seed=3, n=N):
    return IncrementalListPrefix(
        sum_monoid(INTEGER), range(n), seed=seed, backend=backend
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_scrub_clean_on_fresh_structure(backend):
    report = scrub(make(backend).tree)
    assert report.clean
    assert report.nodes_scanned >= 2 * N - 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_metadata_damage_is_found_and_repaired_in_place(backend):
    lp = make(backend)
    tree = lp.tree
    planted = plant_metadata_damage(tree, seed=11, sites=2)
    assert planted
    with pytest.raises((TreeStructureError, AssertionError)):
        tree.check_invariants()

    report = scrub(tree)
    assert not report.clean
    assert report.by_severity("meta"), "metadata damage must scan as 'meta'"

    rep = repair(tree, report, repair_seed=0)
    assert rep.sites >= 1 and rep.recomputed >= 1
    assert rep.rebuilt_leaves == 0, "metadata repair must not rebuild"
    tree.check_invariants()
    assert lp.values() == list(range(N))
    assert lp.total() == sum(range(N))


@pytest.mark.parametrize("backend", BACKENDS)
def test_link_damage_rebuilds_only_the_damaged_subtree(backend):
    lp = make(backend)
    tree = lp.tree
    desc = plant_link_damage(tree, seed=4)
    assert desc
    with pytest.raises((TreeStructureError, AssertionError)):
        tree.check_invariants()

    rep = repair(tree, repair_seed=1)
    assert rep.rebuilt, "a broken link needs a structural rebuild"
    # Theorem 2.2's locality: the rebuild mass is the damaged subtree,
    # not the whole structure.
    assert 0 < rep.rebuilt_leaves < N
    tree.check_invariants()
    assert lp.values() == list(range(N))
    assert lp.total() == sum(range(N))


@pytest.mark.parametrize("backend", BACKENDS)
def test_repair_preserves_the_master_rng_stream(backend):
    """Rebuild coins come from an isolated repair RNG: the master
    stream a fault-free twin consumes must be untouched, or RNG-parity
    audits would blame recovery for divergence."""
    lp = make(backend)
    tree = lp.tree
    before = tree._rng.getstate()
    plant_link_damage(tree, seed=4)
    rep = repair(tree, repair_seed=2)
    assert rep.rebuilt
    assert tree._rng.getstate() == before


@pytest.mark.parametrize("backend", BACKENDS)
def test_repair_on_clean_tree_is_a_verified_no_op(backend):
    tree = make(backend).tree
    rep = repair(tree)
    assert rep.sites == 0 and rep.recomputed == 0 and not rep.rebuilt


@pytest.mark.parametrize("backend", BACKENDS)
def test_repair_determinism(backend):
    """Same damage + same repair_seed => identical repaired shape."""
    shapes = []
    for _ in range(2):
        lp = make(backend)
        plant_link_damage(lp.tree, seed=9)
        repair(lp.tree, repair_seed=5)
        lp.tree.check_invariants()
        shapes.append(
            [(h.depth, h.item) for h in lp.handles()]
        )
    assert shapes[0] == shapes[1]


def _internal_cell(tree, field):
    """(read, write) of ``field`` on the root's left child, an internal
    node below the root."""
    if hasattr(tree, "root_index"):
        slot = tree._left[tree.root_index]
        column = getattr(tree, f"_{field}")
        return (lambda: column[slot]), (lambda v: column.__setitem__(slot, v))
    node = tree.root.left
    return (lambda: getattr(node, field)), (lambda v: setattr(node, field, v))


@pytest.mark.parametrize("field", ["depth", "summary", "n_leaves"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_nested_repair_is_rewound_by_the_enclosing_checkpoint(backend, field):
    """A repair inside an open checkpoint writes its pre-images through
    the recording seam, so rewinding the checkpoint undoes the repair:
    the supervisor's exhaustion path restores the pre-call state bit
    for bit."""
    tree = make(backend).tree
    read, write = _internal_cell(tree, field)
    write(read() + 5)
    damaged = read()
    outer = tree._txn_begin()
    rep = repair(tree)
    assert rep.recomputed >= 1 and read() == damaged - 5
    tree._txn_rollback(outer)
    assert read() == damaged
