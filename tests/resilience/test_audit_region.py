"""The supervised post-apply audit checks only the batch's dirty region.

``ResilientExecutor.supervise`` calls ``check_invariants(since=snapshot)``
on the flat family, which checks the slots the open snapshot saw written
(plus their neighbourhood) instead of walking the whole tree, and falls
back to the full walk when a local check cannot be trusted.  These tests
pin three things:

* **verdict parity** — on every supervised audit of the recovery fuzzer,
  the serve chaos harness and the pinned corpus, the region pass raises
  exactly when the full walk does;
* **fault coverage** — every injectable tree fault on every dirty or
  born slot of real batches is caught by the region pass itself;
* **fallbacks** — the full walk runs when the shortcut threshold moves
  or the pre-state was never audited, and pinned reads do not force it.
"""

from __future__ import annotations

import os

import pytest

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.errors import MachineHangError, TreeStructureError
from repro.perf.flat_rbsts import FlatRBSTS
from repro.resilience.corpus import replay_resilience_corpus
from repro.resilience.executor import ResiliencePolicy, ResilientListSession
from repro.resilience.faults import TREE_FAULT_KINDS, plant_metadata_damage
from repro.resilience.fuzz import fuzz_one
from repro.serve.chaos import (
    CORPUS_SCHEMA,
    config_for_seed,
    replay_serve_entry,
    run_chaos,
)
from repro.snapshots.core import SnapshotState
from repro.snapshots.persist import load, save
from repro.testing.corpus import corpus_paths, default_corpus_dir

MONOID = sum_monoid(INTEGER)
HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "..", "corpus")


def _verdict(fn):
    try:
        fn()
    except Exception as exc:  # the verdict is the exception, if any
        return exc
    return None


class Parity:
    """Test-only wrapper around the supervised audit call site: every
    ``check_invariants(since=...)`` also runs the full walk on the same
    state and records any verdict mismatch.  Mismatches are recorded,
    not asserted in place — the supervisor treats ``AssertionError`` as
    a recoverable fault and would retry past it."""

    def __init__(self, monkeypatch):
        self.audits = 0
        self.region_passes = 0
        self.raised = 0
        self.mismatches = []
        audit = FlatRBSTS.check_invariants
        region_pass = FlatRBSTS._check_region
        parity = self

        def check_invariants(tree, since=None):
            if since is None:
                return audit(tree)
            parity.audits += 1
            full = _verdict(tree._check_all)
            got = _verdict(lambda: audit(tree, since))
            if (full is None) != (got is None):
                parity.mismatches.append((full, got))
            if got is not None:
                parity.raised += 1
                raise got

        def check_region(tree, region):
            parity.region_passes += 1
            return region_pass(tree, region)

        monkeypatch.setattr(FlatRBSTS, "check_invariants", check_invariants)
        monkeypatch.setattr(FlatRBSTS, "_check_region", check_region)

    def assert_held(self):
        assert not self.mismatches, self.mismatches[:3]
        assert self.region_passes > 0, "the region pass never ran"


class FullWalks:
    """Counts full walks per tree."""

    def __init__(self, monkeypatch):
        self.by_tree = {}
        walk = FlatRBSTS._check_all
        counter = self

        def check_all(tree):
            counter.by_tree[id(tree)] = counter.by_tree.get(id(tree), 0) + 1
            return walk(tree)

        monkeypatch.setattr(FlatRBSTS, "_check_all", check_all)

    def of(self, tree):
        return self.by_tree.get(id(tree), 0)


# ---------------------------------------------------------------------------
# verdict parity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "seeds", [range(0, 15), range(15, 30)], ids=["0-14", "15-29"]
)
def test_region_verdict_matches_full_walk_under_recovery_fuzz(
    monkeypatch, seeds
):
    parity = Parity(monkeypatch)
    for seed in seeds:
        report = fuzz_one(seed, 40, save=False, verbose=False)
        assert report.ok, f"seed {seed}: {report.failure}"
    parity.assert_held()
    assert parity.raised > 0, "no injected fault reached an audit"


def test_region_verdict_matches_full_walk_under_serve_chaos(monkeypatch):
    parity = Parity(monkeypatch)
    for seed in range(10):
        report = run_chaos(config_for_seed(seed, 150))
        assert report.ok, f"config {seed}: {report.failure}"
    parity.assert_held()
    assert parity.raised > 0, "no injected fault reached an audit"


def test_region_verdict_matches_full_walk_on_pinned_corpus(monkeypatch):
    parity = Parity(monkeypatch)
    results = replay_resilience_corpus(CORPUS)
    assert len(results) >= 4
    for path, report, _expect in results:
        assert report.ok, f"{os.path.basename(path)}: {report.failure}"
    serve = corpus_paths(default_corpus_dir(), schema=CORPUS_SCHEMA)
    assert len(serve) == 4
    for path in serve:
        report = replay_serve_entry(path, verbose=False)
        assert report.ok, f"{os.path.basename(path)}: {report.failure}"
    parity.assert_held()


# ---------------------------------------------------------------------------
# exhaustive fault placement
# ---------------------------------------------------------------------------

N_LEAVES = 4096


def _inject(tree, since, slot, kind):
    """Damage ``slot`` the way the in-batch injector's ``kind`` does
    (``corrupt_journaled_cell``), degrading to a bit-flip where the
    kind has nothing to act on.  Returns the kind actually applied."""
    if kind == "stale-epoch" and slot in since.saved:
        pre = since.saved[slot]
        for col, name in ((3, "_n_leaves"), (5, "_height"), (4, "_depth")):
            column = getattr(tree, name)
            if column[slot] != pre[col]:
                column[slot] = pre[col]
                return kind
    if kind == "torn-write":
        l = tree._left[slot]
        torn = tree._summary[l] if l != -1 else MONOID.identity
        if torn != tree._summary[slot]:
            tree._summary[slot] = torn
            return kind
    tree._n_leaves[slot] ^= 1
    return "bit-flip"


def _corrupt_every_slot(audit, tree, since, applied):
    """Every tree fault kind on every live dirty or born slot; the
    region pass must raise each time.  Each shot is undone after."""
    leaves, internals = tree._subtree_slots(tree.root_index)
    live = set(leaves) | set(internals)
    touched = set(since.saved) | set(range(since.snap_len, len(tree._parent)))
    targets = sorted(touched & live)
    assert targets
    columns = ("_n_leaves", "_height", "_depth", "_summary")
    for slot in targets:
        clean = [getattr(tree, name)[slot] for name in columns]
        for kind in TREE_FAULT_KINDS:
            got = _inject(tree, since, slot, kind)
            applied[got] = applied.get(got, 0) + 1
            with pytest.raises(TreeStructureError):
                audit(tree, since)
            for name, value in zip(columns, clean):
                getattr(tree, name)[slot] = value
    return len(targets)


def test_every_fault_on_every_dirty_slot_is_caught_by_the_region(monkeypatch):
    walks = FullWalks(monkeypatch)
    session = ResilientListSession(MONOID, range(N_LEAVES), seed=11)
    tree = session._structure.tree
    session.total()  # first supervised call: the full walk, then trusted
    assert walks.of(tree) == 1
    audit = FlatRBSTS.check_invariants
    shots = []
    applied = {}

    def exhaustive(t, since=None):
        if since is not None:
            before = walks.of(t)
            shots.append(_corrupt_every_slot(audit, t, since, applied))
            assert walks.of(t) == before, "the region pass fell back"
        return audit(t, since)

    monkeypatch.setattr(FlatRBSTS, "check_invariants", exhaustive)
    session.batch_set([(p, -p) for p in range(7, N_LEAVES, 512)])
    session.batch_delete(list(range(100, N_LEAVES - 100, 409)))
    session.batch_insert([(p, p) for p in range(3, N_LEAVES - 200, 613)])
    assert tree.last_batch_stats["rebuild_mass"] > 0
    assert len(shots) == 3 and all(shots)
    # Each kind acted as itself somewhere (not only as the fallback flip).
    assert set(applied) == set(TREE_FAULT_KINDS)
    # Nothing stuck: every shot was undone and the session is clean.
    assert session.stats["rollbacks"] == 0
    tree.check_invariants()


def _bracket_on_audited_tree(monkeypatch, seed):
    walks = FullWalks(monkeypatch)
    session = ResilientListSession(MONOID, range(300), seed=seed)
    session.total()
    tree = session._structure.tree
    return walks, tree, tree._txn_begin()


def test_an_unpropagated_write_is_caught_at_the_parent(monkeypatch):
    """A journaled leaf relabel whose ancestors were never repaired:
    the leaf itself is consistent, only its parent's summary is
    stale."""
    walks, tree, journal = _bracket_on_audited_tree(monkeypatch, 9)
    leaf = tree.leaf_at(17).idx
    tree._journal.save_slot(tree, leaf)
    tree._item[leaf] = 1000
    tree._summary[leaf] = 1000
    with pytest.raises(TreeStructureError, match="bad summary"):
        tree.check_invariants(since=journal)
    assert walks.of(tree) == 1
    with pytest.raises(TreeStructureError):
        tree._check_all()  # the oracle agrees
    tree._txn_rollback(journal)
    tree.check_invariants()


def test_an_orphaned_leaf_is_caught_through_the_relinked_parent(monkeypatch):
    """A journaled relink that swaps a leaf for an identical born copy:
    every reachable slot still checks out, but the old leaf is now
    neither live nor free — the region reaches it as a pre-batch child
    of the relinked parent."""
    walks, tree, journal = _bracket_on_audited_tree(monkeypatch, 10)
    old = next(s for s in range(300) if tree._left[tree._parent[s]] == s)
    p = tree._parent[old]
    copy = tree._alloc()
    tree._item[copy] = tree._item[old]
    tree._summary[copy] = tree._summary[old]
    tree._depth[copy] = tree._depth[old]
    tree._parent[copy] = p
    tree._journal.save_slot(tree, p)
    tree._left[p] = copy
    with pytest.raises(TreeStructureError, match="neither live nor free"):
        tree.check_invariants(since=journal)
    assert walks.of(tree) == 1
    with pytest.raises(TreeStructureError):
        tree._check_all()  # the oracle agrees
    tree._txn_rollback(journal)
    tree.check_invariants()


def test_a_stolen_child_is_caught_at_its_old_parent(monkeypatch):
    """A journaled relink that moves leaf ``c`` under another parent
    ``q`` in place of an identical leaf ``d`` (freed), and forgets the
    old parent's child pointer: ``q``'s side checks out, only the old
    parent still points at a slot that names ``q`` as its parent.  The
    region reaches the old parent as ``c``'s pre-batch parent."""
    walks, tree, journal = _bracket_on_audited_tree(monkeypatch, 13)
    left, parent, depth = tree._left, tree._parent, tree._depth
    lefts = [s for s in range(300) if left[parent[s]] == s]
    c, d = next(
        (c, d)
        for c in lefts
        for d in lefts
        if depth[c] == depth[d] and parent[c] != parent[d]
    )
    old_parent, q = parent[c], parent[d]
    tree._journal.save_slot(tree, c)
    tree._item[c] = tree._item[d]
    tree._summary[c] = tree._summary[d]
    parent[c] = q
    tree._free_slot(d)
    tree._journal.save_slot(tree, q)
    left[q] = c
    with pytest.raises(TreeStructureError):
        tree.check_invariants(since=journal)
    assert walks.of(tree) == 1
    with pytest.raises(TreeStructureError):
        tree._check_all()  # the oracle agrees
    tree._txn_rollback(journal)
    tree.check_invariants()


def test_a_free_slot_linked_in_is_caught_as_a_relinked_child(monkeypatch):
    """A journaled relink that hangs a free slot (an exact copy of the
    leaf it replaces, already pointing at the parent) into the tree:
    the parent checks out, the replaced leaf went to the free list, and
    only the linked-in slot itself is wrong — it is live and free.  The
    region reaches it as a current child of the relinked parent."""
    walks = FullWalks(monkeypatch)
    session = ResilientListSession(MONOID, range(300), seed=12)
    tree = session._structure.tree
    old = next(s for s in range(300) if tree._left[tree._parent[s]] == s)
    p = tree._parent[old]
    spare = tree._alloc()  # outside any bracket: a consistent free slot
    for name in ("_item", "_summary", "_depth", "_parent"):
        getattr(tree, name)[spare] = getattr(tree, name)[old]
    tree._free.append(spare)
    session.total()  # the supervised full walk vouches for this state
    journal = tree._txn_begin()
    tree._free_slot(old)
    tree._journal.save_slot(tree, p)
    tree._left[p] = spare
    with pytest.raises(TreeStructureError, match="on the free list"):
        tree.check_invariants(since=journal)
    assert walks.of(tree) == 1
    with pytest.raises(TreeStructureError):
        tree._check_all()  # the oracle agrees
    tree._txn_rollback(journal)
    tree.check_invariants()


# ---------------------------------------------------------------------------
# fallbacks
# ---------------------------------------------------------------------------


def test_threshold_crossing_runs_the_full_walk(monkeypatch):
    walks = FullWalks(monkeypatch)
    n = 256
    session = ResilientListSession(MONOID, range(n), seed=5)
    tree = session._structure.tree
    session.total()
    assert tree.shortcut_threshold == 3
    # Damage an untouched slot outside any bracket: a required shortcut
    # list goes missing on a slot off the root path of the last leaf.
    left_half = tree._subtree_slots(tree._left[tree.root_index])[1]
    victim = next(s for s in left_half if tree._height[s] > 2 * 4)
    assert tree._shortcuts[victim] is not None
    tree._shortcuts[victim] = None
    walked = walks.of(tree)
    # Same threshold: the region pass does not look at the victim.
    session.batch_set([(n - 1, 7)])
    assert walks.of(tree) == walked
    assert session.stats["rollbacks"] == 0
    # 256 -> 257 leaves moves the threshold 3 -> 4: the full walk runs
    # and catches the damage (rollback, scrub-and-repair, clean retry).
    session.batch_insert([(n, 9)])
    assert tree.shortcut_threshold == 4
    assert walks.of(tree) > walked
    assert session.stats["rollbacks"] >= 1
    assert session.stats["repairs"] >= 1
    tree.check_invariants()
    assert session.values() == list(range(n - 1)) + [7, 9]


def test_first_supervised_call_after_construction_walks_everything(monkeypatch):
    walks = FullWalks(monkeypatch)
    session = ResilientListSession(MONOID, range(300), seed=2)
    tree = session._structure.tree
    session.batch_set([(5, 1)])
    assert walks.of(tree) == 1
    session.batch_set([(6, 1)])
    session.batch_insert([(10, 4)])
    session.total()
    assert walks.of(tree) == 1


def test_first_supervised_call_after_demotion_walks_everything(monkeypatch):
    walks = FullWalks(monkeypatch)
    vals = list(range(300))
    session = ResilientListSession(
        MONOID,
        vals,
        seed=3,
        policy=ResiliencePolicy(
            max_retries=1, ladder=("reference", "flat", "sequential")
        ),
    )
    session.total()

    def always_hung(*_args):
        raise MachineHangError("backend never quiesces (injected)")

    session._structure.prefix = always_hung
    assert session.prefix(len(vals) - 1) == sum(vals)
    assert session.rung == "flat"
    tree = session._structure.tree
    assert walks.of(tree) == 1
    session.batch_set([(0, 1000)])
    assert walks.of(tree) == 1


@pytest.mark.parametrize("via", ["restore", "load"])
def test_first_supervised_call_after_restore_walks_everything(
    monkeypatch, tmp_path, via
):
    walks = FullWalks(monkeypatch)
    session = ResilientListSession(MONOID, range(300), seed=4)
    tree = session._structure.tree
    session.batch_set([(1, 1)])
    state = SnapshotState.capture(tree)
    session.batch_set([(2, 2)])
    assert walks.of(tree) == 1
    if via == "load":
        state = load(save(state, tmp_path / "tree.snap"))
    state.restore(tree)
    session.batch_set([(3, 3)])
    assert walks.of(tree) == 2
    session.batch_set([(4, 4)])
    assert walks.of(tree) == 2


def test_repair_outside_a_checkpoint_walks_everything(monkeypatch):
    walks = FullWalks(monkeypatch)
    session = ResilientListSession(MONOID, range(300), seed=6)
    tree = session._structure.tree
    session.batch_set([(1, 1)])
    assert plant_metadata_damage(tree, seed=3)
    session.heal()  # repair commits its own transaction
    walked = walks.of(tree)
    session.batch_set([(2, 2)])
    assert walks.of(tree) == walked + 1
    session.batch_set([(3, 3)])
    assert walks.of(tree) == walked + 1


def test_pinned_reads_between_windows_keep_the_region_pass(monkeypatch):
    walks = FullWalks(monkeypatch)
    session = ResilientListSession(MONOID, range(300), seed=8)
    tree = session._structure.tree
    session.batch_set([(1, 1)])
    assert walks.of(tree) == 1
    for k in range(3):
        with tree.pinned_reader(monoid=MONOID) as reader:
            assert reader.total() == sum(session.values())
        session.batch_set([(k, k)])
    assert walks.of(tree) == 1
