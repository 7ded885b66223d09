"""The supervised post-apply audit checks only the batch's dirty region.

``ResilientExecutor.supervise`` calls ``check_invariants(since=snapshot)``
on the flat family, which checks the slots the open snapshot saw written
(plus their neighbourhood) instead of walking the whole tree, and falls
back to the full walk when a local check cannot be trusted.  These tests
pin four things:

* **verdict parity** — on every supervised audit of the recovery fuzzer,
  the serve chaos harness and the pinned corpus, the region pass raises
  exactly when the full walk does;
* **fault coverage** — every injectable tree fault on every dirty or
  born slot of real batches is caught by the region pass itself;
* **fallbacks** — the full walk runs when the shortcut threshold moves
  or the pre-state was neither audited nor freshly built (restore,
  load, repair outside a checkpoint), and pinned reads do not force it;
  a tree the constructor just built takes the region pass at once;
* **serve windows** — one-request windows over a seeded write stream
  audit their region, and full walks stay a small fixed fraction.
"""

from __future__ import annotations

import os

import pytest

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.errors import MachineHangError, TreeStructureError
from repro.perf.flat_rbsts import FlatRBSTS
from repro.resilience.executor import ResiliencePolicy, ResilientListSession
from repro.resilience.faults import TREE_FAULT_KINDS, plant_metadata_damage
from repro.resilience.harness import RECOVERY
from repro.serve.chaos import config_for_seed, run_chaos
from repro.serve.loadgen import generate_specs, spec_args
from repro.serve.requests import Request, ServePolicy
from repro.serve.shard import Shard
from repro.snapshots.core import SnapshotState
from repro.snapshots.persist import load, save
from repro.testing.corpus import corpus_paths, load_entry
from repro.testing.fuzz import replay

MONOID = sum_monoid(INTEGER)


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
    """Counts full walks and region passes per tree."""

    def __init__(self, monkeypatch):
        self.by_tree = {}
        self.regions_by_tree = {}
        walk = FlatRBSTS._check_all
        region_pass = FlatRBSTS._check_region
        counter = self

        def check_all(tree):
            counter.by_tree[id(tree)] = counter.by_tree.get(id(tree), 0) + 1
            return walk(tree)

        def check_region(tree, region):
            passes = counter.regions_by_tree
            passes[id(tree)] = passes.get(id(tree), 0) + 1
            return region_pass(tree, region)

        monkeypatch.setattr(FlatRBSTS, "_check_all", check_all)
        monkeypatch.setattr(FlatRBSTS, "_check_region", check_region)

    def of(self, tree):
        return self.by_tree.get(id(tree), 0)

    def regions_of(self, tree):
        return self.regions_by_tree.get(id(tree), 0)


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
        outcome = RECOVERY.run_seed(seed, 40)
        assert outcome.ok, f"seed {seed}: {outcome.failure}"
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
    paths = [
        p for p in corpus_paths()
        if load_entry(p)["exercise"] in ("recovery", "chaos")
    ]
    assert len(paths) == 8
    for path in paths:
        outcome = replay(path)
        assert outcome.ok, f"{os.path.basename(path)}: {outcome.failure}"
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
        pre = since.pre_image(slot)
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
    """Starts from a tree no walk has ever seen: the constructor's vouch
    alone lets the first write take the region pass, which must then
    catch every fault kind on its own."""
    walks = FullWalks(monkeypatch)
    session = ResilientListSession(MONOID, range(N_LEAVES), seed=11)
    tree = session._structure.tree
    assert walks.of(tree) == 0
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
    assert walks.of(tree) == 0
    # Each kind acted as itself somewhere (not only as the fallback flip).
    assert set(applied) == set(TREE_FAULT_KINDS)
    # Nothing stuck: every shot was undone and the session is clean.
    assert session.stats["rollbacks"] == 0
    tree.check_invariants()


def _spoil(tree, slot, column):
    """Corrupt one cell of ``slot``; returns the clean value."""
    cells = getattr(tree, column)
    clean = cells[slot]
    if column == "_shortcuts":
        cells[slot] = (slot,) + clean[1:]  # a slot is not its own ancestor
    elif column == "_depth":
        cells[slot] = clean + 1
    else:
        cells[slot] = clean ^ 1
    return clean


@pytest.mark.parametrize(
    "column, message",
    [
        ("_depth", "depth"),
        ("_n_leaves", "bad n_leaves"),
        ("_shortcuts", "are not its ancestors"),
    ],
)
def test_a_spine_cell_spoiled_in_the_first_write_is_caught_by_the_region(
    monkeypatch, column, message
):
    """In a fresh tree's first supervised ``batch_set``, one cell of an
    internal slot on the written leaf's root path goes bad after the
    journal saved it.  The region pass alone must catch it: the tree
    was never walked, and no walk runs."""
    walks = FullWalks(monkeypatch)
    session = ResilientListSession(MONOID, range(N_LEAVES), seed=14)
    tree = session._structure.tree
    audit = FlatRBSTS.check_invariants
    caught = []

    def planted(t, since=None):
        if since is not None and not caught:
            spine = sorted(
                (s for s in since.saved
                 if t._left[s] != -1 and t._shortcuts[s] is not None),
                key=t._depth.__getitem__,
            )
            assert len(spine) > 2
            slot = spine[len(spine) // 2]
            clean = _spoil(t, slot, column)
            with pytest.raises(TreeStructureError, match=message):
                audit(t, since)
            caught.append(slot)
            getattr(t, column)[slot] = clean
        return audit(t, since)

    monkeypatch.setattr(FlatRBSTS, "check_invariants", planted)
    session.batch_set([(N_LEAVES // 3, -1)])
    assert caught
    assert walks.of(tree) == 0
    assert session.stats["rollbacks"] == 0
    tree.check_invariants()


def _bracket_on_audited_tree(monkeypatch, seed):
    """A writer bracket on a fresh tree, which its constructor vouches
    for: the audit below is the tree's first, and a region pass."""
    walks = FullWalks(monkeypatch)
    session = ResilientListSession(MONOID, range(300), seed=seed)
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
    assert (walks.of(tree), walks.regions_of(tree)) == (0, 1)
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
    assert (walks.of(tree), walks.regions_of(tree)) == (0, 1)
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
    assert (walks.of(tree), walks.regions_of(tree)) == (0, 1)
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
    session = ResilientListSession(MONOID, range(300), seed=12)
    tree = session._structure.tree
    old = next(s for s in range(300) if tree._left[tree._parent[s]] == s)
    p = tree._parent[old]
    spare = tree._alloc()  # outside any bracket: a consistent free slot
    for name in ("_item", "_summary", "_depth", "_parent"):
        getattr(tree, name)[spare] = getattr(tree, name)[old]
    tree._free.append(spare)
    tree._check_all()  # the constructor's vouch still holds
    walks = FullWalks(monkeypatch)
    journal = tree._txn_begin()
    tree._free_slot(old)
    tree._journal.save_slot(tree, p)
    tree._left[p] = spare
    with pytest.raises(TreeStructureError, match="on the free list"):
        tree.check_invariants(since=journal)
    assert (walks.of(tree), walks.regions_of(tree)) == (0, 1)
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


def test_first_supervised_call_after_construction_takes_the_region_pass(
    monkeypatch,
):
    """The constructor vouches for its tree (the construction lemma,
    ``tests/perf/test_flat_construction.py``): no supervised call on a
    fresh tree walks it."""
    walks = FullWalks(monkeypatch)
    session = ResilientListSession(MONOID, range(300), seed=2)
    tree = session._structure.tree
    session.batch_set([(5, 1)])
    assert (walks.of(tree), walks.regions_of(tree)) == (0, 1)
    session.batch_set([(6, 1)])
    session.batch_insert([(10, 4)])
    session.total()
    assert walks.of(tree) == 0


def test_first_supervised_call_after_demotion_takes_the_region_pass(
    monkeypatch,
):
    """A demotion rebuilds the committed values through the flat
    constructor, so the new tree is vouched for like any fresh one."""
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
    assert (walks.of(tree), walks.regions_of(tree)) == (0, 1)
    session.batch_set([(0, 1000)])
    assert (walks.of(tree), walks.regions_of(tree)) == (0, 2)


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
    assert walks.of(tree) == 0
    if via == "load":
        state = load(save(state, tmp_path / "tree.snap"))
    state.restore(tree)
    # The restored columns come from outside the constructor.
    assert not tree._audited
    session.batch_set([(3, 3)])
    assert walks.of(tree) == 1
    session.batch_set([(4, 4)])
    assert walks.of(tree) == 1


def test_repair_outside_a_checkpoint_walks_everything(monkeypatch):
    walks = FullWalks(monkeypatch)
    session = ResilientListSession(MONOID, range(300), seed=6)
    tree = session._structure.tree
    session.batch_set([(1, 1)])
    assert plant_metadata_damage(tree, seed=3)
    session.heal()  # repair commits its own transaction
    assert not tree._audited
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
    assert (walks.of(tree), walks.regions_of(tree)) == (0, 1)
    for k in range(3):
        with tree.pinned_reader(monoid=MONOID) as reader:
            assert reader.total() == sum(session.values())
        session.batch_set([(k, k)])
    assert (walks.of(tree), walks.regions_of(tree)) == (0, 4)


# ---------------------------------------------------------------------------
# serve windows
# ---------------------------------------------------------------------------


def test_one_request_windows_audit_their_region_not_the_tree(monkeypatch):
    """A seeded write stream through the clock-free shard core at window
    size 1, so the window count is deterministic.  Every window runs
    exactly one supervised audit.  A fresh tree is vouched for by its
    constructor, so only shortcut threshold crossings walk the whole
    tree, and full walks stay under 1/40 of the region passes.  A
    supervisor that walks the whole tree after every window fails this
    by two orders of magnitude on any machine."""
    walks = FullWalks(monkeypatch)
    policy = ServePolicy(
        max_batch=1, resilience=ResiliencePolicy(ladder=("flat",))
    )
    shards = [
        Shard(sid, MONOID, range(1, 65), seed=20100, policy=policy)
        for sid in range(2)
    ]
    statuses = {}
    specs = generate_specs(seed=20100, n_requests=800, n_shards=2)
    for req_id, spec in enumerate(specs):
        shard = shards[spec.shard]
        args = spec_args(spec, len(shard))
        req = Request(req_id, spec.shard, spec.kind, args)
        if not req.is_write:
            continue
        assert shard.offer(req, 0.0) is None
        window = shard.take_window()
        assert len(window) == 1
        for resp in shard.execute_window(window, 0.0).values():
            statuses[resp.status] = statuses.get(resp.status, 0) + 1
    # Every write committed: rejected requests are not audited work.
    assert set(statuses) == {"applied"}
    assert statuses["applied"] == sum(s.stats["windows"] for s in shards)
    for shard in shards:
        tree = shard.session._structure.tree
        full, region = walks.of(tree), walks.regions_of(tree)
        assert full + region == shard.stats["windows"]
        assert full * 40 <= region, (shard.shard_id, full, region)
