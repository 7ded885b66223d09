"""Integrity scanning and localized repair for both RBSTS backends.

The scanner (:func:`scrub`) walks the tree *tolerantly* — unlike
``check_invariants`` it does not stop at the first violation; it
recomputes a bottom-up shadow of every derived field and attributes
each mismatch to the deepest node whose stored value disagrees with the
recomputed one.  Sites fall into three classes:

``meta``
    Derived metadata (``n_leaves``/``height``/``depth``/``summary`` and
    shortcut *contents*, which are a pure function of depth and the
    root path).  Repair recomputes the damaged cells bit-identically —
    zero randomness, cost ``O(#sites)`` writes.

``structural``
    Broken parent backlinks.  Downward traversal still enumerates the
    affected subtree's leaves in order, so repair discards and rebuilds
    the smallest subtree enclosing all structural sites through the
    same ``_rebuild_at`` path batch updates use — the paper's §2
    randomized rebuilding (Theorems 2.2/2.3: rebuilding a damaged
    ``m``-leaf subtree re-establishes the RBSTS distribution locally).
    The rebuild draws from a *dedicated repair RNG* and restores the
    master RNG afterwards, so RNG parity with an undamaged twin is
    preserved; applying the same ``repair_seed`` to both backends
    yields bit-identical repaired shapes (the equivalence contract).

``fatal``
    Damage that defeats localization — a cyclic or half-connected
    topology, root with a parent, free-list overlap, slab leak, or an
    unknown summary sentinel on a *leaf* (items are user data: there is
    no oracle to recompute them from).  :func:`repair` raises
    :class:`~repro.errors.RepairFailedError` without mutating.

Repair runs under a transaction journal (``tree._txn_begin``): every
mutated cell records its pre-image first, and a failed post-repair
verification rolls the tree back to its pre-repair state bit-for-bit
before :class:`~repro.errors.RepairFailedError` propagates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import RepairFailedError
from ..splitting.shortcuts import shortcut_target_depths, shortcuts_from_path

__all__ = [
    "RepairReport",
    "ScrubReport",
    "ScrubSite",
    "repair",
    "scrub",
]

_NIL = -1
_META_FIELDS = ("n_leaves", "height", "depth", "summary", "shortcuts")


@dataclass(frozen=True)
class ScrubSite:
    """One detected integrity violation."""

    severity: str  # "meta" | "structural" | "fatal"
    field: str
    label: str
    node: Any = field(repr=False, default=None, compare=False)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.severity}] {self.label}: {self.field}"


@dataclass
class ScrubReport:
    """Result of one integrity scan.  ``shadow`` maps nodes to their
    recomputed ``(n_leaves, height, depth, summary)``; ``paths`` maps
    structurally-damaged enclosing nodes to their root paths (needed to
    localize the rebuild without trusting parent pointers)."""

    sites: Tuple[ScrubSite, ...]
    nodes_scanned: int
    shadow: Dict[Any, Tuple[int, int, int, Any]] = field(repr=False, default_factory=dict)
    paths: Dict[Any, Tuple[Any, ...]] = field(repr=False, default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.sites

    def by_severity(self, severity: str) -> List[ScrubSite]:
        return [s for s in self.sites if s.severity == severity]


@dataclass(frozen=True)
class RepairReport:
    """What :func:`repair` did.  ``rebuilt_leaves`` is the §2 rebuild
    mass ``m`` — tests assert it tracks the damaged subtree, not the
    whole tree."""

    sites: int
    recomputed: int
    rebuilt_leaves: int
    rebuilt_at: str = ""

    @property
    def rebuilt(self) -> bool:
        return self.rebuilt_leaves > 0


# ---------------------------------------------------------------------------
# the scanner
# ---------------------------------------------------------------------------


def _is_flat(tree: Any) -> bool:
    return hasattr(tree, "root_index")


def scrub(tree: Any) -> ScrubReport:
    """Scan ``tree`` (either backend) and report every integrity
    violation, classified and localized.  Read-only."""
    flat = _is_flat(tree)
    sites: List[ScrubSite] = []
    shadow: Dict[Any, Tuple[int, int, int, Any]] = {}
    paths: Dict[Any, Tuple[Any, ...]] = {}
    summarizer = tree.summarizer
    combine = summarizer.monoid.combine if summarizer is not None else None
    of_item = summarizer.of_item if summarizer is not None else None
    threshold = tree.shortcut_threshold

    if flat:
        root = tree.root_index
        n_slots = len(tree._parent)
        left_of: Callable[[Any], Any] = lambda s: tree._left[s]
        right_of: Callable[[Any], Any] = lambda s: tree._right[s]
        parent_of: Callable[[Any], Any] = lambda s: tree._parent[s]
        is_nil: Callable[[Any], bool] = lambda s: s == _NIL
        label_of: Callable[[Any], str] = lambda s: f"slot {s}"
        stored: Callable[[Any], Tuple[int, int, int, Any]] = lambda s: (
            tree._n_leaves[s],
            tree._height[s],
            tree._depth[s],
            tree._summary[s],
        )
        item_of: Callable[[Any], Any] = lambda s: tree._item[s]
        shortcuts_of: Callable[[Any], Any] = lambda s: tree._shortcuts[s]
        if parent_of(root) != _NIL:
            sites.append(ScrubSite("fatal", "root-parent", label_of(root), root))
    else:
        root = tree.root
        n_slots = -1
        left_of = lambda v: v.left
        right_of = lambda v: v.right
        parent_of = lambda v: v.parent
        is_nil = lambda v: v is None
        label_of = lambda v: f"node {v.nid}"
        stored = lambda v: (v.n_leaves, v.height, v.depth, v.summary)
        item_of = lambda v: v.item
        shortcuts_of = lambda v: v.shortcuts
        if root.parent is not None:
            sites.append(ScrubSite("fatal", "root-parent", label_of(root), root))

    # Tolerant DFS: enumerate via left/right only; detect cycles and
    # half-connected internals as fatal.  ``path`` is the root path of
    # the node being entered, indexed by (shadow) depth.
    seen: Set[Any] = set()
    path: List[Any] = []
    order: List[Tuple[Any, bool]] = [(root, True)]
    postorder: List[Any] = []
    depth_shadow: Dict[Any, int] = {}
    fatal_topology = False
    while order and not fatal_topology:
        node, entering = order.pop()
        if not entering:
            path.pop()
            continue
        if node in seen:
            sites.append(ScrubSite("fatal", "cycle", label_of(node), node))
            fatal_topology = True
            break
        seen.add(node)
        if flat and not 0 <= node < n_slots:
            sites.append(ScrubSite("fatal", "child-out-of-range", f"slot {node}", node))
            fatal_topology = True
            break
        depth_shadow[node] = len(path)
        l, r = left_of(node), right_of(node)
        if is_nil(l) != is_nil(r):
            sites.append(ScrubSite("fatal", "half-internal", label_of(node), node))
            fatal_topology = True
            break
        if not is_nil(l):
            # Record the root path for structural-site localization.
            for child in (l, r):
                if flat and not 0 <= child < n_slots:
                    sites.append(
                        ScrubSite("fatal", "child-out-of-range", label_of(node), node)
                    )
                    fatal_topology = True
                    break
            if fatal_topology:
                break
            broken = (
                (parent_of(l) != node or parent_of(r) != node)
                if flat
                else (parent_of(l) is not node or parent_of(r) is not node)
            )
            if broken:
                sites.append(ScrubSite("structural", "parent-link", label_of(node), node))
                paths[node] = tuple(path)
            path.append(node)
            order.append((node, False))
            order.append((r, True))
            order.append((l, True))
        postorder.append(node)
    if fatal_topology:
        return ScrubReport(tuple(sites), len(seen), shadow, paths)

    # Flat-only slab accounting.
    if flat:
        free = set(tree._free)
        overlap = free & seen
        for s in sorted(overlap):
            sites.append(ScrubSite("fatal", "free-live-overlap", f"slot {s}", s))
        if len(seen) + len(tree._free) != n_slots:
            sites.append(ScrubSite("fatal", "slab-leak", "slab", None))

    # Bottom-up shadow: recompute derived fields from validated children.
    # ``postorder`` above is actually preorder; reverse gives children-
    # before-parents for this traversal shape.
    for node in reversed(postorder):
        l, r = left_of(node), right_of(node)
        n_st, h_st, d_st, s_st = stored(node)
        d_sh = depth_shadow[node]
        if is_nil(l):
            n_sh, h_sh = 1, 0
            s_sh = of_item(item_of(node)) if of_item is not None else s_st
            if combine is not None and s_st != s_sh:
                sites.append(ScrubSite("meta", "summary", label_of(node), node))
        else:
            cl, cr = shadow[l], shadow[r]
            n_sh = cl[0] + cr[0]
            h_sh = 1 + max(cl[1], cr[1])
            if combine is not None:
                s_sh = combine(cl[3], cr[3])
                if s_st != s_sh:
                    sites.append(ScrubSite("meta", "summary", label_of(node), node))
            else:
                s_sh = s_st
        if n_st != n_sh:
            sites.append(ScrubSite("meta", "n_leaves", label_of(node), node))
        if h_st != h_sh:
            sites.append(ScrubSite("meta", "height", label_of(node), node))
        if d_st != d_sh:
            sites.append(ScrubSite("meta", "depth", label_of(node), node))
        shadow[node] = (n_sh, h_sh, d_sh, s_sh)

    # Shortcut contents are a pure function of (shadow depth, root
    # path); presence above 2× the threshold is mandatory.
    by_node_depth: Dict[Any, int] = depth_shadow
    # Rebuild each node's root path on the fly via a second preorder
    # walk (cheap: one list op per step).
    path = []
    order = [(root, True)]
    while order:
        node, entering = order.pop()
        if not entering:
            path.pop()
            continue
        sc = shortcuts_of(node)
        d_sh = by_node_depth[node]
        h_sh = shadow[node][1]
        if sc is not None:
            if d_sh == 0:
                sites.append(ScrubSite("meta", "shortcuts", label_of(node), node))
            else:
                targets = shortcut_target_depths(d_sh, tree.ratio)
                expect = [path[t] for t in targets]
                got = list(sc)
                same = len(got) == len(expect) and all(
                    (g == e if flat else g is e) for g, e in zip(got, expect)
                )
                if not same:
                    sites.append(
                        ScrubSite("meta", "shortcuts", label_of(node), node)
                    )
        elif d_sh > 0 and h_sh > 2 * threshold:
            sites.append(ScrubSite("meta", "shortcuts", label_of(node), node))
        l = left_of(node)
        if not is_nil(l):
            path.append(node)
            order.append((node, False))
            order.append((right_of(node), True))
            order.append((l, True))

    return ScrubReport(tuple(sites), len(seen), shadow, paths)


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


def repair(
    tree: Any,
    report: Optional[ScrubReport] = None,
    *,
    repair_seed: int = 0,
) -> RepairReport:
    """Repair every site found by :func:`scrub` (re-scanning if no
    ``report`` is given), verify with ``check_invariants``, and return
    the :class:`RepairReport`.  Transactional: a failed verification
    rolls back to the pre-repair state and raises
    :class:`~repro.errors.RepairFailedError`.
    """
    if report is None:
        report = scrub(tree)
    if report.clean:
        tree.check_invariants()
        return RepairReport(0, 0, 0)
    fatal = report.by_severity("fatal")
    if fatal:
        raise RepairFailedError(
            "unrepairable damage: " + "; ".join(str(s) for s in fatal)
        )

    structural = report.by_severity("structural")
    n_sites = len(report.sites)
    saved_rng = tree._rng.getstate()
    journal = tree._txn_begin()
    try:
        rebuilt_leaves = 0
        rebuilt_at = ""
        if structural:
            # Rebuild first: it heals every site *inside* the damaged
            # subtree (and its ancestors' counts via ``_update_upward``),
            # and recompute must not trust parent pointers before then.
            anchor = _rebuild_anchor(report, structural)
            rebuilt_leaves, rebuilt_at = _rebuild_subtree(
                tree, anchor, repair_seed
            )
            report = scrub(tree)
            leftover = report.by_severity("structural") + report.by_severity("fatal")
            if leftover:
                raise RepairFailedError(
                    "structural damage survived rebuild: "
                    + "; ".join(str(s) for s in leftover)
                )
        recomputed = _recompute_meta(tree, report, report.by_severity("meta"))
        tree._rng.setstate(saved_rng)
        tree.check_invariants()
    except BaseException as exc:
        tree._txn_rollback(journal)
        if isinstance(exc, RepairFailedError):
            raise
        raise RepairFailedError(
            f"post-repair verification failed ({exc})"
        ) from exc
    tree._txn_commit(journal)
    return RepairReport(n_sites, recomputed, rebuilt_leaves, rebuilt_at)


def _recompute_meta(
    tree: Any, report: ScrubReport, meta_sites: Sequence[ScrubSite]
) -> int:
    """Write the shadow values back at every meta site, pre-imaging each
    cell through the recording seam ``tree._journal`` first, so every
    open snapshot (the repair's own and any enclosing checkpoint) can
    rewind it.  Bit-identical restoration."""
    flat = _is_flat(tree)
    recomputed = 0
    # Deepest-first is not required (shadow values are already final),
    # but keeps the write order deterministic.
    ordered = sorted(
        meta_sites,
        key=lambda s: (-report.shadow[s.node][2], s.field, s.label),
    )
    for site in ordered:
        node = site.node
        n_sh, h_sh, d_sh, s_sh = report.shadow[node]
        if flat:
            tree._journal.save_slot(tree, node)
            if site.field == "n_leaves":
                tree._n_leaves[node] = n_sh
            elif site.field == "height":
                tree._height[node] = h_sh
            elif site.field == "depth":
                tree._depth[node] = d_sh
            elif site.field == "summary":
                tree._summary[node] = s_sh
            else:  # shortcuts
                tree._shortcuts[node] = _expected_shortcuts(tree, report, node)
        else:
            tree._journal.record_meta([node])
            if site.field == "n_leaves":
                node.n_leaves = n_sh
            elif site.field == "height":
                node.height = h_sh
            elif site.field == "depth":
                node.depth = d_sh
            elif site.field == "summary":
                node.summary = s_sh
            else:  # shortcuts
                node.shortcuts = _expected_shortcuts(tree, report, node)
        recomputed += 1
    return recomputed


def _expected_shortcuts(tree: Any, report: ScrubReport, node: Any) -> Any:
    """The (deterministic) correct shortcut list of ``node``, derived
    from its shadow depth and root path."""
    flat = _is_flat(tree)
    d_sh = report.shadow[node][2]
    if d_sh == 0:
        return None
    # Root path by walking parents (sound here: structural sites are
    # repaired by rebuild, not recompute, so this node's ancestry is
    # intact whenever a shortcut recompute is attempted).
    chain: List[Any] = []
    cur = node
    if flat:
        p = tree._parent[cur]
        while p != _NIL:
            chain.append(p)
            p = tree._parent[p]
        chain.reverse()
        targets = shortcut_target_depths(d_sh, tree.ratio)
        return tuple(chain[t] for t in targets)
    p = node.parent
    while p is not None:
        chain.append(p)
        p = p.parent
    chain.reverse()

    class _Probe:
        depth = d_sh

    return shortcuts_from_path(_Probe, chain, tree.ratio)  # type: ignore[arg-type]


def _rebuild_anchor(report: ScrubReport, structural: Sequence[ScrubSite]) -> Any:
    """Smallest subtree enclosing all structural sites: the node whose
    recorded root path is the longest common prefix of every damaged
    node's path (the sites' deepest common ancestor)."""
    nodes = [s.node for s in structural]
    paths = [report.paths[n] + (n,) for n in nodes]
    prefix = paths[0]
    for p in paths[1:]:
        k = 0
        while k < len(prefix) and k < len(p) and (
            prefix[k] == p[k] or prefix[k] is p[k]
        ):
            k += 1
        prefix = prefix[:k]
    return prefix[-1] if prefix else paths[0][0]


def _rebuild_subtree(
    tree: Any, anchor: Any, repair_seed: int
) -> Tuple[int, str]:
    """Discard and randomly rebuild the subtree at ``anchor`` (§2,
    Theorems 2.2/2.3) under a dedicated repair RNG.  The master RNG is
    restored by the caller."""
    flat = _is_flat(tree)
    if flat:
        # The reseed overwrites the master RNG: every open flat snapshot
        # copies it first (reference journals capture it eagerly).
        tree._journal.save_rng(tree)
    tree._rng.seed(("scrub-rebuild", repair_seed).__repr__())
    if flat:
        leaf_slots, dead = tree._subtree_slots(anchor)
        label = f"slot {anchor}"
        new_root = tree._rebuild_at(anchor, leaf_slots, dead_internals=dead)
        tree._update_upward(new_root)
        return len(leaf_slots), label
    leaves = _ref_subtree_leaves(anchor)
    label = f"node {anchor.nid}"
    new_root = tree._rebuild_at(anchor, leaves)
    tree._update_upward(new_root)
    return len(leaves), label


def _ref_subtree_leaves(node: Any) -> List[Any]:
    """In-order leaves of ``node``'s subtree via child pointers only
    (tolerates broken parent backlinks)."""
    out: List[Any] = []
    stack = [node]
    while stack:
        v = stack.pop()
        if v.left is None:
            out.append(v)
        else:
            stack.append(v.right)
            stack.append(v.left)
    return out
