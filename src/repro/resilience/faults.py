"""Deterministic runtime fault injection (PR 5).

Everything here is an *attacker*: seeded, replayable damage injected
into live executions so the supervision layer (:mod:`.executor`) and
the integrity scanner (:mod:`.scrub`) can be exercised end-to-end.
Three families, mirroring the failure taxonomy of DESIGN.md §9:

* **Machine faults** — fail-stop processor death, lost forks and
  induced hangs inside :class:`~repro.pram.machine.Machine` rounds
  (:class:`FaultyMachine`).
* **Memory faults** — torn writes, bit-flips and stale-epoch cells at
  :meth:`SharedMemory.commit <repro.pram.memory.SharedMemory.commit>`
  boundaries (:class:`FaultySharedMemory`).
* **Tree faults** — corruption of RBSTS/FlatRBSTS cells.  In-batch
  corruption (:func:`corrupt_journaled_cell`) only ever touches cells
  whose pre-images the open transaction journal already holds, so a
  checkpoint rollback provably removes the damage and a clean retry can
  succeed.  At-rest corruption (:func:`plant_metadata_damage`,
  :func:`plant_link_damage`) targets committed state between batches
  and is what scrub-and-repair exists for.

Determinism: every decision is drawn from
``random.Random(("fault", seed, op_index).__repr__())`` — the same
keyed-substream idiom the fuzzing generator uses — so a
:class:`FaultPlan` replays bit-identically from its seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import InvalidParameterError
from ..pram.machine import Machine
from ..pram.memory import SharedMemory, WritePolicy
from ..pram.ops import Local, Program
from ..snapshots.core import FlatSnapshot, ReferenceSnapshot

__all__ = [
    "FAULT_KINDS",
    "MACHINE_FAULT_KINDS",
    "MEMORY_FAULT_KINDS",
    "TREE_FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultyMachine",
    "FaultySharedMemory",
    "corrupt_journaled_cell",
    "plant_link_damage",
    "plant_metadata_damage",
]

#: Fail-stop and scheduling faults injected into ``Machine`` rounds.
MACHINE_FAULT_KINDS = ("dead-processor", "lost-fork", "hang")
#: Cell-level corruption injected at ``SharedMemory.commit`` boundaries.
MEMORY_FAULT_KINDS = ("torn-write", "bit-flip", "stale-epoch")
#: Cell-level corruption injected into RBSTS/FlatRBSTS columns.
TREE_FAULT_KINDS = ("bit-flip", "torn-write", "stale-epoch")
#: Every distinct fault kind.
FAULT_KINDS = ("dead-processor", "lost-fork", "hang", "torn-write", "bit-flip", "stale-epoch")

_NIL = -1  # mirrors perf.flat_rbsts.NIL without importing the module cycle
_MAX_WALK = 1 << 20
_MISSING = object()

#: Sentinel for memory-level bit-flips of non-integer cells: unequal to
#: every ring element, so verifiers always notice it.
TORN = ("torn-write", "⊥")


def _torn_summary(tree: Any, flat: bool, target: Any) -> Any:
    """A "half-applied" summary for ``target``: the left child's summary
    for an internal node (the combine never finished), the monoid
    identity for a leaf.  Type-compatible with the ring, so detection
    happens through value audits, not type errors."""
    if flat:
        l = tree._left[target]
        if l != _NIL:
            return tree._summary[l]
    else:
        if target.left is not None:
            return target.left.summary
    return tree.summarizer.monoid.identity


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault occurrence.

    ``persistence`` is ``"transient"`` (fires on the first attempt of
    the first ladder rung only — a retry gets a clean run) or
    ``"sticky"`` (fires on *every* attempt of the first rung — only
    demotion or abort ends it).
    """

    kind: str
    op_index: int
    persistence: str
    detail: Dict[str, int] = field(default_factory=dict)

    def should_fire(self, *, attempt: int, rung_index: int) -> bool:
        """Does this event fire on the given retry attempt / ladder rung?"""
        if rung_index != 0:
            return False
        if self.persistence == "transient":
            return attempt == 0
        return True  # sticky


class FaultPlan:
    """Seeded, deterministic schedule of runtime faults.

    ``draw(op_index, kinds=...)`` answers "does a fault fire at this
    operation, and which one?" purely as a function of ``(seed,
    op_index)`` — no hidden state, so oracle runs can query the same
    plan to learn *where* faults were scheduled without executing them.
    """

    def __init__(
        self,
        seed: int,
        *,
        rate: float = 0.25,
        persistence: str = "mixed",
        sticky_rate: float = 0.3,
    ) -> None:
        self.seed = seed
        self.rate = rate
        self.persistence = persistence
        self.sticky_rate = sticky_rate

    def _rng(self, op_index: int) -> random.Random:
        return random.Random(("fault", self.seed, op_index).__repr__())

    def draw(
        self, op_index: int, *, kinds: Sequence[str] = FAULT_KINDS
    ) -> Optional[FaultEvent]:
        """The fault (if any) scheduled at ``op_index``, restricted to
        ``kinds``.  Deterministic in ``(seed, op_index, kinds)``."""
        rng = self._rng(op_index)
        if rng.random() >= self.rate or not kinds:
            return None
        kind = kinds[rng.randrange(len(kinds))]
        if self.persistence == "mixed":
            persistence = "sticky" if rng.random() < self.sticky_rate else "transient"
        else:
            persistence = self.persistence
        detail: Dict[str, int] = {
            "pick": rng.randrange(1 << 16),
            "bit": rng.randrange(3),
            "at_step": rng.randrange(1, 6),
            "at_commit": rng.randrange(1, 4),
            "victim": rng.randrange(64),
            "nth": rng.randrange(1, 6),
        }
        return FaultEvent(kind, op_index, persistence, detail)

    def describe(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "rate": self.rate,
            "persistence": self.persistence,
            "sticky_rate": self.sticky_rate,
        }


# ---------------------------------------------------------------------------
# machine-level faults
# ---------------------------------------------------------------------------


def _zombie() -> Program:
    """A processor that never quiesces (drives ``MachineHangError``)."""
    while True:
        yield Local()


class FaultySharedMemory(SharedMemory):
    """Shared memory whose commit boundary can lose, flip or revert one
    cell per armed :class:`FaultEvent` (kinds in
    :data:`MEMORY_FAULT_KINDS`).  Each event fires at most once, on its
    ``at_commit``-th non-empty commit."""

    def __init__(
        self,
        policy: WritePolicy = WritePolicy.ARBITRARY,
        seed: int | None = 0,
        *,
        events: Iterable[FaultEvent] = (),
        log: Optional[List[str]] = None,
    ) -> None:
        super().__init__(policy=policy, seed=seed)
        self._events = [e for e in events if e.kind in MEMORY_FAULT_KINDS]
        self._fired: Set[int] = set()
        self._commits = 0
        self.fault_log: List[str] = log if log is not None else []

    def commit(self) -> None:
        staged = sorted(self._staged, key=repr)
        if staged:
            self._commits += 1
        post: List[Tuple[FaultEvent, Any, Any]] = []
        for i, ev in enumerate(self._events):
            if i in self._fired or not staged:
                continue
            if self._commits < ev.detail.get("at_commit", 1):
                continue
            self._fired.add(i)
            addr = staged[ev.detail.get("pick", 0) % len(staged)]
            if ev.kind == "torn-write":
                del self._staged[addr]
                self.fault_log.append(f"torn-write: dropped staged write {addr!r}")
                staged = sorted(self._staged, key=repr)
            elif ev.kind == "stale-epoch":
                post.append((ev, addr, self._cells.get(addr, _MISSING)))
            else:  # bit-flip
                post.append((ev, addr, None))
        super().commit()
        for ev, addr, pre in post:
            if ev.kind == "stale-epoch":
                if pre is _MISSING:
                    self._cells.pop(addr, None)
                    self.fault_log.append(f"stale-epoch: un-created cell {addr!r}")
                else:
                    self._cells[addr] = pre
                    self.fault_log.append(
                        f"stale-epoch: reverted {addr!r} to {pre!r}"
                    )
            else:  # bit-flip
                cur = self._cells.get(addr)
                if isinstance(cur, int) and not isinstance(cur, bool):
                    flipped = cur ^ (1 << ev.detail.get("bit", 0))
                    self._cells[addr] = flipped
                    self.fault_log.append(
                        f"bit-flip: {addr!r} {cur!r} -> {flipped!r}"
                    )
                else:
                    self.fault_log.append(
                        f"bit-flip: {addr!r} not an int, fault fizzled"
                    )


class FaultyMachine(Machine):
    """A :class:`~repro.pram.machine.Machine` with fail-stop faults.

    Construct with the :class:`FaultEvent`\\ s to arm (kinds outside
    :data:`MACHINE_FAULT_KINDS` ∪ :data:`MEMORY_FAULT_KINDS` are
    ignored), spawn the workload's initial programs, then call
    :meth:`begin_faults` — forks *after* that point are candidates for
    ``lost-fork``, and ``hang``/``dead-processor`` events arm.

    * ``dead-processor`` — at the event's ``at_step``-th step, one live
      processor is killed before it executes (fail-stop: its staged
      effects for that step never happen).
    * ``lost-fork`` — the ``nth`` fork after :meth:`begin_faults` is
      swallowed: the parent receives a plausible pid but the child is
      never registered.
    * ``hang`` — a zombie processor that never halts is spawned, so
      :meth:`run` exhausts its budget and raises
      :class:`~repro.errors.MachineHangError`.

    Every fired fault appends a human-readable line to ``fault_log``.
    Memory-fault events cannot be combined with ``sanitize``: both
    replace the machine's memory, so one would silently drop the other
    (raises :class:`~repro.errors.InvalidParameterError`).
    """

    def __init__(
        self,
        policy: WritePolicy = WritePolicy.ARBITRARY,
        max_processors: int = 1_000_000,
        seed: int | None = 0,
        *,
        events: Iterable[FaultEvent] = (),
        sanitize: bool | str = False,
        sanctioned: Iterable[Any] = (),
    ) -> None:
        super().__init__(
            policy, max_processors, seed, sanitize=sanitize, sanctioned=sanctioned
        )
        self.fault_log: List[str] = []
        self._events = list(events)
        self._fired: Set[int] = set()
        self._armed = False
        self._forks_seen = 0
        self._steps_seen = 0
        mem_events = [e for e in self._events if e.kind in MEMORY_FAULT_KINDS]
        if mem_events and sanitize:
            raise InvalidParameterError(
                "memory-fault events "
                f"{sorted({e.kind for e in mem_events})} cannot run on a "
                "sanitized machine: both replace its shared memory"
            )
        if mem_events:
            # Replace the (still-empty) memory with the faulty variant.
            self.memory = FaultySharedMemory(
                policy=self.memory.policy,
                seed=seed,
                events=mem_events,
                log=self.fault_log,
            )

    def begin_faults(self) -> None:
        """Arm the machine faults.  Call after spawning the workload's
        initial processors (their spawns must not count as forks)."""
        self._armed = True
        for i, ev in enumerate(self._events):
            if ev.kind == "hang" and i not in self._fired:
                self._fired.add(i)
                self._armed = False
                try:
                    self.spawn(_zombie())
                finally:
                    self._armed = True
                self.fault_log.append("hang: zombie processor spawned")

    # -- fault hooks ----------------------------------------------------
    def spawn(self, program: Program) -> int:
        if self._armed:
            self._forks_seen += 1
            for i, ev in enumerate(self._events):
                if ev.kind != "lost-fork" or i in self._fired:
                    continue
                if self._forks_seen == ev.detail.get("nth", 1):
                    self._fired.add(i)
                    program.close()
                    pid = self._next_pid
                    self._next_pid += 1
                    self.fault_log.append(
                        f"lost-fork: fork #{self._forks_seen} swallowed (pid {pid})"
                    )
                    return pid
        return super().spawn(program)

    def step(self) -> int:
        if self._armed:
            self._steps_seen += 1
            for i, ev in enumerate(self._events):
                if ev.kind != "dead-processor" or i in self._fired:
                    continue
                if self._steps_seen >= ev.detail.get("at_step", 1):
                    live = [p for p in self._procs if p.live]
                    if not live:
                        continue
                    self._fired.add(i)
                    victim = live[ev.detail.get("victim", 0) % len(live)]
                    victim.live = False
                    victim.program.close()
                    self.fault_log.append(
                        f"dead-processor: pid {victim.pid} killed at "
                        f"step {self._steps_seen}"
                    )
        return super().step()


# ---------------------------------------------------------------------------
# tree-level faults
# ---------------------------------------------------------------------------


def _flat_is_live(tree: Any, slot: int) -> bool:
    """Is ``slot`` reachable from the root by parent pointers?"""
    if not 0 <= slot < len(tree._parent):
        return False
    cur = slot
    for _ in range(_MAX_WALK):
        p = tree._parent[cur]
        if p == _NIL:
            return cur == tree.root_index
        cur = p
    return False


def _ref_is_live(tree: Any, node: Any) -> bool:
    cur = node
    for _ in range(_MAX_WALK):
        if cur.parent is None:
            return cur is tree.root
        cur = cur.parent
    return False


def corrupt_journaled_cell(tree: Any, event: FaultEvent) -> Optional[str]:
    """Corrupt one tree cell *covered by the open transaction journal*.

    The damage is guaranteed to be removed by ``_txn_rollback``: flat
    targets are slots with a 12-column pre-image in
    :class:`~repro.snapshots.core.FlatSnapshot` (or slots born inside
    the transaction, which truncation discards); reference targets are
    nodes with a ``meta`` pre-image in
    :class:`~repro.snapshots.core.ReferenceSnapshot`.  Returns a
    description of the fired fault, or ``None`` when the journal offers
    no live target (the fault fizzles — nothing was corrupted).
    """
    # The innermost open snapshot (``tree._txn``) — not the recording
    # seam ``tree._journal``, which may be a fanout when transactions
    # nest (repro.snapshots.core).  A pinned reader's snapshot owns no
    # rollback, so nothing is corrupted under it.
    journal = getattr(tree, "_txn", None)
    if journal is None or journal.pinned:
        return None
    if isinstance(journal, FlatSnapshot):
        return _corrupt_flat(tree, journal, event)
    if isinstance(journal, ReferenceSnapshot):
        return _corrupt_reference(tree, journal, event)
    return None


def _corrupt_flat(
    tree: Any, journal: FlatSnapshot, event: FaultEvent
) -> Optional[str]:
    saved = [s for s in sorted(journal.saved) if _flat_is_live(tree, s)]
    born = [
        s
        for s in range(journal.snap_len, len(tree._parent))
        if _flat_is_live(tree, s)
    ]
    pick = event.detail.get("pick", 0)
    kind = event.kind
    if kind == "stale-epoch":
        # Revert one journal-covered cell to its pre-batch value.
        for s in _rotated(saved, pick):
            pre = journal.saved[s]
            for col, name in ((3, "_n_leaves"), (5, "_height"), (4, "_depth")):
                column = getattr(tree, name)
                if column[s] != pre[col]:
                    column[s] = pre[col]
                    return f"stale-epoch: slot {s} {name} reverted to {pre[col]!r}"
        kind = "bit-flip"  # nothing changed in place: degrade to a flip
    targets = saved + born
    if not targets:
        return None
    s = targets[pick % len(targets)]
    if kind == "torn-write" and tree.summarizer is not None:
        torn = _torn_summary(tree, True, s)
        if torn != tree._summary[s]:
            tree._summary[s] = torn
            return f"torn-write: slot {s} summary half-applied"
        kind = "bit-flip"  # torn value coincides: degrade to a flip
    mask = 1 << event.detail.get("bit", 0)
    tree._n_leaves[s] ^= mask
    return f"bit-flip: slot {s} n_leaves ^= {mask}"


def _corrupt_reference(
    tree: Any, journal: ReferenceSnapshot, event: FaultEvent
) -> Optional[str]:
    metas = [
        e for e in journal.entries if e[0] == "meta" and _ref_is_live(tree, e[1])
    ]
    if not metas:
        return None
    pick = event.detail.get("pick", 0)
    kind = event.kind
    if kind == "stale-epoch":
        for entry in _rotated(metas, pick):
            _, v, n, h, _depth, _summary, _shortcuts = entry
            if v.height != h:
                v.height = h
                return f"stale-epoch: node {v.nid} height reverted to {h}"
            if v.n_leaves != n:
                v.n_leaves = n
                return f"stale-epoch: node {v.nid} n_leaves reverted to {n}"
        kind = "bit-flip"
    entry = metas[pick % len(metas)]
    v = entry[1]
    if kind == "torn-write" and tree.summarizer is not None:
        torn = _torn_summary(tree, False, v)
        if torn != v.summary:
            v.summary = torn
            return f"torn-write: node {v.nid} summary half-applied"
        kind = "bit-flip"
    mask = 1 << event.detail.get("bit", 0)
    v.n_leaves ^= mask
    return f"bit-flip: node {v.nid} n_leaves ^= {mask}"


def _rotated(items: List[Any], pick: int) -> List[Any]:
    if not items:
        return items
    k = pick % len(items)
    return items[k:] + items[:k]


# ---------------------------------------------------------------------------
# at-rest damage (scrub-and-repair's diet)
# ---------------------------------------------------------------------------


def _live_internals(tree: Any) -> List[Any]:
    """Internal nodes/slots of either backend, in preorder."""
    out: List[Any] = []
    if hasattr(tree, "root_index"):
        stack = [tree.root_index]
        while stack:
            s = stack.pop()
            if tree._left[s] != _NIL:
                out.append(s)
                stack.append(tree._right[s])
                stack.append(tree._left[s])
    else:
        stack = [tree.root]
        while stack:
            v = stack.pop()
            if not v.is_leaf:
                out.append(v)
                stack.append(v.right)
                stack.append(v.left)
    return out


def plant_metadata_damage(tree: Any, seed: int, *, sites: int = 1) -> List[str]:
    """Corrupt *derived* metadata (``n_leaves``/``height``/``summary``)
    of ``sites`` committed internal nodes.  Deterministic in ``seed``
    and — by the equivalence contract — hits the same logical nodes on
    both backends (preorder rank is backend-independent).  Every planted
    site is recompute-repairable bit-identically."""
    rng = random.Random(("at-rest-meta", seed).__repr__())
    internals = _live_internals(tree)
    flat = hasattr(tree, "root_index")
    descriptions: List[str] = []
    for _ in range(min(sites, len(internals))):
        rank = rng.randrange(len(internals))
        target = internals.pop(rank)
        fieldname = ("n_leaves", "height", "summary")[rng.randrange(3)]
        bit = rng.randrange(3)
        if fieldname == "summary" and tree.summarizer is not None:
            torn = _torn_summary(tree, flat, target)
            if flat:
                if torn == tree._summary[target]:
                    fieldname = "n_leaves"
                else:
                    tree._summary[target] = torn
            else:
                if torn == target.summary:
                    fieldname = "n_leaves"
                else:
                    target.summary = torn
        elif fieldname == "summary":
            fieldname = "n_leaves"
        if fieldname != "summary":
            if flat:
                getattr(tree, "_" + fieldname)[target] ^= 1 << bit
            else:
                setattr(
                    target, fieldname, getattr(target, fieldname) ^ (1 << bit)
                )
        label = f"slot {target}" if flat else f"node {target.nid}"
        descriptions.append(f"at-rest metadata damage: {label} {fieldname}")
    return descriptions


def plant_link_damage(tree: Any, seed: int) -> str:
    """Break one committed parent backlink (child keeps its position in
    the sibling order, but ``child.parent`` points at the grandparent).
    Downward traversal still enumerates the subtree's leaves in order,
    so this is exactly the damage class §2 randomized rebuilding can
    repair.  Deterministic in ``seed``; same logical site on both
    backends."""
    rng = random.Random(("at-rest-link", seed).__repr__())
    internals = _live_internals(tree)
    flat = hasattr(tree, "root_index")
    # Prefer an internal node that is not the root so a grandparent exists.
    candidates = [
        v
        for v in internals
        if (tree._parent[v] != _NIL if flat else v.parent is not None)
    ]
    if not candidates:
        candidates = internals
    target = candidates[rng.randrange(len(candidates))]
    if flat:
        child = tree._left[target]
        tree._parent[child] = tree._parent[target]
        return f"at-rest link damage: slot {child} parent -> grandparent"
    child = target.left
    child.parent = target.parent
    return f"at-rest link damage: node {child.nid} parent -> grandparent"
