"""Theorem 2.1 as an instruction-level CRCW PRAM program.

The round-faithful direct implementation lives in activation.py; this
module re-implements the same two-stage procedure as generator programs
executed by :class:`~repro.pram.Machine`, so that the reported cost is
the machine's own synchronous step count — no hand-charged spans.  E1
cross-validates the two implementations.

One deliberate variant (documented in DESIGN.md): the machine version
*always forks* at a shortcut boundary instead of deduplicating
processors per node with ``ACTIVE`` flags.  Each fork carries its own
explicit depth range, so there is no cross-processor coverage handoff
to synchronise; per-leaf processor count stays ``O(log n / θ)`` and the
total matches the theorem's ``O(|U| log n / log(|U| log n))`` bound.
(The direct implementation realises the paper's per-node deduplication
with CRCW MIN-combining ``low`` cells.)

Memory layout (host-poked before the run):

* ``("parent", nid)``   — parent node id, or ``None`` for the root;
* ``("depth", nid)``    — node depth;
* ``("scd", nid)``      — tuple of shortcut depths, or ``None``;
* ``("scn", nid)``      — tuple of shortcut node ids, or ``None``;
* ``("active", nid)``   — the ACTIVE flag the programs mark.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Set

from ..pram.machine import Machine
from ..pram.memory import WritePolicy
from ..pram.metrics import Metrics
from ..pram.ops import Fork, Read, Write
from .node import BSTNode
from .rbsts import RBSTS

__all__ = ["PRAMActivationResult", "activate_on_machine"]


@dataclass
class PRAMActivationResult:
    activated_ids: Set[int]
    metrics: Metrics


def _splitter(nid: int, lo: int, theta: int):
    """Cover depths ``[lo, depth(nid)]`` of nid's root path."""
    d = yield Read(("depth", nid))
    scd = yield Read(("scd", nid))
    scn = yield Read(("scn", nid))
    if scd is None:
        # Defensive fallback: no shortcut list — walk the whole range.
        l = lo
    else:
        p = max(0, bisect_right(scd, lo) - 1)
        l = scd[p]
        while d - l > theta and p + 1 < len(scd):
            w = scn[p + 1]
            yield Write(("active", w), 1)
            yield Fork(_splitter(w, l, theta))
            p += 1
            l = scd[p]
    # Residual walk: mark depths [l, d] on the root path.
    cur = nid
    yield Write(("active", cur), 1)
    dcur = d
    while dcur > l:
        cur = yield Read(("parent", cur))
        yield Write(("active", cur), 1)
        dcur -= 1


def _walker(leaf: int, theta: int):
    """Stage 1: climb to the first shortcut-bearing node, marking."""
    nid = leaf
    yield Write(("active", nid), 1)
    while True:
        scd = yield Read(("scd", nid))
        if scd is not None:
            break
        parent = yield Read(("parent", nid))
        if parent is None:
            return  # reached (and marked) the root
        was = yield Read(("active", parent))
        yield Write(("active", parent), 1)
        nid = parent
        if was:
            return  # shared path: an earlier walker owns the rest
    yield Fork(_splitter(nid, 0, theta))


def activate_on_machine(
    tree: RBSTS,
    leaves: Sequence[BSTNode],
    *,
    max_processors: int = 1_000_000,
) -> PRAMActivationResult:
    """Run the activation program on a fresh machine; returns the set of
    node ids marked ACTIVE plus the machine's metrics."""
    n = max(2, tree.n_leaves)
    theta = max(1, math.ceil(math.log2(max(2.0, len(leaves) * math.log2(n)))))
    # Walkers and splitters mark ACTIVE concurrently under MAX, and a
    # walker may read a flag another processor sets in the same step.
    # The flag is monotone (0 -> 1), so every interleaving commits the
    # same memory: the race is the algorithm (Theorem 2.1), declared
    # here for the step-discipline sanitizer.
    machine = Machine(
        policy=WritePolicy.MAX,
        max_processors=max_processors,
        sanctioned=("active",),
    )
    mem = machine.memory
    # Host-poke the tree image.
    stack: List[BSTNode] = [tree.root]
    while stack:
        node = stack.pop()
        mem.poke(("parent", node.nid), node.parent.nid if node.parent else None)
        mem.poke(("depth", node.nid), node.depth)
        if node.shortcuts is not None:
            mem.poke(("scd", node.nid), tuple(s.depth for s in node.shortcuts))
            mem.poke(("scn", node.nid), tuple(s.nid for s in node.shortcuts))
        else:
            mem.poke(("scd", node.nid), None)
            mem.poke(("scn", node.nid), None)
        if not node.is_leaf:
            stack.append(node.left)  # type: ignore[arg-type]
            stack.append(node.right)  # type: ignore[arg-type]
    for leaf in leaves:
        machine.spawn(_walker(leaf.nid, theta))
    metrics = machine.run()
    activated = {
        addr[1]
        for addr, value in mem.snapshot().items()
        if addr[0] == "active" and value
    }
    return PRAMActivationResult(activated_ids=activated, metrics=metrics)
