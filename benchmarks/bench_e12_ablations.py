"""E12 — ablations of the design constants DESIGN.md calls out.

1. Shortcut geometry ratio ρ (the paper's 2/3): activation rounds and
   shortcut memory as ρ varies.  Smaller ρ = fewer, coarser shortcuts
   (cheaper memory, more rounds); larger ρ = denser lists.
2. Shortcuts on/off: the whole point of §2 (off = Θ(log n) walking).
3. Rebuild-probability scaling: 1/m (stationary) versus k/m for
   k ∈ {0.5, 2}: depth distortion and rebuild mass after churn, showing
   why the derived constant matters.
"""

from __future__ import annotations

import math
import random
import sys

from repro.analysis.runner import sweep
from repro.analysis.tables import Table
from repro.baselines.naive_walk import activate_by_walking, deactivate_walk
from repro.splitting.activation import activate, deactivate
from repro.splitting.rbsts import RBSTS

from _common import emit

N = 1 << 14
U = 8


def run_ratio(seed: int, ratio: float):
    tree = RBSTS(range(N), seed=seed, ratio=ratio)
    rng = random.Random(seed)
    leaves = [tree.leaf_at(i) for i in rng.sample(range(N), U)]
    res = activate(tree, leaves)
    deactivate(res)
    # shortcut memory: total list entries
    entries = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.shortcuts is not None:
            entries += len(node.shortcuts)
        if not node.is_leaf:
            stack.extend([node.left, node.right])
    return {"rounds": res.rounds_total, "entries": entries, "procs": res.processors}


class ScaledCoinRBSTS(RBSTS):
    """An RBSTS whose single-insert rebuild coin succeeds with
    probability ``scale``/m instead of 1/m.  It makes the same draws as
    the stock coin; only the threshold moves, so the split and
    adjacency draws that share the generator are untouched."""

    def __init__(self, items, *, seed: int, scale: float) -> None:
        self.scale = scale
        super().__init__(items, seed=seed)

    def _rebuild_coin(self, m: int) -> bool:
        return self._rng.random() * m < self.scale


def run_rebuild_scale(seed: int, scale: float):
    """Churn with a scaled rebuild coin; measures depth distortion."""
    rng = random.Random(seed)
    tree = ScaledCoinRBSTS(range(256), seed=seed, scale=scale)
    mass = 0
    for k in range(400):
        tree.insert(rng.randint(0, tree.n_leaves), k)
        mass += tree.last_batch_stats["rebuild_mass"]
        tree.delete(tree.leaf_at(rng.randint(0, tree.n_leaves - 1)))
        mass += tree.last_batch_stats["rebuild_mass"]
    return {"depth": tree.depth(), "mass": mass / 800}


def experiment():
    tables = []
    shape_ok = True

    t1 = Table(
        f"E12a: shortcut ratio ablation (n = {N}, |U| = {U}, mean of 3 seeds)",
        ["ratio", "activation rounds", "shortcut entries", "processors"],
    )
    ratios = [0.5, 2.0 / 3.0, 0.8]
    cells = sweep([{"ratio": r} for r in ratios], run_ratio)
    entries = []
    for cell in cells:
        t1.add(
            round(cell.params["ratio"], 3),
            cell.mean("rounds"),
            cell.mean("entries"),
            cell.mean("procs"),
        )
        entries.append(cell.mean("entries"))
    if not entries[0] < entries[1] < entries[2]:
        shape_ok = False  # denser geometry => more entries
    tables.append(t1)

    t2 = Table(
        f"E12b: shortcuts on/off (n = {N}, |U| = {U}, mean of 3 seeds)",
        ["variant", "parallel rounds"],
    )

    def run_onoff(seed: int, off: bool):
        tree = RBSTS(range(N), seed=seed)
        rng = random.Random(seed)
        leaves = [tree.leaf_at(i) for i in rng.sample(range(N), U)]
        if off:
            res = activate_by_walking(leaves)
            rounds = res.rounds
            deactivate_walk(res)
        else:
            res = activate(tree, leaves)
            rounds = res.rounds_total
            deactivate(res)
        return {"rounds": rounds}

    cells = sweep([{"off": False}, {"off": True}], run_onoff)
    on_rounds = cells[0].mean("rounds")
    off_rounds = cells[1].mean("rounds")
    t2.add("with shortcuts (Thm 2.1)", on_rounds)
    t2.add("without (parent walking)", off_rounds)
    if not on_rounds < off_rounds:
        shape_ok = False
    tables.append(t2)

    t3 = Table(
        "E12c: rebuild-coin scaling after 800 churn ops on n = 256 "
        "(mean of 3 seeds)",
        ["coin scale k (P = k/m)", "final depth", "mean rebuild mass/op"],
    )
    cells = sweep([{"scale": s} for s in (0.5, 1.0, 2.0)], run_rebuild_scale)
    for cell in cells:
        t3.add(cell.params["scale"], cell.mean("depth"), cell.mean("mass"))
    # The rebuild mass per op must grow with k.  Depth is reported, not
    # asserted: after 800 ops on 256 leaves it stays within the spread
    # of three seeds at every k.
    masses = {c.params["scale"]: c.mean("mass") for c in cells}
    if not masses[0.5] < masses[1.0] < masses[2.0]:
        shape_ok = False
    tables.append(t3)
    return tables, shape_ok


def test_e12_experiment(benchmark):
    tables, shape_ok = benchmark.pedantic(experiment, rounds=1, iterations=1)
    emit("e12_ablations", tables)
    assert shape_ok


if __name__ == "__main__":
    tables, ok = experiment()
    emit("e12_ablations", tables)
    sys.exit(0 if ok else 1)
