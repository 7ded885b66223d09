"""The §2 construction lemma for the flat backend: every tree that
``FlatRBSTS.__init__`` builds passes the full invariant walk.

The constructor vouches for its tree (``_audited`` is set), so the
first supervised write on a fresh tree audits only its dirty region
(``FlatRBSTS.check_invariants``).  This file is the evidence behind
that vouch: plain trees and summarized ones, every size up to 300
leaves and the sizes around 2^12 (the shortcut threshold's step), and
the trees ``IncrementalListPrefix(backend="flat")`` and a serving
``Shard`` build.
"""

from __future__ import annotations

import pytest

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.listprefix.structure import IncrementalListPrefix
from repro.perf.flat_rbsts import FlatRBSTS
from repro.resilience.executor import ResiliencePolicy
from repro.serve.requests import ServePolicy
from repro.serve.shard import Shard
from repro.splitting.build import Summarizer

MONOID = sum_monoid(INTEGER)
SEEDS = (0, 1, 2)
SIZES = list(range(1, 301)) + [4095, 4096, 4097]


def _fresh_tree_is_vouched_and_valid(tree):
    assert tree._audited, "the constructor did not vouch for its tree"
    tree._check_all()


@pytest.mark.parametrize("summarized", [False, True], ids=["plain", "summarized"])
@pytest.mark.parametrize("seed", SEEDS)
def test_every_fresh_tree_passes_the_full_walk(seed, summarized):
    for n in SIZES:
        summarizer = Summarizer(MONOID, lambda x: x) if summarized else None
        tree = FlatRBSTS(range(n), seed=seed, summarizer=summarizer)
        assert tree.n_leaves == n
        _fresh_tree_is_vouched_and_valid(tree)


@pytest.mark.parametrize("seed", SEEDS)
def test_list_prefix_and_shard_trees_pass_the_full_walk(seed):
    policy = ServePolicy(resilience=ResiliencePolicy(ladder=("flat",)))
    for n in (1, 2, 3, 64, 300, 4096):
        lp = IncrementalListPrefix(MONOID, range(n), seed=seed, backend="flat")
        _fresh_tree_is_vouched_and_valid(lp.tree)
        shard = Shard(0, MONOID, range(1, n + 1), seed=seed, policy=policy)
        assert shard.session.rung == "flat"
        _fresh_tree_is_vouched_and_valid(shard.session._structure.tree)
