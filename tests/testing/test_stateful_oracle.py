"""Hypothesis stateful test (ISSUE satellite a): arbitrary interleavings
of batch inserts / deletes / relabels on :class:`IncrementalListPrefix`
against a naive-recompute oracle (a ``SequentialList`` + ``itertools``
prefix folds), with both backends driven in lockstep.

Reuses the shared ring strategies from ``tests/conftest.py``.
"""

from __future__ import annotations

import itertools

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.algebra.monoid import sum_monoid
from repro.baselines.sequential_list import SequentialList
from repro.listprefix.structure import IncrementalListPrefix
from repro.testing.oracles import assert_twins

from tests.conftest import RINGS, ring_elements

RING_NAME = "mod97"
RING = RINGS[RING_NAME]
elements = ring_elements(RING_NAME)


class ListPrefixOracleMachine(RuleBasedStateMachine):
    """Differential: reference + flat subjects vs the naive model."""

    @initialize(
        items=st.lists(elements, min_size=1, max_size=16),
        seed=st.integers(0, 1000),
    )
    def setup(self, items, seed):
        self.monoid = sum_monoid(RING)
        self.oracle = SequentialList(self.monoid, items)
        self.subjects = {
            name: IncrementalListPrefix(
                self.monoid, items, seed=seed, backend=name
            )
            for name in ("reference", "flat")
        }

    @property
    def model(self):
        return self.oracle.values()

    # -- updates ---------------------------------------------------------
    @rule(data=st.data())
    def batch_insert(self, data):
        k = data.draw(st.integers(1, 4))
        reqs = [
            (data.draw(st.integers(0, len(self.model))), data.draw(elements))
            for _ in range(k)
        ]
        for lp in self.subjects.values():
            lp.batch_insert(reqs)
        self.oracle.batch_insert(reqs)

    @rule(data=st.data())
    @precondition(lambda self: len(self.model) > 3)
    def batch_delete(self, data):
        k = data.draw(st.integers(1, min(3, len(self.model) - 1)))
        idxs = data.draw(
            st.lists(
                st.integers(0, len(self.model) - 1),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
        for lp in self.subjects.values():
            lp.batch_delete([lp.handle_at(i) for i in idxs])
        self.oracle.batch_delete(idxs)

    @rule(data=st.data())
    def batch_relabel(self, data):
        k = data.draw(st.integers(1, min(4, len(self.model))))
        idxs = data.draw(
            st.lists(
                st.integers(0, len(self.model) - 1),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
        vals = [data.draw(elements) for _ in idxs]
        for lp in self.subjects.values():
            lp.batch_set(
                [(lp.handle_at(i), v) for i, v in zip(idxs, vals)]
            )
        self.oracle.batch_set(list(zip(idxs, vals)))

    # -- queries (differential against the naive recompute) --------------
    @rule(data=st.data())
    def batch_prefix_query(self, data):
        k = data.draw(st.integers(1, min(4, len(self.model))))
        idxs = data.draw(
            st.lists(
                st.integers(0, len(self.model) - 1),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
        expect = list(itertools.accumulate(self.model, self.monoid.combine))
        for name, lp in self.subjects.items():
            got = lp.batch_prefix([lp.handle_at(i) for i in idxs])
            for i, g in zip(idxs, got):
                assert RING.eq(g, expect[i]), (
                    f"{name}: prefix[{i}] = {g!r} != {expect[i]!r}"
                )

    @rule(data=st.data())
    @precondition(lambda self: len(self.model) >= 2)
    def range_query(self, data):
        i = data.draw(st.integers(0, len(self.model) - 2))
        j = data.draw(st.integers(i, len(self.model) - 1))
        expect = self.oracle.range_fold(i, j)
        for name, lp in self.subjects.items():
            got = lp.range_fold(lp.handle_at(i), lp.handle_at(j))
            assert RING.eq(got, expect), f"{name}: range[{i},{j}]"

    # -- invariants ------------------------------------------------------
    @invariant()
    def subjects_match_model(self):
        if not hasattr(self, "model"):
            return
        for name, lp in self.subjects.items():
            assert lp.values() == self.model, name
            assert RING.eq(lp.total(), self.monoid.fold(self.model)), name
            lp.check_invariants()

    @invariant()
    def backends_are_twins(self):
        if not hasattr(self, "model"):
            return
        assert_twins(
            self.subjects["reference"].tree,
            self.subjects["flat"].tree,
            where="stateful",
        )


TestListPrefixOracle = ListPrefixOracleMachine.TestCase
TestListPrefixOracle.settings = settings(
    max_examples=20, stateful_step_count=15, deadline=None
)
