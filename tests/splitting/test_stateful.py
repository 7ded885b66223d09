"""Hypothesis stateful testing: the RBSTS against a plain-list model
through arbitrary interleavings of every public operation."""

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
from repro.algebra.rings import INTEGER
from repro.baselines.sequential_list import SequentialList
from repro.splitting.activation import activate, ancestors_closure, deactivate
from repro.splitting.build import Summarizer
from repro.splitting.rbsts import RBSTS


class RBSTSMachine(RuleBasedStateMachine):
    @initialize(
        items=st.lists(st.integers(-50, 50), min_size=1, max_size=20),
        seed=st.integers(0, 1000),
    )
    def setup(self, items, seed):
        self.oracle = SequentialList(sum_monoid(INTEGER), items)
        self.tree = RBSTS(
            items,
            seed=seed,
            summarizer=Summarizer(sum_monoid(INTEGER), lambda x: x),
        )
        self.ops = 0

    @property
    def model(self):
        return self.oracle.values()

    @rule(data=st.data(), value=st.integers(-50, 50))
    def insert_single(self, data, value):
        pos = data.draw(st.integers(0, len(self.model)))
        self.tree.insert(pos, value)
        self.oracle.insert(pos, value)
        self.ops += 1

    @rule(data=st.data())
    @precondition(lambda self: len(self.model) > 1)
    def delete_single(self, data):
        pos = data.draw(st.integers(0, len(self.model) - 1))
        item = self.tree.delete(self.tree.leaf_at(pos))
        assert item == self.oracle.delete(pos)
        self.ops += 1

    @rule(data=st.data())
    def batch_insert(self, data):
        k = data.draw(st.integers(1, 4))
        reqs = [
            (data.draw(st.integers(0, len(self.model))), data.draw(st.integers(-50, 50)))
            for _ in range(k)
        ]
        self.tree.batch_insert(reqs)
        self.oracle.batch_insert(reqs)
        self.ops += 1

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
        self.tree.batch_delete([self.tree.leaf_at(i) for i in idxs])
        self.oracle.batch_delete(idxs)
        self.ops += 1

    @rule(data=st.data(), value=st.integers(-50, 50))
    def update_value(self, data, value):
        pos = data.draw(st.integers(0, len(self.model) - 1))
        self.tree.update_leaf_item(self.tree.leaf_at(pos), value)
        self.oracle.batch_set([(pos, value)])

    @rule(data=st.data())
    def activate_some(self, data):
        k = data.draw(st.integers(1, min(4, len(self.model))))
        idxs = data.draw(
            st.lists(
                st.integers(0, len(self.model) - 1),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
        leaves = [self.tree.leaf_at(i) for i in idxs]
        res = activate(self.tree, leaves)
        assert res.node_set() == ancestors_closure(leaves)
        deactivate(res)

    @invariant()
    def sequence_matches_model(self):
        if not hasattr(self, "model"):
            return
        assert [l.item for l in self.tree.leaves()] == self.model
        assert self.tree.root.summary == sum(self.model)

    @invariant()
    def structure_is_valid(self):
        if not hasattr(self, "model"):
            return
        self.tree.check_invariants()


TestRBSTSStateful = RBSTSMachine.TestCase
TestRBSTSStateful.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
