"""Planted R202 violations: resilience-style repair helpers that
rewrite another object's backend cells without saving a pre-image.
The ``good_*`` twins save one (``journal.save_slot``) or open a
transaction (``tree._txn_begin``)."""

__all__ = ["bad_recompute", "good_recompute", "Repairer"]


def bad_recompute(tree, node, value):  # planted: unjournaled column store
    tree._n_leaves[node] = value


def good_recompute(tree, journal, node, value):  # clean: saves the pre-image
    journal.save_slot(tree, node)
    tree._n_leaves[node] = value


class Repairer:
    def bad_relink(self, child, grandparent):  # planted: node store
        child.parent = grandparent

    def good_relink(self, tree, child, grandparent):  # clean: opens a txn
        journal = tree._txn_begin()
        child.parent = grandparent
        tree._txn_commit(journal)
