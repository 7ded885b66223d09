"""Planted R202 violations: interior mutations that save no pre-image.

Each method is registered as its own entry point by the fixture test.
``reseed`` mentions the journal seam but only saves the RNG, so its
column store is as unjournaled as ``splice``'s."""

__all__ = ["Tree"]


class Tree:
    def __init__(self):
        self._left = []
        self._right = []
        self._journal = None

    def splice(self, a, b):  # planted: unjournaled column store
        self._left[a] = b
        self._right[b] = a

    def grow(self):  # planted: unjournaled column append
        self._left.append(-1)
        self._right.append(-1)

    def relink(self, node, child):  # planted: unjournaled node store
        node.left = child

    def guarded(self, a, b):  # clean: saves the pre-image first
        self._journal.record(a)
        self._left[a] = b

    def reseed(self, i):  # planted: save_rng saves no slot
        self._journal.save_rng(self)
        self._left[i] = -1
