"""R202 coverage fixture.

None of these methods saves a pre-image, so each store is a finding;
the message says whether a pre-image could even bring the state back.
``relink`` mutates a *covered* column; ``paint`` / ``shade`` mutate a
private container outside the snapshot coverage universe.  ``demote``
stores to a node ``__slots__`` field the snapshot does not restore:
the extractor only knows the covered node fields, so that store is
invisible to R202, and the tier-1 test pinning ``BSTNode.__slots__`` to
``REFERENCE_SNAPSHOT_FIELDS`` is what catches an uncovered slot.
"""


class Node:
    __slots__ = ("left", "right", "color")


class Tree:
    def __init__(self):
        self._left = []
        self._color = []

    def relink(self, i, j):
        self._left[i] = j  # covered column, no pre-image: flagged

    def paint(self, i):
        self._color[i] = 1  # uncovered container: flagged

    def shade(self, i):
        self._color.append(i)  # uncovered container growth: flagged

    def demote(self, node):
        node.color = 1  # not a known node field: no atom
