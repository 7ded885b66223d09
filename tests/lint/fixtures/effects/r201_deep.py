"""R201 fixture: nondeterminism hidden two calls below the entry.

``Store.batch_put`` itself is clean — the module-level RNG draw sits in
``_shuffle``, reached only via ``_plan`` — so the finding must name the
whole call path from the entry, not just the site.
"""

import random


def _shuffle(items):
    random.shuffle(items)
    return items


def _plan(items):
    return _shuffle(list(items))


class Store:
    def __init__(self, seed):
        self._rng = random.Random(seed)
        self._data = {}

    def batch_put(self, pairs):
        for k, v in _plan(list(pairs)):
            self._data[k] = v
        return len(pairs)
