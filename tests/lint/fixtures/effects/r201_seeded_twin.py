"""R201 clean twin of r201_randomness: each randomness form drawn from
a seeded instance instead of the process-global RNG.

Every draw here is a sanctioned ``rng`` atom, so R201 must stay silent
on the whole module, entry closure included.
"""

import random
from random import Random

_SEED_RNG = random.Random(0)
_OFFSET = _SEED_RNG.uniform(0.0, 1.0)


class SeededSampler:
    def __init__(self, seed):
        self._rng = random.Random(seed)

    def _jitter(self):
        return self._rng.random()

    def batch_draw(self, n):
        return [self._rng.random() + self._jitter() for _ in range(n)]


def seeded_entropy(items, seed):
    rng = random.Random(seed)
    out = [rng.randint(0, 9)]
    out.append(rng.randbytes(4))
    out.append(rng.lognormvariate(0.0, 1.0))
    out.append(rng.paretovariate(2.0))
    out.append(rng.weibullvariate(1.0, 2.0))
    state = rng.getstate()
    rng.setstate(state)
    out.append(random.Random(seed + 1))
    rng.shuffle(items)
    out.append(Random(seed).random())
    return out
