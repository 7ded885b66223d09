"""R201 fixture: every module-level randomness form, one per line,
spelled directly and through a module alias.

Each line marked ``planted`` must give exactly one R201 finding.  Only
``Sampler.batch_draw`` is a registered entry point, so the draw in
``_jitter`` carries the call path; the rest sit off every entry closure
(an import-time statement, a free helper) and are reported at their
site.  The seeded draws are the sanctioned seam and stay silent.
"""

import os
import os.path  # binds os, which stays the os module below
import random
import random as rnd
import secrets
import secrets as sec
import uuid
import uuid as uu
from os import urandom
from random import Random, shuffle

_OFFSET = random.uniform(0.0, 1.0)  # planted: import-time draw


def _jitter():
    return random.random()  # planted: reached from batch_draw


class Sampler:
    def __init__(self, seed):
        self._rng = random.Random(seed)

    def batch_draw(self, n):
        return [self._rng.random() + _jitter() for _ in range(n)]


def entropy(items, salt=random.getrandbits(8)):  # planted: default value
    out = [random.randint(0, 9)]  # planted
    out.append(random.randbytes(4))  # planted
    out.append(random.lognormvariate(0.0, 1.0))  # planted
    out.append(random.paretovariate(2.0))  # planted
    out.append(random.weibullvariate(1.0, 2.0))  # planted
    state = random.getstate()  # planted
    random.setstate(state)  # planted
    out.append(random.Random())  # planted: unseeded
    out.append(os.urandom(8))  # planted
    out.append(secrets.token_hex(8))  # planted
    out.append(uuid.uuid4())  # planted
    shuffle(items)  # planted: from random import shuffle
    out.append(urandom(8))  # planted: from os import urandom
    out.append(Random())  # planted: from random import Random, unseeded
    out.append(Random(7).random())
    out.append(rnd.random())  # planted: import random as rnd
    rnd.shuffle(items)  # planted: through the alias
    out.append(rnd.Random())  # planted: through the alias, unseeded
    out.append(sec.token_hex(8))  # planted: import secrets as sec
    out.append(uu.uuid4())  # planted: import uuid as uu
    out.append(rnd.Random(7).random())
    return out
