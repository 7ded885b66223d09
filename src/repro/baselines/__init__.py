"""Comparators: the algorithms the paper improves upon."""

from .linkcut import LinkCutForest
from .naive_walk import WalkActivationResult, activate_by_walking, deactivate_walk
from .recompute import RecomputeBaseline
from .sequential import SequentialContraction
from .sequential_list import SequentialList

#: Pluggable oracle registry for the fuzzing executor
#: (:mod:`repro.testing.executor`).  Each entry maps a ``--oracle`` name
#: to a comparator class taking ``(tree, **kwargs)``.
CONTRACTION_ORACLES = {
    "recompute": RecomputeBaseline,
    "sequential": SequentialContraction,
}

__all__ = [
    "LinkCutForest",
    "activate_by_walking",
    "deactivate_walk",
    "WalkActivationResult",
    "RecomputeBaseline",
    "SequentialContraction",
    "SequentialList",
    "CONTRACTION_ORACLES",
]
