"""The operation model shared by generator, executor, shrinker, corpus.

An :class:`OpSequence` is a *closed* description of a fuzzing run: the
scenario, the structure seed, the initial size, the ring, and a list of
JSON-encodable operations.  Operations carry **raw** non-negative
integers for positions, node slots and values; the executor normalises
them against the live structure (positions modulo the current length,
values into the ring's canonical range, slots modulo the candidate
list).  Because normalisation happens at execution time, *every*
subsequence of a valid program is itself a valid program — which is
what makes delta-debugging shrinks trivially sound.

List-scenario op encodings (positions/values are raw ints)::

    ["ins", pos, val]          single insert (Theorem 2.2 walk)
    ["del", pos]               single delete (Theorem 2.3 walk)
    ["bins", [[pos, val], ..]] batch insert (parallel coins)
    ["bdel", [pos, ..]]        batch delete
    ["bset", [[pos, val], ..]] batch relabel (summary maintenance, §3)
    ["prefix", [pos, ..]]      batch prefix query (Theorem 3.1)
    ["range", a, b]            range fold
    ["activate", [pos, ..]]    processor activation (Theorem 2.1)

Contraction-scenario ops are heterogeneous §1.3 batches::

    ["cbatch", [req, ..]]  with req one of
        ["grow", slot, opk, lval, rval]
        ["prune", slot, val]
        ["setv", slot, val]
        ["setop", slot, opk]
        ["query", slot]

(``opk`` 0 = add, 1 = mul; slots index deterministic candidate lists.)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List
from ..errors import InvalidParameterError

from ..algebra.rings import BOOLEAN, INTEGER, Ring, modular_ring

__all__ = [
    "FUZZ_RINGS",
    "LIST_OP_KINDS",
    "CONTRACTION_OP_KINDS",
    "OpSequence",
    "norm_value",
]

#: Rings the fuzzer drives (hypothesis covers the exotic ones).
#: ``boolean`` is non-numeric on purpose: its ``add``/``mul`` are
#: ``or``/``and`` with no NumPy mapping (see
#: ``repro.perf.kernels.vector_ring_for``), so corpus replay keeps the
#: label rules pinned on a ring that is not array arithmetic.
FUZZ_RINGS: Dict[str, Ring] = {
    "integer": INTEGER,
    "mod97": modular_ring(97),
    "boolean": BOOLEAN,
}

LIST_OP_KINDS = (
    "ins",
    "del",
    "bins",
    "bdel",
    "bset",
    "prefix",
    "range",
    "activate",
)
CONTRACTION_OP_KINDS = ("grow", "prune", "setv", "setop", "query")


def norm_value(ring_name: str, raw: int) -> Any:
    """Map a raw non-negative integer into a small canonical ring element."""
    if ring_name == "mod97":
        return int(raw) % 97
    if ring_name == "boolean":
        return (int(raw) & 1) == 1
    # integer: small signed values, zero reachable (shrinker target).
    return (int(raw) % 101) - 50


@dataclass
class OpSequence:
    """A replayable fuzzing program (JSON round-trippable)."""

    scenario: str  # "list" | "contraction"
    seed: int  # structure seed (RBSTS / builder randomness)
    n0: int  # initial leaf count (>= 2)
    ring: str = "integer"
    ops: List[list] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scenario not in ("list", "contraction"):
            raise InvalidParameterError(f"unknown scenario {self.scenario!r}")
        if self.ring not in FUZZ_RINGS:
            raise InvalidParameterError(f"unknown fuzz ring {self.ring!r}")
        self.n0 = max(2, int(self.n0))

    # -- structural edits used by the shrinker ---------------------------
    def with_ops(self, ops: List[list]) -> "OpSequence":
        return replace(self, ops=list(ops), meta=dict(self.meta))

    def with_n0(self, n0: int) -> "OpSequence":
        return replace(self, n0=max(2, int(n0)), meta=dict(self.meta))

    @property
    def size(self) -> int:
        """Shrinking metric: ops plus batch payload entries."""
        total = 0
        for op in self.ops:
            total += 1
            for part in op[1:]:
                if isinstance(part, list):
                    total += max(0, len(part) - 1)
        return total

    # -- JSON round trip --------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "n0": self.n0,
            "ring": self.ring,
            "ops": self.ops,
            "meta": self.meta,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "OpSequence":
        return cls(
            scenario=data["scenario"],
            seed=int(data["seed"]),
            n0=int(data["n0"]),
            ring=data.get("ring", "integer"),
            ops=[list(op) for op in data["ops"]],
            meta=dict(data.get("meta", {})),
        )

    @classmethod
    def loads(cls, text: str) -> "OpSequence":
        return cls.from_json(json.loads(text))

    def describe(self) -> str:
        kinds: Dict[str, int] = {}
        for op in self.ops:
            kinds[op[0]] = kinds.get(op[0], 0) + 1
        mix = ", ".join(f"{k}x{v}" for k, v in sorted(kinds.items()))
        return (
            f"{self.scenario}(seed={self.seed}, n0={self.n0}, "
            f"ring={self.ring}, {len(self.ops)} ops: {mix or 'none'})"
        )
