"""Fault-tolerant execution layer for the paper's machinery (PR 5).

The repo can *detect* every failure class it knows about — planted code
bugs (:mod:`repro.testing.planted`), mid-batch crashes with bit-for-bit
rollback (:mod:`repro.transactions`), and step-discipline races
(:mod:`repro.pram.sanitizer`).  This package makes runs *survive* them:

``faults``
    Seeded, deterministic runtime fault injection: fail-stop processor
    death, lost forks and induced hangs inside
    :class:`~repro.pram.machine.Machine` rounds, plus shared-memory and
    tree-column corruption (bit-flips, torn writes, stale-epoch cells).

``scrub``
    Integrity scanner + localized repair over both RBSTS backends.
    Derived-metadata damage is recomputed bit-identically; structural
    damage is rebuilt through the paper's §2 randomized-rebuild path on
    the smallest damaged subtree, with cost proportional to the damage.

``executor``
    :class:`ResilientExecutor` — batch-granular checkpoints (reusing the
    transaction journals), failure detection (``check_invariants`` +
    scrub + :class:`~repro.errors.MachineHangError` hang detection),
    bounded deterministic retry with simulated exponential backoff, and
    a graceful degradation ladder flat → reference → sequential oracle
    with recorded :class:`DegradationEvent`\\ s.

``harness``
    End-to-end recovery fuzzing (the ``recovery`` exercise of
    ``python -m repro.testing.fuzz``): seeded programs race injected
    faults against recovery and every batch must (a) complete
    identically to the fault-free oracle (RNG parity included), (b)
    complete on a lower ladder rung with oracle-identical answers, or
    (c) abort with the pre-batch state restored bit-for-bit.
"""

from .executor import (
    DegradationEvent,
    ResiliencePolicy,
    ResilientExecutor,
    ResilientListSession,
)
from .faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultyMachine,
    FaultySharedMemory,
)
from .harness import (
    ResilienceReport,
    policy_for_seed,
    pram_sum,
    run_resilience_program,
)
from .scrub import RepairReport, ScrubReport, repair, scrub

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultyMachine",
    "FaultySharedMemory",
    "DegradationEvent",
    "ResiliencePolicy",
    "ResilientExecutor",
    "ResilientListSession",
    "ResilienceReport",
    "RepairReport",
    "ScrubReport",
    "policy_for_seed",
    "pram_sum",
    "repair",
    "run_resilience_program",
    "scrub",
]
