"""Model-based differential fuzzing and invariant auditing.

The correctness-tooling layer that lets perf/sharding PRs churn the
core without fear (ROADMAP north star): a deterministic operation
-sequence generator drives the full public API — RBSTS build / batch
insert / delete, relabels, prefix and range queries, activation, and
dynamic contraction requests — on one or both backends
(``backend="reference"`` / ``backend="flat"``), cross-checked after
every operation against

* a naive recompute model (``baselines.SequentialList`` /
  ``ExprTree.evaluate``),
* the sequential comparators in :mod:`repro.baselines`,
* the twin backend in lockstep (shape, summaries, shortcut lists,
  batch statistics, RNG-consumption parity),
* the structures' own :meth:`check_invariants` audits.

A failing sequence is minimised by :mod:`repro.testing.shrinker` and
written to the replayable corpus under ``tests/corpus/`` so it becomes
a permanent regression test.  The whole pipeline is self-verified by
:mod:`repro.testing.faults`, which flips known bookkeeping updates and
asserts the fuzzer finds and shrinks them (``--self-test``).

Crash-consistency (PR 3): :mod:`repro.testing.crashes` raises
:class:`~repro.testing.crashes.CrashInjected` at seeded random
interior points of every transactional batch
(``run_sequence(..., crash_seed=N)``), audits that the journal rolled
the structure back bit-for-bit (oracle phase ``rollback``: shape
signature, master-RNG state, ``last_batch_stats``, self-invariants),
then re-applies the batch cleanly so the rest of the program still
runs on the crash-free trajectory.  Journal faults in
:mod:`repro.testing.faults` (``needs_crash=True``) self-verify that
this oracle actually watches the rollback path.

Entry point::

    PYTHONPATH=src python -m repro.testing.fuzz --seed 0 --ops 2000 --backend both
    PYTHONPATH=src python -m repro.testing.fuzz --scenario list --crash-seed 0 --runs 200

See TESTING.md for the workflow and DESIGN.md §6/§7 for the mapping
from audited invariants to the paper's theorems (2.1–2.3, 3.1).
"""

from .crashes import CrashController, CrashInjected, crash_points
from .executor import FailureInfo, OracleViolation, RunReport, run_sequence
from .generator import generate
from .ops import OpSequence
from .shrinker import shrink

__all__ = [
    "CrashController",
    "CrashInjected",
    "FailureInfo",
    "OpSequence",
    "OracleViolation",
    "RunReport",
    "crash_points",
    "generate",
    "run_sequence",
    "shrink",
]
