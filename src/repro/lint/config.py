"""Registered entry points and allowlists for the effects pass.

Everything a rule exempts lives here, with a justification string, so
"why is this allowed?" is answerable by reading one file — and adding a
new exemption is a reviewable diff, not a scattered pragma.

Paths are repo-root-relative with forward slashes (matching
:attr:`repro.lint.effects.model.ModuleSummary.relpath`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Tuple

from ..snapshots.core import FLAT_SNAPSHOT_COLUMNS, REFERENCE_SNAPSHOT_FIELDS

__all__ = [
    "EffectEntry",
    "LintConfig",
    "REPO_CONFIG",
]


# ---------------------------------------------------------------------------
# R201, R202, R204 — batch entry points and justified exemptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectEntry:
    """One public batch entry point the R2xx closure checks start from.

    Entry resolution follows the inheritance component, so the closure
    includes every override the dynamic dispatch could reach.  ``rules``
    masks which checks apply — the contraction entries run R201 only,
    because the rake-tree's ``RTNode`` reuses the ``left``/``right``/
    ``parent`` slot names without being snapshot-covered state
    (admission-only by design, DESIGN.md §7), which would make every R202
    path report a non-restorable mutation by name collision.
    """

    path: str
    class_name: str
    method: str
    rules: Tuple[str, ...] = ("R201", "R202")


def _rbsts_entries(path: str, cls: str) -> Tuple[EffectEntry, ...]:
    return tuple(
        EffectEntry(path, cls, m)
        for m in ("batch_insert", "batch_delete", "batch_update_items")
    )


EFFECT_ENTRY_POINTS: Tuple[EffectEntry, ...] = (
    _rbsts_entries("src/repro/splitting/rbsts.py", "RBSTS")
    + _rbsts_entries("src/repro/perf/flat_rbsts.py", "FlatRBSTS")
    + tuple(
        EffectEntry("src/repro/listprefix/structure.py", "IncrementalListPrefix", m)
        for m in ("batch_set", "batch_insert", "batch_delete")
    )
    + tuple(
        EffectEntry(
            "src/repro/contraction/dynamic.py",
            "DynamicTreeContraction",
            m,
            rules=("R201",),
        )
        for m in (
            "batch_set_leaf_values",
            "batch_set_ops",
            "batch_grow",
            "batch_prune",
            "apply_requests",
        )
    )
    + tuple(
        EffectEntry("src/repro/resilience/executor.py", "ResilientListSession", m)
        for m in ("batch_insert", "batch_delete", "batch_set")
    )
    # -- repro.serve (PR 10): the serving layer's decision paths must be
    # as replayable as the structures they drive.  execute_window is the
    # whole batch-apply path (admission, retry-budget, quarantine,
    # breaker) and runs R201 only: its mutations are queue/stats/breaker
    # bookkeeping on the shard object, not snapshot-covered tree state —
    # the tree mutations all happen below _apply_admitted, which gets
    # the full R201+R202 treatment, as does the quarantine prober (its
    # probes subscript the same columns the snapshot layer restores).
    # read is the pinned-read path: deterministic, and it may write no
    # slab column a snapshot could not restore (pinning joins the stack).
    + (
        EffectEntry(
            "src/repro/serve/shard.py", "Shard", "execute_window",
            rules=("R201",),
        ),
        EffectEntry("src/repro/serve/shard.py", "Shard", "_apply_admitted"),
        EffectEntry("src/repro/serve/quarantine.py", "", "quarantine_bisect"),
        EffectEntry("src/repro/serve/shard.py", "Shard", "read"),
    )
)

#: PRAM simulation state is per-attempt scratch: pram_sum constructs a
#: fresh FaultyMachine inside each supervised attempt, so a rolled-back
#: attempt discards the whole machine and the retry rebuilds it.
#: Nothing inside a transaction region outlives the attempt (R204); no
#: batch entry hands the supervised sum to the executor, so R202 never
#: reaches it.
_PER_ATTEMPT_MACHINE: Dict[str, str] = {
    "src/repro/pram/machine.py::Machine.spawn": (
        "mutates the process table of a machine constructed inside "
        "the supervised attempt itself; retry rebuilds the machine"
    ),
    "src/repro/pram/memory.py::SharedMemory.commit": (
        "EREW/CRCW staging buffers of a per-attempt machine; "
        "discarded wholesale with the machine on rollback"
    ),
    "src/repro/resilience/faults.py::FaultySharedMemory.commit": (
        "fault-injecting subclass of SharedMemory.commit; same "
        "per-attempt-machine argument"
    ),
}

#: ``resilience/faults.py`` is the attacker: its whole point is
#: unjournaled corruption (in-batch damage targets cells the open
#: journal already saved; at-rest damage is scrub-and-repair's diet).
_ATTACKER = (
    "faults.py is the attacker: its in-batch damage targets only cells "
    "the open journal already saved, so rollback restores them"
)

#: rule -> (owning ``path::qualname`` -> justification).  The effects
#: pass drops a finding when the function *performing* the effect is
#: registered here; keying by owner (not entry) means one entry covers
#: every entry point whose closure reaches the same helper.
EFFECT_ALLOWLIST: Dict[str, Dict[str, str]] = {
    "R202": {
        "src/repro/perf/flat_rbsts.py::FlatRBSTS.handle": (
            "lazy interning-cache fill (slot -> FlatLeaf) on the "
            "post-commit return path; idempotent and derivable, not "
            "structural state a rollback needs"
        ),
        "src/repro/splitting/build.py::build_subtree": (
            "reused leaves are saved by RBSTS._rebuild_at's "
            "record_rebuild before the build; internal nodes come from "
            "new_node and are created this operation"
        ),
        "src/repro/perf/flat_rbsts.py::FlatRBSTS._build": (
            "leaf slots are saved by _rebuild_at's save_slots before the "
            "build; internal slots come from _alloc_internals, which "
            "saves recycled slots and appends fresh ones (bulk "
            "construction from __init__ runs before any transaction)"
        ),
        "src/repro/splitting/rbsts.py::RBSTS._batch_insert_core": (
            "payload stores target leaves created this batch (no "
            "pre-image to journal); structural splices run inside "
            "_rebuild_at, which journals"
        ),
        "src/repro/perf/flat_rbsts.py::FlatRBSTS._batch_insert_core": (
            "payload stores target slots _alloc_internals handed out "
            "this batch (saved when recycled, fresh otherwise); "
            "structural splices run inside _rebuild_at, which journals"
        ),
        "src/repro/resilience/faults.py::_corrupt_flat": _ATTACKER,
        "src/repro/resilience/faults.py::_corrupt_reference": _ATTACKER,
    },
    "R204": {
        "src/repro/resilience/executor.py::ResilientExecutor._heal": (
            "repair failure is deliberately absorbed: the supervisor's "
            "bounded retry (or the degradation ladder) handles state "
            "that cannot be healed in place; the open checkpoint still "
            "rewinds everything the failed repair touched"
        ),
        **_PER_ATTEMPT_MACHINE,
        # -- outcome-classification boundaries: each of these handlers
        # is the last stop of a differential/fuzz/resilience harness
        # whose *job* is to turn any escape (taxonomy included) into a
        # recorded verdict instead of a crash.
        "src/repro/resilience/harness.py::run_resilience_program": (
            "converts an unexpected escape into a failing "
            "ResilienceReport entry — a resilience bug must be "
            "reported by the harness, not crash it"
        ),
        "src/repro/testing/fuzz.py::_verdict": (
            "the fuzz driver classifies every exercise run and corpus "
            "replay; a raising case (taxonomy included) is a red "
            "verdict, not a driver abort"
        ),
        "src/repro/testing/executor.py::run_sequence": (
            "the differential executor classifies construction and "
            "per-op failures into verdicts for shrinking"
        ),
        # -- repro.serve (PR 10): the serving layer's contract is that
        # NO payload crashes the service — every escape becomes a typed
        # Response.  Each handler below is such a boundary; the chaos
        # gate's exactly-once/oracle audits are what prove they never
        # misclassify a committed batch.
        "src/repro/serve/quarantine.py::_Prober.probe": (
            "outcome-classification boundary: a probe's only question "
            "is pass/fail — ANY escape (taxonomy included) means the "
            "subset must not commit, and the probe txn is rolled back "
            "unconditionally in the finally"
        ),
        "src/repro/serve/shard.py::Shard.execute_window": (
            "outcome-classification boundary: the phase-apply triage "
            "turns admission mismatches into rejections, exhausted "
            "retries into failed responses, and any other escape into "
            "the quarantine path — a window must answer every request, "
            "never crash the shard worker"
        ),
        "src/repro/serve/shard.py::Shard._quarantine": (
            "outcome-classification boundary: a good-subset re-commit "
            "that fails after bisection downgrades the subset to "
            "failed responses (the supervisor already rolled back); "
            "raising would crash the worker with responses unsent"
        ),
        "src/repro/serve/chaos.py::run_chaos": (
            "the chaos harness's invariant audit records a failing "
            "shard as a red report entry — a robustness bug must be "
            "reported by the gate, not crash it (run_resilience_program "
            "precedent)"
        ),
    },
}


# ---------------------------------------------------------------------------
# the bundle the effects pass receives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LintConfig:
    #: R001: builtin exceptions a raise site may not use.  TypeError,
    #: AssertionError and NotImplementedError stay allowed: they signal
    #: programming errors the taxonomy deliberately never wraps.
    forbidden_builtins: FrozenSet[str] = frozenset(
        "Exception BaseException ValueError KeyError IndexError "
        "LookupError RuntimeError ArithmeticError ZeroDivisionError "
        "OverflowError OSError IOError StopIteration AttributeError "
        "NameError SystemError BufferError EOFError MemoryError "
        "ReferenceError UnicodeError".split()
    )
    effect_entries: Tuple[EffectEntry, ...] = EFFECT_ENTRY_POINTS
    effect_allowlist: Mapping[str, Mapping[str, str]] = field(
        default_factory=lambda: {
            rule: dict(entries) for rule, entries in EFFECT_ALLOWLIST.items()
        }
    )
    #: Mutation-target universes the R202/R204 coverage cross-check uses:
    #: the same column/field sets the snapshot layer restores.
    effect_columns: FrozenSet[str] = FLAT_SNAPSHOT_COLUMNS
    effect_node_fields: FrozenSet[str] = REFERENCE_SNAPSHOT_FIELDS
    #: Path prefixes whose mutations are the rollback seam itself
    #: (journal/checkpoint bookkeeping) and are not atomized.
    effect_seam_paths: Tuple[str, ...] = ("src/repro/snapshots/",)


REPO_CONFIG = LintConfig()
