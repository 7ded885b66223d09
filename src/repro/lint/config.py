"""Registered allowlists and pair registries for the lint rules.

Everything a rule exempts lives here, with a justification string, so
"why is this allowed?" is answerable by reading one file — and adding a
new exemption is a reviewable diff, not a scattered pragma.

Paths are repo-root-relative with forward slashes (matching
:attr:`repro.lint.engine.ModuleInfo.relpath`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from ..snapshots.core import FLAT_SNAPSHOT_COLUMNS, REFERENCE_SNAPSHOT_FIELDS

__all__ = [
    "ParityPair",
    "JournalSpec",
    "SnapshotSpec",
    "EffectEntry",
    "LintConfig",
    "REPO_CONFIG",
]


# ---------------------------------------------------------------------------
# R003 — backend API parity pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParityPair:
    """One reference↔flat surface that must stay in lockstep.

    ``kind`` is ``"class"`` (compare public method/property names and
    their parameter lists) or ``"function"`` (compare parameter lists).
    ``allow_extra_flat``/``allow_extra_ref`` name members that may exist
    on one side only (each with a justification in ``notes``).
    ``param_renames`` maps reference-side parameter names to their
    accepted flat-side spelling.
    """

    name: str
    kind: str
    ref_path: str
    ref_symbol: str
    flat_path: str
    flat_symbol: str
    allow_extra_ref: FrozenSet[str] = frozenset()
    allow_extra_flat: FrozenSet[str] = frozenset()
    param_renames: Mapping[str, str] = field(default_factory=dict)
    notes: str = ""


PARITY_PAIRS: Tuple[ParityPair, ...] = (
    ParityPair(
        name="rbsts",
        kind="class",
        ref_path="src/repro/splitting/rbsts.py",
        ref_symbol="RBSTS",
        flat_path="src/repro/perf/flat_rbsts.py",
        flat_symbol="FlatRBSTS",
        allow_extra_flat=frozenset({"slab_size", "free_slots", "handle"}),
        notes=(
            "slab_size/free_slots expose struct-of-arrays capacity (no "
            "pointer-backend analogue); handle(idx) is the slot->FlatLeaf "
            "constructor the reference backend does not need."
        ),
    ),
    ParityPair(
        name="activate",
        kind="function",
        ref_path="src/repro/splitting/activation.py",
        ref_symbol="activate",
        flat_path="src/repro/perf/flat_activation.py",
        flat_symbol="flat_activate",
    ),
    ParityPair(
        name="deactivate",
        kind="function",
        ref_path="src/repro/splitting/activation.py",
        ref_symbol="deactivate",
        flat_path="src/repro/perf/flat_activation.py",
        flat_symbol="flat_deactivate",
    ),
    ParityPair(
        name="activation-result",
        kind="class",
        ref_path="src/repro/splitting/activation.py",
        ref_symbol="ActivationResult",
        flat_path="src/repro/perf/flat_activation.py",
        flat_symbol="FlatActivationResult",
        allow_extra_flat=frozenset({"deactivate", "tree"}),
        notes=(
            "FlatActivationResult.deactivate() is a convenience bound "
            "method (the reference API uses the free function); the "
            "`tree` field is the backing FlatRBSTS the column clears "
            "need — the reference result holds node objects instead."
        ),
    ),
    ParityPair(
        name="contraction-trace",
        kind="class",
        ref_path="src/repro/contraction/rake_tree.py",
        ref_symbol="RakeTrace",
        flat_path="src/repro/perf/flat_contraction.py",
        flat_symbol="FlatContraction",
        allow_extra_ref=frozenset({"new_node"}),
        allow_extra_flat=frozenset({"replay", "removal"}),
        notes=(
            "new_node is the reference trace's RTNode allocator (the "
            "slab allocates rows inline); replay() is the flat "
            "backend's build entry point (the reference uses the free "
            "function build_trace); the removal property materialises "
            "the reference-shaped removal dict on demand (the "
            "reference keeps it as a plain instance attribute)."
        ),
    ),
    ParityPair(
        name="extended-parse-tree",
        kind="function",
        ref_path="src/repro/splitting/parse_tree.py",
        ref_symbol="build_extended_parse_tree",
        flat_path="src/repro/perf/flat_prefix.py",
        flat_symbol="flat_extended_parse_tree",
        param_renames={"root": "tree"},
        notes=(
            "the reference walks from a node, the flat twin from the "
            "tree (slots need the column arrays)."
        ),
    ),
)


# ---------------------------------------------------------------------------
# R004 — journal / crash-point coverage
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JournalSpec:
    """One backend class whose interior mutations must be journal-guarded.

    A method *mutates interior state* when it stores to a structural
    node attribute (``node_fields``) on any object, subscript-assigns
    into a column (``columns``), or calls a growing/shrinking list
    method (``append``/``extend``/``insert``/``pop``/``clear``) on a
    column.  Every such method must reference the journal seam
    (``self._journal``), be registered as a crash-point hook in
    ``testing/crashes.py``, or appear in ``allowlist`` (with a
    justification).

    ``class_name=None`` scans the whole module instead of one class:
    every top-level function and every method of every class is
    checked.  This is how the resilience layer is covered — its scrub
    rewrites and checkpoint restores mutate *someone else's* backend,
    so ``any_receiver=True`` widens column matching from ``self.<col>``
    to ``<any expr>.<col>`` (e.g. ``tree._n_leaves[s] = ...``).
    """

    path: str
    class_name: Optional[str] = None
    node_fields: FrozenSet[str] = frozenset()
    columns: FrozenSet[str] = frozenset()
    allowlist: Mapping[str, str] = field(default_factory=dict)
    any_receiver: bool = False


#: The file whose ``_patch(Class, "hook", ...)`` calls register the
#: crash-point hooks (R004 cross-checks that each hook still exists).
CRASH_POINTS_PATH = "src/repro/testing/crashes.py"

JOURNAL_SPECS: Tuple[JournalSpec, ...] = (
    JournalSpec(
        path="src/repro/splitting/rbsts.py",
        class_name="RBSTS",
        node_fields=frozenset(
            {
                "left",
                "right",
                "parent",
                "depth",
                "height",
                "n_leaves",
                "summary",
                "shortcuts",
                "item",
            }
        ),
        allowlist={
            "__init__": "construction precedes the first transaction",
            "_new_node": (
                "initialises a node created this operation; no pre-image "
                "exists to journal"
            ),
            "insert": (
                "single-op path: payload store targets the freshly "
                "allocated leaf only; structural splices happen inside "
                "_rebuild_at/_update_upward (journaled + crash-ticked)"
            ),
            "delete": (
                "single-op path: mutations confined to _rebuild_at/"
                "_update_upward (journaled + crash-ticked)"
            ),
            "_batch_insert_core": (
                "payload stores target leaves created this batch (no "
                "pre-image to journal); structural splices run inside "
                "_rebuild_at, which journals and crash-ticks"
            ),
        },
    ),
    JournalSpec(
        path="src/repro/perf/flat_rbsts.py",
        class_name="FlatRBSTS",
        columns=frozenset(
            {
                "_parent",
                "_left",
                "_right",
                "_n_leaves",
                "_depth",
                "_height",
                "_shortcuts",
                "_item",
                "_summary",
                "_active",
                "_low",
                "_handle",
                "_free",
            }
        ),
        allowlist={
            "__init__": "construction precedes the first transaction",
            "_build": (
                "bulk construction from __init__; runs before any "
                "transaction exists"
            ),
            "insert": (
                "single-op path: stores target the slot allocated this "
                "call; splices happen inside _rebuild_at/_update_upward "
                "(journaled + crash-ticked)"
            ),
            "delete": (
                "single-op path: mutations confined to journaled/"
                "crash-ticked helpers"
            ),
            "_rebuild_without": (
                "delete helper operating on slots whose pre-images the "
                "caller's _rebuild_at journal entry already captured"
            ),
            "handle": (
                "lazy interning-cache fill (slot -> FlatLeaf); "
                "idempotent and derivable, not structural state the "
                "crash fuzzer needs to roll back"
            ),
        },
    ),
    # Resilience-layer mutation sites (module scans).  Scrub rewrites
    # and checkpoint restores patch *another object's* backend cells, so
    # column matching is receiver-agnostic.  ``resilience/faults.py`` is
    # deliberately NOT covered: it is the attacker — its whole point is
    # unjournaled corruption (in-batch damage targets journal-covered
    # cells by construction; at-rest damage is scrub-and-repair's diet).
    JournalSpec(
        path="src/repro/resilience/scrub.py",
        class_name=None,
        node_fields=frozenset(
            {
                "left",
                "right",
                "parent",
                "depth",
                "height",
                "n_leaves",
                "summary",
                "shortcuts",
            }
        ),
        columns=frozenset(
            {
                "_parent",
                "_left",
                "_right",
                "_n_leaves",
                "_depth",
                "_height",
                "_shortcuts",
                "_item",
                "_summary",
                "_free",
            }
        ),
        any_receiver=True,
        allowlist={},
    ),
    JournalSpec(
        path="src/repro/resilience/executor.py",
        class_name=None,
        node_fields=frozenset(
            {
                "left",
                "right",
                "parent",
                "depth",
                "height",
                "n_leaves",
                "summary",
                "shortcuts",
            }
        ),
        columns=frozenset(
            {
                "_parent",
                "_left",
                "_right",
                "_n_leaves",
                "_depth",
                "_height",
                "_shortcuts",
                "_item",
                "_summary",
                "_free",
            }
        ),
        any_receiver=True,
        allowlist={},
    ),
)


# ---------------------------------------------------------------------------
# R004 — snapshot-coverage mode (PR 8)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SnapshotSpec:
    """One backend class whose mutated state must be *restorable via the
    unified snapshot path* (``repro.snapshots``).

    The journal mode above asks "is this mutation observed?"; the
    snapshot mode asks the complementary question: "does the snapshot
    restore bring this state back?".  A mutation of a column or node
    field **outside** the declared coverage sets is state a
    ``Snapshot.restore`` / ``SnapshotState.restore`` silently loses —
    exactly the bug class the crash/snapshot fuzzers cannot see, because
    their bit-for-bit audits only compare covered state.

    * ``columns`` — the ``self._<col>`` containers the snapshot path
      restores (:data:`repro.snapshots.core.FLAT_SNAPSHOT_COLUMNS` for
      the flat family).  Any subscript store or list-mutator call on a
      *different* private ``self._x`` container is flagged.
    * ``node_class`` — ``(path, class)`` whose ``__slots__`` define the
      node-field universe; fields outside ``covered_fields``
      (:data:`repro.snapshots.core.REFERENCE_SNAPSHOT_FIELDS`) are
      flagged when stored to.  Adding a slot to ``BSTNode`` and mutating
      it without extending snapshot coverage fails lint.
    * ``allowlist`` — method name -> justification for exempt sites
      (e.g. scalar registers the snapshot captures separately).

    R004 also cross-checks the crash-hook registry
    (``testing/crashes.py``): every class with registered crash hooks
    must be claimed by a SnapshotSpec or listed in
    :data:`SNAPSHOT_EXEMPT` — a crash point inside an un-snapshottable
    structure is a crash nobody can recover from.
    """

    path: str
    class_name: str
    columns: FrozenSet[str] = frozenset()
    node_class: Optional[Tuple[str, str]] = None
    covered_fields: FrozenSet[str] = frozenset()
    allowlist: Mapping[str, str] = field(default_factory=dict)


SNAPSHOT_SPECS: Tuple[SnapshotSpec, ...] = (
    SnapshotSpec(
        path="src/repro/splitting/rbsts.py",
        class_name="RBSTS",
        node_class=("src/repro/splitting/node.py", "BSTNode"),
        covered_fields=REFERENCE_SNAPSHOT_FIELDS,
    ),
    SnapshotSpec(
        path="src/repro/perf/flat_rbsts.py",
        class_name="FlatRBSTS",
        columns=FLAT_SNAPSHOT_COLUMNS,
    ),
)

#: Crash-hooked classes that legitimately carry no snapshot-coverable
#: structural state.  ``SnapshotIO`` is the persistence pipeline's
#: stage-hook seam: its crash points bracket save/restore *of* snapshots
#: and the atomic-write / re-restore contracts are what recover from
#: them — there is nothing for a SnapshotSpec to cover.
SNAPSHOT_EXEMPT: FrozenSet[str] = frozenset({"SnapshotIO"})


# ---------------------------------------------------------------------------
# R001 — raise-site policy
# ---------------------------------------------------------------------------

#: Builtins a library raise site may still use directly: programming-
#: error signals that the taxonomy deliberately never wraps (errors.py
#: module docstring).
R001_ALLOWED_BUILTINS: FrozenSet[str] = frozenset(
    {"TypeError", "AssertionError", "NotImplementedError"}
)

#: All other builtin exception constructors are forbidden at raise sites.
R001_FORBIDDEN_BUILTINS: FrozenSet[str] = frozenset(
    {
        "Exception",
        "BaseException",
        "ValueError",
        "KeyError",
        "IndexError",
        "LookupError",
        "RuntimeError",
        "ArithmeticError",
        "ZeroDivisionError",
        "OverflowError",
        "OSError",
        "IOError",
        "StopIteration",
        "AttributeError",
        "NameError",
        "SystemError",
        "BufferError",
        "EOFError",
        "MemoryError",
        "ReferenceError",
        "UnicodeError",
    }
)


# ---------------------------------------------------------------------------
# R201, R202, R204 — interprocedural effect analysis (repro.lint.effects)
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

#: ``path::qualname`` -> justification for functions that *are* a
#: transaction seam even though no ``_txn_begin`` call appears in their
#: own body.  These are the analysis's higher-order blind spots: the
#: guard sits one call (or one callback indirection) below.
TXN_GUARDS: Dict[str, str] = {
    "src/repro/transactions.py::execute_batch": (
        "every admitted mutation runs via _apply_txn's txn_begin/"
        "rollback/commit bracket; the only direct apply() call is the "
        "empty-strict-batch path, which is mutation-free by admission "
        "(nothing was admitted)"
    ),
}

#: rule -> (owning ``path::qualname`` -> justification).  The effects
#: pass drops a finding when the function *performing* the effect is
#: registered here; keying by owner (not entry) means one entry covers
#: every entry point whose closure reaches the same helper.
EFFECT_ALLOWLIST: Dict[str, Dict[str, str]] = {
    "R202": {
        "src/repro/perf/flat_rbsts.py::FlatRBSTS.handle": (
            "lazy interning-cache fill (slot -> FlatLeaf) on the "
            "post-commit return path; idempotent and derivable, exempt "
            "from journaling under R004 for the same reason"
        ),
    },
    "R204": {
        "src/repro/resilience/executor.py::ResilientExecutor._heal": (
            "repair failure is deliberately absorbed: the supervisor's "
            "bounded retry (or the degradation ladder) handles state "
            "that cannot be healed in place; the open checkpoint still "
            "rewinds everything the failed repair touched"
        ),
        # -- PRAM simulation state is per-attempt scratch: pram_sum
        # constructs a fresh FaultyMachine inside each supervised
        # attempt, so a rolled-back attempt discards the whole machine
        # and the retry rebuilds it.  No pre-image exists to restore
        # (the R004 _new_node argument, one level up).
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
# the bundle rules receive
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LintConfig:
    parity_pairs: Tuple[ParityPair, ...] = PARITY_PAIRS
    journal_specs: Tuple[JournalSpec, ...] = JOURNAL_SPECS
    snapshot_specs: Tuple[SnapshotSpec, ...] = SNAPSHOT_SPECS
    snapshot_exempt: FrozenSet[str] = SNAPSHOT_EXEMPT
    crash_points_path: str = CRASH_POINTS_PATH
    allowed_builtins: FrozenSet[str] = R001_ALLOWED_BUILTINS
    forbidden_builtins: FrozenSet[str] = R001_FORBIDDEN_BUILTINS
    #: Modules exempt from R005's "must define __all__" requirement
    #: (entry-point shims with no importable surface).
    exports_exempt: FrozenSet[str] = frozenset()
    # -- R201/R202/R204 interprocedural effect analysis ----------------
    effect_entries: Tuple[EffectEntry, ...] = EFFECT_ENTRY_POINTS
    txn_guards: Mapping[str, str] = field(
        default_factory=lambda: dict(TXN_GUARDS)
    )
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
