"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch library failures without also swallowing programming
errors (``TypeError`` etc. are never wrapped).

Some classes multiply inherit from a builtin (``ValueError``,
``IndexError``, ``RuntimeError``): historical entry points raised bare
builtins and callers may legitimately depend on ``except ValueError``
continuing to work.  The taxonomy sweep (PR 3) re-parents those raise
sites onto the dual-inheritance classes below so both ``except
ReproError`` and the legacy builtin catch succeed.

Batch admission control (PR 3) reports *per-request* problems through
:class:`RequestRejection` records carried on
:class:`BatchValidationError`.  The concrete class raised is chosen by
:func:`batch_validation_error` so existing callers that catch
``TreeStructureError`` / ``UnknownNodeError`` from batch entry points
keep working.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Type

__all__ = [
    "ReproError",
    "PRAMError",
    "WriteConflictError",
    "ProcessorLimitError",
    "MachineStateError",
    "MachineHangError",
    "StepDisciplineError",
    "TreeStructureError",
    "NotALeafError",
    "NotAnInternalNodeError",
    "UnknownNodeError",
    "RequestError",
    "InvalidParameterError",
    "EmptyTreeError",
    "PositionError",
    "ConvergenceError",
    "ParseTreeError",
    "LabelError",
    "GraphStructureError",
    "LinkCutError",
    "DuplicateKeyError",
    "UnknownKeyError",
    "ResilienceError",
    "CorruptionDetectedError",
    "RepairFailedError",
    "RetryExhaustedError",
    "BudgetExceededError",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotChecksumError",
    "SnapshotStateError",
    "PoisonedPayloadError",
    "STRUCTURE_REASONS",
    "HANDLE_REASONS",
    "RequestRejection",
    "BatchValidationError",
    "BatchStructureError",
    "BatchHandleError",
    "BatchPositionError",
    "batch_validation_error",
]


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class PRAMError(ReproError):
    """Base class for errors raised by the PRAM simulator."""


class WriteConflictError(PRAMError):
    """Two processors wrote different values to one cell under a policy
    that forbids it (``COMMON``)."""


class StepDisciplineError(PRAMError):
    """A program violated the synchronous PRAM step discipline.

    Raised (or recorded, in ``mode="record"``) by
    :class:`~repro.pram.sanitizer.SanitizingSharedMemory` when a step
    mixes a read of an address with a concurrently staged write to the
    same address (stale-read hazard), when concurrent writers disagree
    nondeterministically under ``ARBITRARY``, or when host-side
    :meth:`~repro.pram.memory.SharedMemory.poke` fires mid-step."""


class ProcessorLimitError(PRAMError):
    """A program forked more processors than the machine allows."""


class MachineStateError(PRAMError):
    """A machine operation was invoked in an invalid state (e.g. running a
    halted machine, or a program yielded an unknown instruction)."""


class MachineHangError(MachineStateError, TimeoutError):
    """:meth:`~repro.pram.machine.Machine.run` exhausted its step budget
    with processors still live — the program did not quiesce.

    This is the *only* error the resilience layer's hang detector treats
    as a recoverable hang; every other :class:`MachineStateError` means a
    malformed program and is never retried.  Subclasses ``TimeoutError``
    so host-level timeout handling composes.

    Attributes
    ----------
    max_steps:
        The step budget that was exhausted.
    live:
        Number of processors still live when the budget ran out.
    """

    def __init__(self, message: str, *, max_steps: int = 0, live: int = 0) -> None:
        super().__init__(message)
        self.max_steps = max_steps
        self.live = live


class TreeStructureError(ReproError):
    """A tree operation would violate structural invariants (e.g. raking
    two siblings in one round, adding children below an internal node,
    or deleting children of unequal parents)."""


class NotALeafError(TreeStructureError):
    """The operation requires a leaf but an internal node was given."""


class NotAnInternalNodeError(TreeStructureError, ValueError):
    """The operation requires an internal node but a leaf was given.

    Subclasses ``ValueError`` for backward compatibility with the
    historical raise sites (e.g. pruning the children of a leaf)."""


class UnknownNodeError(ReproError):
    """A request referenced a node that is not part of the structure."""


class RequestError(ReproError):
    """A batch update request is malformed or references invalid targets."""


# ---------------------------------------------------------------------------
# Dual-inheritance re-parenting classes (taxonomy sweep).
# ---------------------------------------------------------------------------


class InvalidParameterError(ReproError, ValueError):
    """A caller-supplied parameter is outside the accepted domain (unknown
    backend name, malformed forced-split spec, unknown request kind, ...).

    Subclasses ``ValueError`` for backward compatibility with historical
    raise sites."""


class EmptyTreeError(InvalidParameterError):
    """A structure that must hold at least one leaf was given none."""


class PositionError(ReproError, IndexError):
    """A rank/position argument is out of range for the current list.

    Subclasses ``IndexError`` for backward compatibility."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative phase (activation stage 2, wound contraction) failed
    to converge within its bound — indicates an internal invariant
    violation, not caller error.  Subclasses ``RuntimeError`` for
    backward compatibility."""


class ParseTreeError(ReproError, ValueError):
    """A parse-tree construction precondition failed (e.g. the root was
    never activated).  Subclasses ``ValueError`` for backward
    compatibility."""


class LabelError(ReproError, ValueError):
    """An expression-DAG label/evaluation step met an unknown or
    inconsistent node kind.  Subclasses ``ValueError`` for backward
    compatibility."""


class GraphStructureError(ReproError, ValueError):
    """A series-parallel graph input violates structural preconditions
    (no edges, coincident terminals, self-loops, malformed SP specs).
    Subclasses ``ValueError`` for backward compatibility."""


class LinkCutError(TreeStructureError, ValueError):
    """A link/cut-forest operation would break the forest invariants
    (linking a non-root, creating a cycle, cutting a root).  Subclasses
    ``ValueError`` for backward compatibility."""


class DuplicateKeyError(ReproError, KeyError):
    """A keyed insertion collided with an existing key.  Subclasses
    ``KeyError`` for backward compatibility."""


class UnknownKeyError(UnknownNodeError, KeyError):
    """A keyed lookup referenced a key that is not present.  Subclasses
    ``KeyError`` for backward compatibility."""


# ---------------------------------------------------------------------------
# Resilience layer (PR 5).
# ---------------------------------------------------------------------------


class ResilienceError(ReproError):
    """Base class for errors raised by the fault-tolerant execution layer
    (:mod:`repro.resilience`)."""


class CorruptionDetectedError(ResilienceError):
    """An integrity scan found state that violates structural invariants
    (injected or otherwise) — the trigger for scrub-and-repair.

    ``sites`` lists machine-readable descriptions of the corrupt cells
    (best effort; may be empty when only a summary check failed)."""

    def __init__(self, message: str, sites: Sequence[str] = ()) -> None:
        super().__init__(message)
        self.sites: Tuple[str, ...] = tuple(sites)


class RepairFailedError(ResilienceError):
    """Scrub-and-repair could not restore a consistent state (corruption
    outside the repairable region, e.g. a destroyed root or free-list)."""


class RetryExhaustedError(ResilienceError):
    """The supervised executor ran out of retry budget and — if a
    degradation ladder was configured — out of ladder rungs.  The
    pre-batch state has been restored bit-for-bit.

    ``attempts`` counts every execution attempt across all rungs;
    ``last_error`` is the failure from the final attempt."""

    def __init__(
        self,
        message: str,
        *,
        attempts: int = 0,
        last_error: BaseException | None = None,
    ) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class BudgetExceededError(ReproError, TimeoutError):
    """A fuzzing run exceeded its operation or wall-clock budget.  The
    offending seed is replayable; subclasses ``TimeoutError`` so generic
    timeout handling composes.

    ``budget`` names which guard fired (``"op-budget"`` or
    ``"wall-timeout"``); ``spent`` is the amount consumed."""

    def __init__(
        self, message: str, *, budget: str = "op-budget", spent: float = 0.0
    ) -> None:
        super().__init__(message)
        self.budget = budget
        self.spent = spent


# ---------------------------------------------------------------------------
# Snapshot / persistence layer (PR 8).
# ---------------------------------------------------------------------------


class SnapshotError(ReproError):
    """Base class for errors raised by the unified snapshot layer
    (:mod:`repro.snapshots`): capture, restore, and versioned
    persistence."""


class SnapshotFormatError(SnapshotError, ValueError):
    """A serialized snapshot is structurally unreadable: bad magic, a
    truncated header or payload, malformed JSON, an unknown schema
    version, or a value the codec cannot represent.  Subclasses
    ``ValueError`` so generic parse-failure handling composes."""


class SnapshotChecksumError(SnapshotError):
    """A serialized snapshot parsed structurally but an at-rest
    integrity check failed: the header digest or a per-column payload
    digest does not match its recorded checksum (torn write, bit flip,
    or tampering).  ``column`` names the damaged section (``"header"``
    or a column name) when known."""

    def __init__(self, message: str, *, column: str = "") -> None:
        super().__init__(message)
        self.column = column


class SnapshotStateError(SnapshotError):
    """A snapshot cannot be applied to the given structure: backend
    family mismatch, algebra/value-universe mismatch, or a handle-less
    (loaded-from-disk) state used where live handle identity is
    required."""


# ---------------------------------------------------------------------------
# Serving layer (PR 10).
# ---------------------------------------------------------------------------


class PoisonedPayloadError(ReproError, ArithmeticError):
    """A payload whose algebraic combine deterministically fails — the
    chaos harness's model of a poisoned request (a value that passes
    admission but blows up inside the batch apply).  Subclasses
    ``ArithmeticError`` so generic arithmetic-failure handling
    composes."""


# ---------------------------------------------------------------------------
# Batch admission control.
# ---------------------------------------------------------------------------


#: Rejection reason kinds that are *structural* (the request targets a
#: valid object but the operation would break tree structure).  Mapped to
#: :class:`BatchStructureError` for ``TreeStructureError`` compatibility.
STRUCTURE_REASONS = frozenset(
    {
        "not-a-leaf",
        "delete-all-leaves",
        "duplicate-handle",
        "prune-would-break",
        "not-prunable",
        "no-rake-event",
        "conflicting-requests",
    }
)

#: Rejection reason kinds meaning the request referenced an object that
#: is not part of the structure.  Mapped to :class:`BatchHandleError`
#: for ``UnknownNodeError`` compatibility.
HANDLE_REASONS = frozenset(
    {
        "unknown-handle",
        "unknown-node",
        "target-removed-by-batch",
    }
)


@dataclass(frozen=True)
class RequestRejection:
    """One rejected request inside a batch.

    ``index``
        position of the request in the submitted batch.
    ``reason``
        machine-readable reason kind (e.g. ``"position-out-of-range"``,
        ``"duplicate-handle"``, ``"unknown-handle"``).
    ``detail``
        human-readable elaboration.
    """

    index: int
    reason: str
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = f"request[{self.index}]: {self.reason}"
        return f"{base} ({self.detail})" if self.detail else base


class BatchValidationError(RequestError):
    """A batch failed up-front admission control.

    No state was mutated and no RNG was consumed: the structure is
    bit-identical to its pre-call state (``last_batch_stats`` is reset
    to ``{}`` so a stale previous-batch report cannot be mistaken for
    this batch's outcome).

    ``rejections`` holds one :class:`RequestRejection` per offending
    request; ``batch_size`` is the size of the submitted batch.
    """

    def __init__(
        self,
        message: str,
        rejections: Sequence[RequestRejection] = (),
        batch_size: int = 0,
    ) -> None:
        super().__init__(message)
        self.rejections: Tuple[RequestRejection, ...] = tuple(rejections)
        self.batch_size = batch_size

    def __str__(self) -> str:
        base = super().__str__()
        if not self.rejections:
            return base
        shown = "; ".join(str(r) for r in self.rejections[:4])
        more = len(self.rejections) - 4
        if more > 0:
            shown += f"; ... {more} more"
        return f"{base}: {shown}"


class BatchStructureError(BatchValidationError, TreeStructureError):
    """All rejections in the batch are structural (see
    :data:`STRUCTURE_REASONS`); also catchable as
    ``TreeStructureError`` for backward compatibility."""


class BatchHandleError(BatchValidationError, UnknownNodeError):
    """All rejections reference unknown nodes/handles (see
    :data:`HANDLE_REASONS`); also catchable as ``UnknownNodeError``
    for backward compatibility."""


class BatchPositionError(BatchValidationError, IndexError):
    """All rejections are out-of-range positions; also catchable as
    ``IndexError`` for backward compatibility with the single-op
    ``insert``/``leaf_at`` contract."""


def batch_validation_error(
    rejections: Sequence[RequestRejection], batch_size: int, *, verb: str = "batch"
) -> BatchValidationError:
    """Build the most specific :class:`BatchValidationError` subclass for
    ``rejections`` (deterministic: depends only on the reason kinds).

    * every reason in :data:`STRUCTURE_REASONS` → :class:`BatchStructureError`
    * every reason in :data:`HANDLE_REASONS` → :class:`BatchHandleError`
    * every reason ``position-out-of-range`` → :class:`BatchPositionError`
    * otherwise → plain :class:`BatchValidationError`
    """

    reasons = {r.reason for r in rejections}
    msg = (
        f"{verb} rejected: {len(rejections)}/{batch_size} "
        f"request(s) failed admission"
    )
    if reasons and reasons <= STRUCTURE_REASONS:
        cls: Type[BatchValidationError] = BatchStructureError
    elif reasons and reasons <= HANDLE_REASONS:
        cls = BatchHandleError
    elif reasons and reasons <= {"position-out-of-range"}:
        cls = BatchPositionError
    else:
        cls = BatchValidationError
    return cls(msg, rejections, batch_size)
