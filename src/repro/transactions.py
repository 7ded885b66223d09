"""Transactional batch execution for the RBSTS backends (PR 3).

The paper's batch contract is *atomic*: Theorems 2.2/2.3 assume a
request batch ``U`` is applied as a unit and the RBSTS distribution is
preserved afterwards — there is no well-defined state "halfway through
a batch".  This module supplies the three pieces both backends share:

1. **Admission control** (:func:`validate_batch_insert` /
   :func:`validate_batch_delete` / :func:`validate_batch_update`):
   RNG-free whole-batch validators producing
   :class:`~repro.errors.RequestRejection` records.  A rejected batch
   raises :func:`~repro.errors.batch_validation_error` *before any
   state is touched*: no mutation, no RNG consumption, and
   ``last_batch_stats`` reset to ``{}`` so a stale previous-batch
   report cannot masquerade as this batch's outcome.

2. **Journals** (:class:`ReferenceJournal` for the pointer-graph
   backend, :class:`FlatJournal` for the struct-of-arrays backend):
   undo logs capturing pre-images at every mutation hook so that any
   exception escaping mid-apply restores the pre-batch state
   bit-for-bit — structure, shortcut lists, summaries,
   ``last_batch_stats`` and ``rng_state()`` all equal the pre-batch
   snapshot (DESIGN.md §7 maps this to the Theorems 2.2/2.3
   distribution-preservation claim).

3. **The driver** (:func:`execute_batch`): the one admission
   contract around a journaled core apply — any invalid request
   rejects the whole batch atomically; otherwise the batch is applied
   inside a journal.  Per-request admission (drop the rejected
   requests, apply the rest, report a status per request) lives in
   one place only, the serve window (:mod:`repro.serve.shard`).

Journal mechanics
-----------------

*Reference backend* — an ordered undo log.  Rebuilds detach the old
subtree intact (old internal nodes are never mutated) and only splice
one child pointer plus re-place the reused leaf objects, so the log
records (a) the splice link + per-leaf ``(parent, depth, summary,
shortcuts)`` pre-images per rebuild, (b) ``(n_leaves, height, summary,
shortcuts)`` pre-images per repaired ancestor, (c) ``(item, summary)``
pre-images per relabelled leaf.  Rollback replays the log in reverse
and restores the RNG state, node-id counter, high-water mark and
stats.

*Flat backend* — an array-epoch snapshot.  The slab only grows during
a batch (columns are append-only apart from in-place writes), so
rollback is: truncate every column to the pre-batch length, write back
the lazily-saved per-slot pre-images (all 12 columns, captured
``dict.setdefault``-style at the first mutation of each pre-existing
slot), and restore the free list via the *min-length tail* trick —
entries below the minimum length the free list ever reached are
untouched originals; every original popped below the running minimum
is recorded and re-appended in index order on rollback.

Neither journal touches :class:`~repro.pram.frames.SpanTracker`
accounting or draws randomness, so the machine-readable perf harness
sees bit-identical simulated costs with journaling on.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Set, Tuple

from .errors import RequestRejection, batch_validation_error
from .snapshots.core import (
    FLAT_COLUMNS as _SNAP_FLAT_COLUMNS,
    FlatSnapshot,
    ReferenceSnapshot,
)

__all__ = [
    "validate_batch_insert",
    "validate_batch_delete",
    "validate_batch_update",
    "ReferenceJournal",
    "FlatJournal",
    "execute_batch",
]


# ---------------------------------------------------------------------------
# RNG-free whole-batch validators (admission control)
# ---------------------------------------------------------------------------


def validate_batch_insert(
    n_leaves: int, requests: Sequence[Tuple[int, Any]]
) -> List[RequestRejection]:
    """Validate a batch of ``(index, item)`` insert requests against the
    pre-batch sequence length.  Touches no state, draws no randomness.
    A ``bool`` is an ``int`` subclass, but ``True`` is not position 1:
    it is rejected like any other non-integer position."""
    rejections: List[RequestRejection] = []
    for i, req in enumerate(requests):
        idx = req[0]
        if isinstance(idx, int) and not isinstance(idx, bool):
            if 0 <= idx <= n_leaves:
                continue
            note = ""
        else:
            note = f" ({type(idx).__name__}, not int)"
        rejections.append(
            RequestRejection(
                i,
                "position-out-of-range",
                f"insert position {idx!r}{note} out of range 0..{n_leaves}",
            )
        )
    return rejections


def validate_batch_delete(
    n_leaves: int,
    handles: Sequence[Any],
    *,
    is_leaf: Callable[[Any], bool],
    is_member: Callable[[Any], bool],
) -> List[RequestRejection]:
    """Validate a batch of delete handles.

    Per-request checks run in submission order — not-a-leaf, then
    unknown-handle, then duplicate-handle — followed by the batch-level
    delete-all-leaves check over the surviving valid requests (deleting
    every leaf is rejected as a whole: *all* otherwise-valid requests
    are marked, so a per-request admission layer applies none of
    them).
    The predicate callables let both backends share identical
    accept/reject behaviour.
    """
    rejections: List[RequestRejection] = []
    seen: Set[Any] = set()
    valid: List[int] = []
    for i, h in enumerate(handles):
        if not is_leaf(h):
            rejections.append(
                RequestRejection(i, "not-a-leaf", "delete target must be a leaf")
            )
            continue
        if not is_member(h):
            rejections.append(
                RequestRejection(
                    i, "unknown-handle", "leaf does not belong to this RBSTS"
                )
            )
            continue
        if id(h) in seen:
            rejections.append(
                RequestRejection(
                    i, "duplicate-handle", "duplicate leaves in batch delete"
                )
            )
            continue
        seen.add(id(h))
        valid.append(i)
    if valid and len(valid) >= n_leaves:
        for i in valid:
            rejections.append(
                RequestRejection(
                    i,
                    "delete-all-leaves",
                    "cannot delete every leaf of an RBSTS",
                )
            )
        rejections.sort(key=lambda r: r.index)
    return rejections


def validate_batch_update(
    updates: Sequence[Tuple[Any, Any]],
    *,
    is_leaf: Callable[[Any], bool],
    is_member: Callable[[Any], bool],
) -> List[RequestRejection]:
    """Validate a batch of ``(handle, item)`` relabel requests.
    Duplicate handles are allowed (last write wins, as before)."""
    rejections: List[RequestRejection] = []
    for i, (h, _item) in enumerate(updates):
        if not is_leaf(h):
            rejections.append(
                RequestRejection(i, "not-a-leaf", "update target must be a leaf")
            )
        elif not is_member(h):
            rejections.append(
                RequestRejection(
                    i, "unknown-handle", "leaf does not belong to this RBSTS"
                )
            )
    return rejections


# ---------------------------------------------------------------------------
# journals — thin wrappers over the unified snapshot layer (PR 8)
# ---------------------------------------------------------------------------
#
# The undo-log and column-epoch machinery that used to live here moved
# wholesale into :mod:`repro.snapshots.core`, where the SAME classes
# also serve as the resilience layer's checkpoints and the persistence
# layer's capture sources.  The journal names survive as aliases so
# PR 3-era call sites (and the fault injectors that monkey-patch
# recording hooks) keep working unchanged.

#: Canonical flat-column tuple (re-exported; source of truth lives in
#: :mod:`repro.snapshots.core`).
_FLAT_COLUMNS = _SNAP_FLAT_COLUMNS


class ReferenceJournal(ReferenceSnapshot):
    """Undo log for one transactional batch on the pointer-graph RBSTS
    — now an alias for :class:`repro.snapshots.core.ReferenceSnapshot`.

    Recording hooks are called from ``RBSTS`` internals while the
    recording seam ``tree._journal`` is installed; outside a
    transaction it is ``None`` and every hook site is a single
    attribute test.
    """

    __slots__ = ()


class FlatJournal(FlatSnapshot):
    """Epoch snapshot + lazy per-slot pre-images for ``FlatRBSTS`` —
    now an alias for :class:`repro.snapshots.core.FlatSnapshot`.

    Slots created during the transaction live past the snapshot length
    and are discarded by column truncation; pre-existing slots get one
    12-column pre-image captured at their first mutation.  The free
    list is restored with the min-length tail trick (module docstring).
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# the batch driver
# ---------------------------------------------------------------------------


def execute_batch(
    tree: Any,
    requests: Sequence[Any],
    rejections: Sequence[RequestRejection],
    apply: Callable[[Sequence[Any]], Any],
    *,
    verb: str,
) -> Any:
    """Run one whole batch atomically.

    Any rejection aborts the whole batch before any state is touched:
    ``last_batch_stats`` is reset to ``{}`` and the factory-chosen
    :class:`~repro.errors.BatchValidationError` subclass raised.
    Otherwise ``apply(requests)`` performs the core batch and its
    result is returned; it runs inside a transaction
    (``tree._txn_begin``/``_txn_rollback``/``_txn_commit``) so any
    escaping exception — including injected crash faults — restores
    the pre-batch state bit-for-bit before propagating.
    """
    if rejections:
        tree.last_batch_stats = {}
        raise batch_validation_error(rejections, len(requests), verb=verb)
    if not requests:
        return apply(requests)
    return _apply_txn(tree, requests, apply)


def _apply_txn(
    tree: Any,
    admitted: Sequence[Any],
    apply: Callable[[Sequence[Any]], Any],
) -> Any:
    # Nested-transaction flattening: when an *outer* transaction is
    # already open (``tree._txn`` set — e.g. the resilience layer's
    # batch checkpoint, see :mod:`repro.resilience.executor`), the inner
    # batch records its pre-images into the open snapshot stack and the
    # outer owner decides commit vs. rollback.  The snapshot layer does
    # support genuine nesting (repro.snapshots.core.txn_begin), but a
    # batch inside a checkpoint needs no independent rewind point of
    # its own — flattening keeps the hot path at one snapshot.
    # Pinned-epoch readers (snapshots.reader) are observer-only stack
    # members: flattening into one would leave a failing batch with no
    # rollback owner, so the search for an open checkpoint skips them.
    txn = getattr(tree, "_txn", None)
    while txn is not None and getattr(txn, "pinned", False):
        txn = txn._outer
    if txn is not None:
        return apply(admitted)
    journal = tree._txn_begin()
    try:
        result = apply(admitted)
    except BaseException:
        tree._txn_rollback(journal)
        raise
    tree._txn_commit(journal)
    return result
