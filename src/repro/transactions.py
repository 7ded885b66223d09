"""Transactional batch execution for the RBSTS backends (PR 3).

The paper's batch contract is *atomic*: Theorems 2.2/2.3 assume a
request batch ``U`` is applied as a unit and the RBSTS distribution is
preserved afterwards — there is no well-defined state "halfway through
a batch".  This module supplies the three pieces both backends share:

1. **Admission control** (:func:`validate_batch_insert` /
   :func:`validate_batch_delete` / :func:`validate_batch_update`, and
   :func:`validate_positions`, which runs them on positions):
   RNG-free whole-batch validators producing
   :class:`~repro.errors.RequestRejection` records.  A rejected batch
   raises :func:`~repro.errors.batch_validation_error` *before any
   state is touched*: no mutation, no RNG consumption, and
   ``last_batch_stats`` reset to ``{}`` so a stale previous-batch
   report cannot masquerade as this batch's outcome.

2. **Journals** (the snapshots of :mod:`repro.snapshots.core`:
   :class:`ReferenceSnapshot` for the pointer-graph backend,
   :class:`FlatSnapshot` for the struct-of-arrays backend):
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
shortcuts)`` pre-images per rebuild, (b) ``(n_leaves, height, depth,
summary, shortcuts)`` pre-images per repaired ancestor, (c) ``(item,
summary)`` pre-images per relabelled leaf.  Rollback replays the log
in reverse and restores the RNG state, node-id counter, high-water
mark and stats.

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

from typing import Any, Callable, Dict, List, Sequence, Set, Tuple

from .errors import RequestRejection, batch_validation_error

__all__ = [
    "validate_batch_insert",
    "validate_batch_delete",
    "validate_batch_update",
    "validate_positions",
    "not_position",
    "execute_batch",
]


# ---------------------------------------------------------------------------
# RNG-free whole-batch validators (admission control)
# ---------------------------------------------------------------------------


def not_position(x: Any) -> str:
    """``""`` if ``x`` is a leaf position, else a note naming its type.
    A ``bool`` is an ``int`` subclass, but ``True`` is not position 1."""
    if isinstance(x, int) and not isinstance(x, bool):
        return ""
    return f" ({type(x).__name__}, not int)"


def validate_batch_insert(
    n_leaves: int, requests: Sequence[Tuple[int, Any]]
) -> List[RequestRejection]:
    """Validate a batch of ``(index, item)`` insert requests against the
    pre-batch sequence length.  Touches no state, draws no randomness.
    A non-integer position, ``True`` included, is rejected."""
    rejections: List[RequestRejection] = []
    for i, req in enumerate(requests):
        idx = req[0]
        note = not_position(idx)
        if not note and 0 <= idx <= n_leaves:
            continue
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


class _Pos:
    """Interned position token standing in for a leaf handle during
    positional admission: the same position maps to the same object, so
    the ``id()``-based duplicate detection inside
    :func:`validate_batch_delete` sees duplicate positions exactly as it
    sees duplicate handles."""

    __slots__ = ("pos",)

    def __init__(self, pos: int) -> None:
        self.pos = pos


def validate_positions(
    verb: str, n_leaves: int, payload: Sequence[Any]
) -> List[RequestRejection]:
    """Validate one positional batch phase — ``"insert"`` ``(pos,
    value)`` pairs, ``"delete"`` positions or ``"set"`` ``(pos, value)``
    pairs — against a sequence of ``n_leaves`` leaves, with the
    validators above: positions are interned into handle stand-ins, so
    the duplicate, membership and delete-all-leaves checks behave
    exactly as they do for real leaf handles."""
    if verb == "insert":
        return validate_batch_insert(n_leaves, payload)
    interned: Dict[Any, _Pos] = {}

    def wrap(pos: Any) -> Any:
        if not_position(pos):
            return pos  # fails is_leaf -> "not-a-leaf" rejection
        return interned.setdefault(pos, _Pos(pos))

    def is_leaf(h: Any) -> bool:
        return isinstance(h, _Pos)

    def is_member(h: _Pos) -> bool:
        return 0 <= h.pos < n_leaves

    if verb == "delete":
        return validate_batch_delete(
            n_leaves,
            [wrap(pos) for pos in payload],
            is_leaf=is_leaf,
            is_member=is_member,
        )
    return validate_batch_update(
        [(wrap(pos), value) for pos, value in payload],
        is_leaf=is_leaf,
        is_member=is_member,
    )


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
