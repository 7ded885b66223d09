"""Planted bugs — the fuzzer's self-verification.

Each planted bug *flips one known bookkeeping update* in the core
(skips a metadata repair, forgets to recycle a slot, …).  The
``self-test`` mode of :mod:`repro.testing.fuzz` plants each bug in turn
and asserts that the fuzzer (a) detects it within a few seeds and (b)
shrinks the failing program to a near-minimal reproducer — proving the
oracles actually watch the invariants they claim to watch.

(Runtime *faults* — dead processors, torn writes, bit flips — are a
different thing: :mod:`repro.resilience.faults` injects them into
correct code to exercise recovery.)

Bugs are installed by monkey-patching the target method for the
duration of a ``with PLANTED[name].activate():`` block and are always
restored, so they can never leak into other tests.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict

from ..perf.flat_rbsts import FlatRBSTS
from ..splitting.rbsts import RBSTS
from ..splitting.shortcuts import shortcuts_from_path
from ..snapshots.core import FlatSnapshot, ReferenceSnapshot

__all__ = ["PlantedBug", "PLANTED"]


@dataclass(frozen=True)
class PlantedBug:
    """A named, reversible corruption of one bookkeeping update."""

    name: str
    description: str
    detected_by: str  # which oracle phase is expected to fire
    _install: Callable[[], Callable[[], None]]
    #: Journal bugs only manifest when a mid-batch crash actually
    #: triggers a rollback — the self-test must arm crash injection
    #: (``crash_seed``) for these.
    needs_crash: bool = False

    @contextmanager
    def activate(self):
        restore = self._install()
        try:
            yield
        finally:
            restore()


def _patch(cls, attr: str, replacement) -> Callable[[], None]:
    original = getattr(cls, attr)
    setattr(cls, attr, replacement)

    def restore() -> None:
        setattr(cls, attr, original)

    return restore


# ---------------------------------------------------------------------------
# the planted bugs
# ---------------------------------------------------------------------------


def _install_flat_skip_upward() -> Callable[[], None]:
    """Single insert/delete on the flat backend forgets the upward
    ``n_leaves``/``height``/``summary`` repair entirely."""

    def broken_update_upward(self, start):  # noqa: ANN001 - patched method
        return None  # the flipped update: no repair at all

    return _patch(FlatRBSTS, "_update_upward", broken_update_upward)


def _install_flat_stale_summary() -> Callable[[], None]:
    """Batch updates on the flat backend skip the §3 ``SUM_v`` repair
    (counts and heights are still fixed — only summaries go stale)."""
    original = FlatRBSTS._levelized_repair

    def summaryless_repair(self, starts, tracker):  # noqa: ANN001
        saved = self.summarizer
        self.summarizer = None
        try:
            return original(self, starts, tracker)
        finally:
            self.summarizer = saved

    return _patch(FlatRBSTS, "_levelized_repair", summaryless_repair)


def _install_flat_slab_leak() -> Callable[[], None]:
    """Deleting a flat leaf forgets to return its slot to the free list
    (the slab-hygiene invariant must notice the orphaned slot)."""

    def leaky_free_slot(self, i):  # noqa: ANN001
        self._handle[i] = None  # handle still dies, slot is never freed

    return _patch(FlatRBSTS, "_free_slot", leaky_free_slot)


def _install_ref_stale_height() -> Callable[[], None]:
    """The reference backend's upward repair forgets the ``height``
    update (counts, summaries and shortcut presence still repaired) —
    the classic one-line bookkeeping omission."""

    def heightless_update_upward(self, start):  # noqa: ANN001
        chain = self._root_path(start)
        threshold = self.shortcut_threshold
        for v in reversed(chain):
            v.n_leaves = v.left.n_leaves + v.right.n_leaves
            # v.height update flipped off — the planted bug.
            if self.summarizer is not None:
                v.summary = self.summarizer.monoid.combine(
                    v.left.summary, v.right.summary
                )
        for v in reversed(chain):
            if v.shortcuts is None and v.depth > 0 and v.height > 2 * threshold:
                v.shortcuts = shortcuts_from_path(v, chain, self.ratio)

    return _patch(RBSTS, "_update_upward", heightless_update_upward)


# ---------------------------------------------------------------------------
# journal bugs (PR 3) — each forgets one pre-image class, so a
# mid-batch crash rolls back to a *wrong* state.  Only the crash-armed
# self-test can see them: with no crash, the journal is write-only.
# ---------------------------------------------------------------------------


def _install_ref_journal_drops_meta() -> Callable[[], None]:
    """The reference journal forgets ancestor ``n_leaves``/``height``/
    ``summary``/``shortcuts`` pre-images — rollback after a crash past
    the levelized repair leaves stale interior bookkeeping."""

    def metaless_record(self, nodes):  # noqa: ANN001 - patched method
        return None

    return _patch(ReferenceSnapshot, "record_meta", metaless_record)


def _install_ref_journal_drops_items() -> Callable[[], None]:
    """The reference journal forgets leaf ``(item, summary)`` pre-images
    — a crashed ``bset`` rolls back structure but keeps the new labels."""

    def itemless_record(self, leaves):  # noqa: ANN001
        return None

    return _patch(ReferenceSnapshot, "record_items", itemless_record)


def _install_flat_journal_drops_slots() -> Callable[[], None]:
    """The flat journal stops capturing per-slot 12-column pre-images —
    rollback truncates the slab but leaves every mutated pre-existing
    slot at its post-crash value."""

    def slotless_save(self, tree, i):  # noqa: ANN001
        return None

    return _patch(FlatSnapshot, "save_slot", slotless_save)


def _install_flat_journal_drops_free_tail() -> Callable[[], None]:
    """The flat journal forgets free-list pops — slots recycled into a
    crashed batch are restored column-wise but never returned to the
    free list (orphaned: neither reachable nor free — slab hygiene)."""

    def popless_note(self, free, take):  # noqa: ANN001
        return None

    return _patch(FlatSnapshot, "note_free_pops", popless_note)


PLANTED: Dict[str, PlantedBug] = {
    f.name: f
    for f in (
        PlantedBug(
            "flat-skip-upward-repair",
            "FlatRBSTS._update_upward becomes a no-op (single-request "
            "path loses n_leaves/height/summary repair)",
            "model/invariants",
            _install_flat_skip_upward,
        ),
        PlantedBug(
            "flat-stale-summary",
            "FlatRBSTS._levelized_repair skips the SUM_v recompute "
            "(batch path loses §3 summary maintenance)",
            "twins/invariants",
            _install_flat_stale_summary,
        ),
        PlantedBug(
            "flat-slab-leak",
            "FlatRBSTS._free_slot never recycles the slot "
            "(slab-hygiene invariant)",
            "invariants",
            _install_flat_slab_leak,
        ),
        PlantedBug(
            "ref-stale-height",
            "RBSTS._update_upward forgets the height update "
            "(single-request path)",
            "invariants/twins",
            _install_ref_stale_height,
        ),
        PlantedBug(
            "ref-journal-drops-meta",
            "ReferenceSnapshot.record_meta becomes a no-op (rollback "
            "leaves stale ancestor bookkeeping after a crash)",
            "rollback",
            _install_ref_journal_drops_meta,
            needs_crash=True,
        ),
        PlantedBug(
            "ref-journal-drops-items",
            "ReferenceSnapshot.record_items becomes a no-op (crashed "
            "bset rolls back structure but not labels)",
            "rollback",
            _install_ref_journal_drops_items,
            needs_crash=True,
        ),
        PlantedBug(
            "flat-journal-drops-slots",
            "FlatSnapshot.save_slot becomes a no-op (rollback misses "
            "every per-slot pre-image)",
            "rollback",
            _install_flat_journal_drops_slots,
            needs_crash=True,
        ),
        PlantedBug(
            "flat-journal-drops-free-tail",
            "FlatSnapshot.note_free_pops becomes a no-op (recycled "
            "slots orphaned after a crashed batch)",
            "rollback",
            _install_flat_journal_drops_free_tail,
            needs_crash=True,
        ),
    )
}
