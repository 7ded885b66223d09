"""Unified MVCC snapshots + versioned persistence (PR 8, DESIGN.md §12).

One copy-on-write snapshot mechanism spans all three backends — the
PR 3 journals, the PR 5 ``ResilientExecutor`` checkpoints and the flat
slab epochs are thin wrappers over it — plus a schema-versioned,
per-column checksummed on-disk format with atomic writes and a
torn-file corruption taxonomy.  See :mod:`repro.snapshots.core` and
:mod:`repro.snapshots.persist` for the mechanics and
:mod:`repro.snapshots.fuzz` for the seeded crash+corruption exercises
(``make fuzz-snapshots``).
"""

from .core import (
    FLAT_SNAPSHOT_COLUMNS,
    REFERENCE_SNAPSHOT_FIELDS,
    SCHEMA,
    FlatSnapshot,
    ReferenceSnapshot,
    Snapshot,
    SnapshotState,
    capture,
    restore,
    txn_begin,
    txn_commit,
    txn_rollback,
)
from .reader import PinnedReader, pinned_reader
from .persist import (
    IO_HOOKS,
    LoadResult,
    ScrubReport,
    SnapshotIO,
    load,
    load_newest,
    save,
    scrub_snapshot,
)

__all__ = [
    "FLAT_SNAPSHOT_COLUMNS",
    "REFERENCE_SNAPSHOT_FIELDS",
    "SCHEMA",
    "Snapshot",
    "FlatSnapshot",
    "ReferenceSnapshot",
    "SnapshotState",
    "capture",
    "restore",
    "txn_begin",
    "txn_commit",
    "txn_rollback",
    "PinnedReader",
    "pinned_reader",
    "SnapshotIO",
    "IO_HOOKS",
    "LoadResult",
    "ScrubReport",
    "save",
    "load",
    "load_newest",
    "scrub_snapshot",
]
