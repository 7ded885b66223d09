"""Versioned, checksummed snapshot persistence: round-trips, the
torn-file corruption matrix with its taxonomy errors, newest-intact
recovery, at-rest scrubbing, and save/restore crash atomicity."""

import hashlib
import json
import os

import pytest

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.errors import (
    ReproError,
    SnapshotChecksumError,
    SnapshotError,
    SnapshotFormatError,
)
from repro.listprefix.structure import IncrementalListPrefix
from repro.snapshots.core import SCHEMA, capture
from repro.snapshots.fuzz import states_equal
from repro.snapshots.persist import (
    MAGIC,
    load,
    load_newest,
    save,
    scrub_snapshot,
)
from repro.testing.crashes import CrashController, CrashInjected, snapshot_crash_points
from repro.testing.oracles import shape_signature

MONOID = sum_monoid(INTEGER)
BACKENDS = ("reference", "flat")


def make(backend, *, n=10, seed=4):
    lp = IncrementalListPrefix(MONOID, range(n), seed=seed, backend=backend)
    lp.batch_insert([(0, 50), (n // 2, 60)])
    lp.delete(lp.handle_at(1))
    return lp


def _header_span(raw):
    """(start, end) byte offsets of the header JSON inside ``raw``."""
    hlen = int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 4], "big")
    start = len(MAGIC) + 4
    return start, start + hlen


def _parse_header(raw):
    start, end = _header_span(raw)
    return json.loads(raw[start:end].decode("utf-8")), end + 32


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_save_load_round_trip(backend, tmp_path):
    lp = make(backend)
    state = capture(lp.tree)
    path = save(state, tmp_path / "a.snap")
    loaded = load(path)
    assert states_equal(loaded, state)
    assert loaded.handles is None and loaded.source_id is None
    assert loaded.epoch == state.epoch
    # A loaded state restores a scratch tree bit-for-bit.
    scratch = IncrementalListPrefix(MONOID, [0, 0], seed=0, backend=backend)
    loaded.restore(scratch.tree)
    assert shape_signature(scratch.tree) == shape_signature(lp.tree)
    assert scratch.rng_state() == lp.rng_state()
    assert scratch.tree.last_batch_stats == lp.tree.last_batch_stats
    scratch.check_invariants()
    scratch.insert(0, 7)  # restored tree is live
    scratch.check_invariants()


def test_save_is_atomic_replace(tmp_path):
    lp = make("flat")
    old = capture(lp.tree)
    path = save(old, tmp_path / "a.snap")
    lp.insert(0, 123)
    save(capture(lp.tree), path)
    assert not list(tmp_path.glob("*.tmp")), "tmp file must not survive"
    assert not states_equal(load(path), old)


# ---------------------------------------------------------------------------
# satellite 3 — the torn-file corruption matrix
# ---------------------------------------------------------------------------


def _corrupt_truncate(raw):
    return raw[: len(raw) // 2]


def _corrupt_truncate_tail(raw):
    return raw[:-3]


def _corrupt_magic(raw):
    return b"NOTSNAP0" + raw[len(MAGIC) :]


def _corrupt_header_bits(raw):
    """Flip a bit inside the header JSON region."""
    start, _ = _header_span(raw)
    i = start + 5
    return raw[:i] + bytes([raw[i] ^ 0x08]) + raw[i + 1 :]


def _corrupt_column_bits(raw):
    """Flip a bit inside the first column's payload region."""
    _, payload_start = _parse_header(raw)
    i = payload_start + 3
    return raw[:i] + bytes([raw[i] ^ 0x10]) + raw[i + 1 :]


def _corrupt_swap_digests(raw):
    """Swap two column digests in the directory and recompute the
    header digest — the header verifies, two columns do not."""
    header, payload_start = _parse_header(raw)
    cols = header["columns"]
    cols[0]["sha256"], cols[1]["sha256"] = cols[1]["sha256"], cols[0]["sha256"]
    hdr = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join(
        [
            MAGIC,
            len(hdr).to_bytes(4, "big"),
            hdr,
            hashlib.sha256(hdr).digest(),
            raw[payload_start:],
        ]
    )


def _corrupt_trailing(raw):
    return raw + b"xx"


def _corrupt_schema(raw):
    header, payload_start = _parse_header(raw)
    header["schema"] = "repro-snapshot/999"
    hdr = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join(
        [
            MAGIC,
            len(hdr).to_bytes(4, "big"),
            hdr,
            hashlib.sha256(hdr).digest(),
            raw[payload_start:],
        ]
    )


CORRUPTIONS = [
    ("truncate-half", _corrupt_truncate, SnapshotFormatError, None),
    ("truncate-tail", _corrupt_truncate_tail, SnapshotFormatError, None),
    ("bad-magic", _corrupt_magic, SnapshotFormatError, None),
    ("header-bit-flip", _corrupt_header_bits, SnapshotChecksumError, "header"),
    ("column-bit-flip", _corrupt_column_bits, SnapshotChecksumError, "_parent"),
    ("digest-swap", _corrupt_swap_digests, SnapshotChecksumError, "_parent"),
    ("trailing-garbage", _corrupt_trailing, SnapshotFormatError, None),
    ("unknown-schema", _corrupt_schema, SnapshotFormatError, None),
]


@pytest.mark.parametrize("backend", ("reference", "flat"))
@pytest.mark.parametrize(
    "name,mangle,exc_type,column", CORRUPTIONS, ids=[c[0] for c in CORRUPTIONS]
)
def test_corruption_matrix(backend, name, mangle, exc_type, column, tmp_path):
    path = save(capture(make(backend).tree), tmp_path / "a.snap")
    raw = path.read_bytes()
    damaged = mangle(raw)
    assert damaged != raw, f"{name}: corruption was a no-op"
    path.write_bytes(damaged)
    with pytest.raises(exc_type) as exc_info:
        load(path)
    if column is not None:
        assert exc_info.value.column == column
    # Taxonomy: both errors are SnapshotError under ReproError.
    assert isinstance(exc_info.value, SnapshotError)
    assert isinstance(exc_info.value, ReproError)
    # Scrub sees the same damage without raising.
    report = scrub_snapshot(path)
    assert not report.ok and exc_type.__name__ in report.problem


def test_every_payload_byte_is_covered(tmp_path):
    """Flipping ANY single byte after the magic/hlen prefix must be
    detected — load never returns a silently-wrong structure."""
    path = save(capture(make("flat", n=4).tree), tmp_path / "a.snap")
    raw = path.read_bytes()
    stride = max(1, len(raw) // 40)  # sample ~40 positions
    for i in range(len(MAGIC), len(raw), stride):
        path.write_bytes(raw[:i] + bytes([raw[i] ^ 0x01]) + raw[i + 1 :])
        with pytest.raises((SnapshotFormatError, SnapshotChecksumError)):
            load(path)


# ---------------------------------------------------------------------------
# newest-intact recovery
# ---------------------------------------------------------------------------


def test_load_newest_skips_damaged(tmp_path):
    lp = make("flat")
    old = capture(lp.tree)
    old_path = save(old, tmp_path / "old.snap")
    lp.insert(0, 9)
    new_path = save(capture(lp.tree), tmp_path / "new.snap")
    os.utime(old_path, (1_000_000, 1_000_000))
    os.utime(new_path, (2_000_000, 2_000_000))
    new_path.write_bytes(_corrupt_column_bits(new_path.read_bytes()))

    result = load_newest(tmp_path)
    assert result.path == old_path
    assert states_equal(result.state, old)
    assert len(result.damage) == 1
    assert result.damage[0].path == new_path
    assert "SnapshotChecksumError" in result.damage[0].problem


def test_load_newest_all_damaged_raises_newest_error(tmp_path):
    lp = make("flat")
    a = save(capture(lp.tree), tmp_path / "a.snap")
    b = save(capture(lp.tree), tmp_path / "b.snap")
    os.utime(a, (1_000_000, 1_000_000))
    os.utime(b, (2_000_000, 2_000_000))
    a.write_bytes(_corrupt_truncate(a.read_bytes()))
    b.write_bytes(_corrupt_header_bits(b.read_bytes()))
    with pytest.raises(SnapshotChecksumError):  # newest candidate's error
        load_newest(tmp_path)


def test_load_newest_empty_directory(tmp_path):
    with pytest.raises(SnapshotFormatError):
        load_newest(tmp_path)


# ---------------------------------------------------------------------------
# crash atomicity through the SnapshotIO stage hooks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("stage,expect_old", [(1, True), (2, True), (3, False)])
def test_save_crash_atomicity(stage, expect_old, tmp_path):
    lp = make("flat")
    old = capture(lp.tree)
    path = save(old, tmp_path / "a.snap")
    lp.insert(0, 42)
    new = capture(lp.tree)

    ctl = CrashController()
    with snapshot_crash_points(ctl):
        ctl.arm(stage)
        with pytest.raises(CrashInjected):
            save(new, path)
    assert ctl.fired
    on_disk = load(path)
    want = old if expect_old else new
    assert states_equal(on_disk, want), f"stage {stage}: torn on-disk state"
    # A retried save always lands the new state.
    save(new, path)
    assert states_equal(load(path), new)


@pytest.mark.parametrize("backend", BACKENDS)
def test_restore_crash_then_rerestore(backend, tmp_path):
    lp = make(backend)
    want_sig = shape_signature(lp.tree)
    want_rng = lp.rng_state()
    path = save(capture(lp.tree), tmp_path / "a.snap")
    lp.batch_insert([(0, 1), (1, 2)])
    loaded = load(path)

    ctl = CrashController()
    with snapshot_crash_points(ctl):
        ctl.arm(3)  # mid-restore, between columns
        with pytest.raises(CrashInjected):
            loaded.restore(lp.tree)
        assert ctl.fired, "restore has >= 3 stages on every backend"
        # The target is torn; a re-restore must still land cleanly.
        loaded.restore(lp.tree)
    assert shape_signature(lp.tree) == want_sig
    assert lp.rng_state() == want_rng
    lp.check_invariants()
    lp.insert(0, 5)
    lp.check_invariants()
