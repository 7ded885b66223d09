"""Replay every pinned regression entry in ``tests/corpus/``.

Each corpus file is one ``repro-corpus/1`` entry.  All of them replay
through :func:`repro.testing.fuzz.replay` — the function behind
``python -m repro.testing.fuzz --replay`` — which requires a clean run
and asserts every ``expect`` clause.  A failure here means a
previously-fixed bug has regressed or a pinned expectation drifted.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.testing.corpus import SCHEMA, corpus_paths, default_corpus_dir, load_entry
from repro.testing.fuzz import EXERCISES, main, replay

PATHS = corpus_paths()


def test_corpus_is_seeded():
    assert len(PATHS) >= 27, "tests/corpus/ lost pinned entries"


@pytest.mark.parametrize(
    "path", PATHS, ids=[os.path.basename(p) for p in PATHS]
)
def test_corpus_entry_replays_clean(path):
    outcome = replay(path)
    assert outcome.ok, f"{os.path.basename(path)}: {outcome.failure}"


def test_corpus_schema_fields():
    for path in PATHS:
        data = load_entry(path)
        assert data["schema"] == SCHEMA, path
        assert data["exercise"] in EXERCISES, path
        assert data["note"], f"{path}: every pinned entry says why"


def _edited(tmp_path, name, edit):
    data = load_entry(os.path.join(default_corpus_dir(), name))
    edit(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_replay_checks_every_recovery_clause(tmp_path):
    def edit(data):
        data["expect"].update(fault_substring="no-such-fault", min_faults=999)

    path = _edited(tmp_path, "fault-recovery-16d70c2283.json", edit)
    assert not replay(path).ok
    assert main(["--replay", path]) == 1


def test_replay_honours_every_snapshot_input(tmp_path):
    def edit(data):
        data["input"]["snapshot_exercise"] = "no-such-exercise"

    path = _edited(tmp_path, "pinned-snapshot-save-crash-list-d7e8eb28c9.json", edit)
    assert "no-such-exercise" in replay(path).failure
    assert main(["--replay", path]) == 1


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["expect"].update(min_crashes=10**6),
        lambda d: d["expect"].update(min_crashs=1),
        lambda d: d["input"].update(snapshot_seed=3),
        lambda d: d["input"].update(backend="parallel"),
    ],
    ids=["crash-count", "misspelt-clause", "unknown-input", "bad-backend"],
)
def test_replay_rejects_edited_differential_entries(tmp_path, edit):
    path = _edited(tmp_path, "crash-list-7d5e8d8614.json", edit)
    assert main(["--replay", path]) == 1
