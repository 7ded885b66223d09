"""Cross-entry checks on the pinned ``recovery`` corpus entries.

Each entry's own clauses (outcome class, fired fault family, fault
count) are asserted by the unified replay
(``tests/testing/test_corpus_replay.py``); here the corpus as a whole
must pin one reproducer per fault family, and replay must be
deterministic — a recovery regression can never silently degenerate
into a fault-free no-op."""

from __future__ import annotations

from repro.testing.corpus import corpus_paths, load_entry
from repro.testing.fuzz import replay

PATHS = [p for p in corpus_paths() if load_entry(p)["exercise"] == "recovery"]

# One pinned reproducer per fault family (satellite requirement).
REQUIRED_FAMILIES = {"dead-processor", "torn-write", "bit-flip", "hang"}


def test_corpus_carries_one_entry_per_fault_family():
    assert len(PATHS) >= 4
    for p in PATHS:
        data = load_entry(p)
        assert {"program", "plan", "policy"} == set(data["input"])
        assert {"outcome", "fault_substring", "min_faults"} <= set(data["expect"])


def test_replay_recovers_oracle_identical_with_faults_fired():
    seen_families = set()
    for path in PATHS:
        outcome = replay(path)
        assert outcome.ok, f"{path}: {outcome.failure}"
        sub = load_entry(path)["expect"]["fault_substring"]
        seen_families |= {k for k in REQUIRED_FAMILIES if k == sub}
    assert seen_families == REQUIRED_FAMILIES


def test_replay_is_deterministic():
    for path in PATHS:
        r1, r2 = replay(path).detail, replay(path).detail
        assert r1.outcome == r2.outcome
        assert r1.answers == r2.answers
        assert r1.faults == r2.faults
