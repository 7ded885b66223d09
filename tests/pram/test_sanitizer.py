"""Dynamic step-discipline sanitizer: hazard detection, sanctioned
families, provenance log, and Machine integration."""

import pytest

from repro.errors import ReproError, StepDisciplineError
from repro.pram.machine import Machine
from repro.pram.memory import WritePolicy
from repro.pram.ops import Read, Write
from repro.pram.sanitizer import (
    HazardRecord,
    SanitizingSharedMemory,
    address_family,
)


def test_address_family():
    assert address_family(("active", 17)) == "active"
    assert address_family("x") == "x"
    assert address_family(3) == 3


def test_stale_read_raises():
    mem = SanitizingSharedMemory(policy=WritePolicy.PRIORITY)
    mem.poke("x", 1)
    mem.note_read(0, "x")
    mem.stage_write(1, "x", 2)
    with pytest.raises(StepDisciplineError):
        mem.commit()


def test_stale_read_is_a_repro_error():
    with pytest.raises(ReproError):
        mem = SanitizingSharedMemory(policy=WritePolicy.PRIORITY)
        mem.note_read(0, "x")
        mem.stage_write(1, "x", 2)
        mem.commit()


def test_read_without_same_step_write_is_clean():
    mem = SanitizingSharedMemory(policy=WritePolicy.PRIORITY)
    mem.poke("x", 1)
    mem.note_read(0, "x")
    mem.stage_write(1, "y", 2)  # different cell
    mem.commit()
    mem.note_read(0, "y")  # next step: read of the committed value
    mem.commit()
    assert mem.hazards == []


def test_sanctioned_family_suppresses_stale_read():
    mem = SanitizingSharedMemory(
        policy=WritePolicy.MAX, sanctioned=("active",)
    )
    mem.note_read(0, ("active", 7))
    mem.stage_write(1, ("active", 7), 1)
    mem.commit()
    assert mem.hazards == []
    assert mem.read(("active", 7)) == 1


def test_nondeterministic_arbitrary_write_detected():
    mem = SanitizingSharedMemory(policy=WritePolicy.ARBITRARY, mode="record")
    mem.stage_write(0, "x", 1)
    mem.stage_write(1, "x", 2)
    mem.commit()
    assert [h.kind for h in mem.hazards] == ["nondeterministic-write"]
    with pytest.raises(StepDisciplineError):
        mem.assert_clean()


def test_agreeing_arbitrary_writers_are_clean():
    mem = SanitizingSharedMemory(policy=WritePolicy.ARBITRARY)
    mem.stage_write(0, "x", 5)
    mem.stage_write(1, "x", 5)
    mem.commit()
    assert mem.hazards == []


def test_combining_policies_are_not_flagged():
    mem = SanitizingSharedMemory(policy=WritePolicy.MAX)
    mem.stage_write(0, "x", 1)
    mem.stage_write(1, "x", 9)
    mem.commit()
    assert mem.hazards == []
    assert mem.read("x") == 9


def test_poke_mid_step_detected():
    mem = SanitizingSharedMemory(policy=WritePolicy.PRIORITY, mode="record")
    mem.stage_write(0, "x", 1)
    mem.poke("y", 2)  # step still in flight
    assert [h.kind for h in mem.hazards] == ["poke-mid-step"]
    # Setup pokes before any step are fine.
    clean = SanitizingSharedMemory(policy=WritePolicy.PRIORITY)
    clean.poke("x", 1)
    assert clean.hazards == []


def test_record_mode_accumulates_instead_of_raising():
    mem = SanitizingSharedMemory(policy=WritePolicy.PRIORITY, mode="record")
    for step in range(3):
        mem.note_read(0, "x")
        mem.stage_write(1, "x", step)
        mem.commit()
    assert len(mem.hazards) == 3
    assert all(isinstance(h, HazardRecord) for h in mem.hazards)
    assert sorted(h.step for h in mem.hazards) == [0, 1, 2]


def test_writer_provenance_log():
    mem = SanitizingSharedMemory(policy=WritePolicy.PRIORITY)
    mem.stage_write(2, "x", "b")
    mem.stage_write(1, "x", "a")
    mem.commit()
    mem.stage_write(0, "x", "c")
    mem.commit()
    assert mem.writers_of("x") == [(0, 2, "b"), (0, 1, "a"), (1, 0, "c")]
    assert mem.writers_of("never") == []
    assert mem.read("x") == "c"


def test_invalid_mode_rejected():
    with pytest.raises(StepDisciplineError):
        SanitizingSharedMemory(mode="explode")


# ---------------------------------------------------------------------------
# Machine integration
# ---------------------------------------------------------------------------


def test_machine_sanitize_flag_installs_sanitizer():
    machine = Machine(policy=WritePolicy.PRIORITY, sanitize=True)
    assert isinstance(machine.memory, SanitizingSharedMemory)
    assert machine.memory.mode == "raise"
    recording = Machine(policy=WritePolicy.PRIORITY, sanitize="record")
    assert recording.memory.mode == "record"
    plain = Machine(policy=WritePolicy.PRIORITY)
    assert not isinstance(plain.memory, SanitizingSharedMemory)


def test_machine_catches_same_step_read_write_race():
    """Two lockstep processors: one reads ("x", 0) in the very step the
    other writes it: a same-step stale read."""

    def reader():
        yield Read(("x", 0))

    def writer():
        yield Write(("x", 0), 1)

    machine = Machine(policy=WritePolicy.PRIORITY, sanitize=True)
    machine.spawn(reader())
    machine.spawn(writer())
    with pytest.raises(StepDisciplineError):
        machine.run()


def test_machine_clean_program_passes_sanitized():
    """The Hillis-Steele step pattern (read round, then write round)
    is step-disciplined and must run unflagged."""

    def stepper(i, stride):
        left = yield Read(("x", i - stride), default=0.0)
        mine = yield Read(("x", i))
        yield Write(("x", i), left + mine)

    machine = Machine(policy=WritePolicy.PRIORITY, sanitize=True)
    for i, v in enumerate([1.0, 2.0, 3.0, 4.0]):
        machine.memory.poke(("x", i), v)
    for i in range(1, 4):
        machine.spawn(stepper(i, 1))
    machine.run()
    assert machine.memory.hazards == []


def test_machine_sanctioned_monotone_marking_runs_clean():
    """Concurrent ACTIVE marking under MAX — the Theorem 2.1 pattern —
    is accepted when the family is declared sanctioned."""

    def marker(node):
        was = yield Read(("active", node))
        if not was:
            yield Write(("active", node), 1)

    machine = Machine(
        policy=WritePolicy.MAX, sanitize=True, sanctioned=("active",)
    )
    for pid in range(4):
        machine.spawn(marker(0))
    machine.run()
    assert machine.memory.read(("active", 0)) == 1
    assert machine.memory.hazards == []
