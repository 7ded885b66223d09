"""Dynamic step-discipline sanitizer for the CRCW shared memory.

:class:`SanitizingSharedMemory` is the repo's one check of the PRAM
step discipline.  It asserts the hazards on executed traces, so it sees
data-dependent addresses, host-driven spawn loops and forked processors
alike, but only on the runs it is given:
``tests/pram/test_sanitized_programs.py`` runs every shipped step
program sanitized on pinned seeds and sizes.  It records per-address
writer provenance and checks, at every step boundary:

* **stale-read** — some processor read an address while another
  processor's write to the same address was staged in the same step.
  The read is well-defined (it sees the previous step's value), but the
  program's meaning now depends on the paper's read-before-write step
  semantics rather than on program order — the exact hazard the PRAM
  discipline exists to make explicit.
* **nondeterministic-write** — under ``ARBITRARY``, concurrent writers
  staged *different* values for one cell, so the committed value depends
  on the tie-break RNG.  (``COMMON`` already raises
  :class:`~repro.errors.WriteConflictError`; ``PRIORITY``/``MAX``/
  ``MIN`` are deterministic combiners and therefore clean.)
* **poke-mid-step** — host code called :meth:`poke` while reads or
  staged writes of the current step were outstanding, breaking the
  step-boundary contract.

Intentional CRCW races (e.g. the Theorem 2.1 concurrent ``ACTIVE``
marking under ``MAX``) are declared via ``sanctioned`` address families,
where the program builds its machine.

Use ``mode="raise"`` (default) to fail fast with
:class:`~repro.errors.StepDisciplineError`, or ``mode="record"`` to
accumulate :class:`HazardRecord` entries and audit with
:meth:`SanitizingSharedMemory.assert_clean` at the end of a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Tuple

from ..errors import StepDisciplineError
from .memory import Address, SharedMemory, WritePolicy

__all__ = ["HazardRecord", "SanitizingSharedMemory", "address_family"]


def address_family(addr: Address) -> Any:
    """The *family* of an address: the leading element of tuple
    addresses (``("active", 17)`` → ``"active"``), else the address
    itself.  Sanctioned-race declarations are per-family."""
    if isinstance(addr, tuple) and addr:
        return addr[0]
    return addr


@dataclass(frozen=True)
class HazardRecord:
    """One step-discipline violation observed at a step boundary.

    ``kind`` is ``"stale-read"``, ``"nondeterministic-write"`` or
    ``"poke-mid-step"``; ``readers``/``writers`` are the offending
    processor ids (writers carry their staged values).
    """

    kind: str
    step: int
    addr: Address
    readers: Tuple[int, ...] = ()
    writers: Tuple[Tuple[int, Any], ...] = ()
    detail: str = ""

    def __str__(self) -> str:
        parts = [f"{self.kind} at {self.addr!r} (step {self.step})"]
        if self.readers:
            parts.append(f"readers={list(self.readers)}")
        if self.writers:
            parts.append(f"writers={list(self.writers)}")
        if self.detail:
            parts.append(self.detail)
        return "; ".join(parts)


@dataclass
class _StepState:
    """Per-step read provenance (cleared at every commit)."""

    readers: Dict[Address, List[int]] = field(default_factory=dict)


class SanitizingSharedMemory(SharedMemory):
    """:class:`~repro.pram.memory.SharedMemory` that asserts the PRAM
    step discipline and records per-address writer provenance.

    Parameters
    ----------
    mode:
        ``"raise"`` fails at the first hazard with
        :class:`~repro.errors.StepDisciplineError`; ``"record"``
        accumulates hazards in :attr:`hazards` for later audit.
    sanctioned:
        Address families (see :func:`address_family`) exempt from the
        stale-read and nondeterministic-write checks — the declared
        intentional CRCW races of the algorithm under test.
    """

    def __init__(
        self,
        policy: WritePolicy = WritePolicy.ARBITRARY,
        seed: int | None = 0,
        *,
        mode: str = "raise",
        sanctioned: Iterable[Any] = (),
    ) -> None:
        super().__init__(policy=policy, seed=seed)
        if mode not in ("raise", "record"):
            raise StepDisciplineError(
                f"unknown sanitizer mode {mode!r} (expected 'raise' or 'record')"
            )
        self.mode = mode
        self.sanctioned: FrozenSet[Any] = frozenset(sanctioned)
        self.hazards: List[HazardRecord] = []
        self.write_log: Dict[Address, List[Tuple[int, int, Any]]] = {}
        self._step_index = 0
        self._state = _StepState()

    # -- provenance hooks ---------------------------------------------------
    def note_read(self, pid: int, addr: Address) -> None:
        self._state.readers.setdefault(addr, []).append(pid)

    def poke(self, addr: Address, value: Any) -> None:
        if self._staged or self._state.readers:
            self._hazard(
                HazardRecord(
                    "poke-mid-step",
                    self._step_index,
                    addr,
                    detail=(
                        "host poke() while a step is in flight "
                        f"({len(self._staged)} staged write(s), "
                        f"{len(self._state.readers)} read address(es))"
                    ),
                )
            )
        super().poke(addr, value)

    # -- step boundary ------------------------------------------------------
    def commit(self) -> None:
        staged = self._staged
        sanctioned = self.sanctioned
        try:
            for addr, pids in self._state.readers.items():
                if addr in staged and address_family(addr) not in sanctioned:
                    self._hazard(
                        HazardRecord(
                            "stale-read",
                            self._step_index,
                            addr,
                            readers=tuple(pids),
                            writers=tuple(staged[addr]),
                            detail=(
                                "read observes the previous step's value "
                                "while a same-step write is staged"
                            ),
                        )
                    )
            if self.policy is WritePolicy.ARBITRARY:
                for addr, writers in staged.items():
                    if address_family(addr) in sanctioned:
                        continue
                    first_value = writers[0][1]
                    if len({pid for pid, _ in writers}) > 1 and any(
                        bool(v != first_value) for _, v in writers[1:]
                    ):
                        self._hazard(
                            HazardRecord(
                                "nondeterministic-write",
                                self._step_index,
                                addr,
                                writers=tuple(writers),
                                detail=(
                                    "ARBITRARY tie-break between unequal "
                                    "values: outcome depends on the seed"
                                ),
                            )
                        )
            for addr, writers in staged.items():
                log = self.write_log.setdefault(addr, [])
                step = self._step_index
                log.extend((step, pid, value) for pid, value in writers)
        finally:
            self._state = _StepState()
        super().commit()
        self._step_index += 1

    # -- reporting ----------------------------------------------------------
    def _hazard(self, record: HazardRecord) -> None:
        self.hazards.append(record)
        if self.mode == "raise":
            raise StepDisciplineError(str(record))

    def writers_of(self, addr: Address) -> List[Tuple[int, int, Any]]:
        """Committed writer provenance for ``addr`` as
        ``(step, pid, value)`` triples in commit order."""
        return list(self.write_log.get(addr, []))

    def assert_clean(self) -> None:
        """Raise :class:`~repro.errors.StepDisciplineError` summarising
        every recorded hazard (no-op when the run was hazard-free)."""
        if self.hazards:
            summary = "; ".join(str(h) for h in self.hazards[:5])
            more = len(self.hazards) - 5
            if more > 0:
                summary += f"; ... {more} more"
            raise StepDisciplineError(
                f"{len(self.hazards)} step-discipline hazard(s): {summary}"
            )
