"""Cost accounting for the simulated CRCW PRAM.

The paper's claims are bounds on *parallel time* (synchronous PRAM steps)
and *processor count*.  Because CPython cannot exhibit real shared-memory
speedups (GIL — see DESIGN.md §2), these simulated quantities are the
reproduction target; wall-clock numbers are reported separately by
pytest-benchmark and are not expected to match the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["Metrics"]


@dataclass
class Metrics:
    """Counters maintained by :class:`repro.pram.machine.Machine`.

    Attributes
    ----------
    steps:
        Number of synchronous parallel steps executed (PRAM time).
    work:
        Total processor-steps (sum over steps of active processors).
    peak_processors:
        Maximum number of simultaneously active processors.
    forks, reads, writes:
        Total instruction counts, for finer-grained analysis.
    phase_steps:
        Optional per-phase step counts, keyed by phase label.
    """

    steps: int = 0
    work: int = 0
    peak_processors: int = 0
    forks: int = 0
    reads: int = 0
    writes: int = 0
    phase_steps: Dict[str, int] = field(default_factory=dict)

    def observe_step(self, active: int, phase: str | None = None) -> None:
        """Record one synchronous step with ``active`` live processors."""
        self.steps += 1
        self.work += active
        if active > self.peak_processors:
            self.peak_processors = active
        if phase is not None:
            self.phase_steps[phase] = self.phase_steps.get(phase, 0) + 1
