"""Fault-coverage bookkeeping and reporting.

The paper quotes both *fault coverage* (detected / all faults) and *test
coverage* (detected / detectable faults, i.e. excluding faults proven
untestable).  :class:`CoverageReport` carries both, plus optional
per-component breakdowns for the DSP-core experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple
from repro.runtime.errors import ConfigError


@dataclass
class CoverageReport:
    """Summary of a fault-grading run."""

    name: str
    n_faults: int
    n_detected: int
    n_untestable: int = 0
    n_vectors: int = 0
    by_component: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: by_component maps component → (detected, total)

    @property
    def fault_coverage(self) -> float:
        """Detected / all faults, as a fraction in [0, 1]."""
        if self.n_faults == 0:
            return 1.0
        return self.n_detected / self.n_faults

    @property
    def test_coverage(self) -> float:
        """Detected / detectable faults (untestable ones excluded)."""
        detectable = self.n_faults - self.n_untestable
        if detectable <= 0:
            return 1.0
        return self.n_detected / detectable

    def test_time_seconds(self, clock_hz: float = 500e6) -> float:
        """Test application time at the paper's assumed 500 MHz clock."""
        if clock_hz <= 0:
            raise ConfigError("clock frequency must be positive")
        return self.n_vectors / clock_hz

    def __str__(self) -> str:
        lines = [
            f"{self.name}: {self.n_detected}/{self.n_faults} faults detected "
            f"(FC {self.fault_coverage:.2%}, TC {self.test_coverage:.2%}, "
            f"{self.n_vectors} vectors)"
        ]
        for comp in sorted(self.by_component):
            det, tot = self.by_component[comp]
            pct = det / tot if tot else 1.0
            lines.append(f"  {comp:<18} {det:>5}/{tot:<5} ({pct:.2%})")
        return "\n".join(lines)


def coverage_curve(first_detect: Dict, n_vectors: int,
                   step: int = 1) -> List[Tuple[int, float]]:
    """Build (vectors applied, fault coverage) points from detection times.

    ``first_detect`` maps fault → first detecting vector index or ``None``.
    """
    total = len(first_detect)
    if total == 0:
        return [(n_vectors, 1.0)]
    times = sorted(t for t in first_detect.values() if t is not None)
    points: List[Tuple[int, float]] = []
    idx = 0
    for v in range(0, n_vectors + 1, max(step, 1)):
        while idx < len(times) and times[idx] < v:
            idx += 1
        points.append((v, idx / total))
    return points
