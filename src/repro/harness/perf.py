"""Recorded performance trajectory for the campaign engine.

Every measured campaign run — from the standalone
``benchmarks/bench_campaigns.py`` sweep or from instrumented benchmarks
(E1 self-test grading, E5 ATPG baseline) — is captured as a
:class:`CampaignPerf` sample and written to ``BENCH_campaigns.json``,
so the parallel backend's speedup and the shared-cache hit rates are
*artefacts of the run*, not claims in a commit message.

The JSON document layout::

    {
      "schema": "repro.bench_campaigns/1",
      "context": {"cpu_count": ..., "python": ..., "scale": ...},
      "samples": [
        {"experiment": "E1", "label": "grade jobs=4", "jobs": 4,
         "units": 532, "wall_seconds": 12.3, "units_per_second": 43.2,
         "speedup_vs_serial": 2.7,
         "cache": {"compile_hit_rate": ..., "trace_hit_rate": ...}},
        ...
      ]
    }

``speedup_vs_serial`` is filled in by :meth:`PerfTrajectory.finish`
for any sample whose ``(experiment, jobs=1)`` twin is present; samples
without a serial twin keep ``null`` rather than inventing a baseline.

``cache`` numbers are true campaign-wide aggregates at every ``jobs``
setting: each pool worker ships its per-unit hit/miss counter delta
back through the result stream and the parent folds it into its own
counters (:func:`repro.runtime.cache.merge_counts`), so a pooled
sample's ``compile_hit_rate``/``trace_hit_rate`` cover the workers'
lookups too, not just the parent's pre-fork warmup.  (Before the
observability layer landed, worker counters died with the workers and
pooled samples silently under-counted — the old per-process caveat.)

When a profiling session is armed (:mod:`repro.obs`), samples may also
carry a ``timings`` entry in ``meta``: the campaign's per-phase wall
clock from :attr:`CampaignReport.timings`.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

#: Default artefact filename (repo root / CI artifact name).
BENCH_FILENAME = "BENCH_campaigns.json"


@dataclass
class CampaignPerf:
    """One measured campaign execution."""

    experiment: str              # "E1", "E5", ...
    label: str                   # human-readable run description
    jobs: int
    units: int                   # work units actually executed
    wall_seconds: float
    units_per_second: float = 0.0
    speedup_vs_serial: Optional[float] = None
    cache: Dict[str, float] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not self.units_per_second and self.wall_seconds > 0:
            self.units_per_second = self.units / self.wall_seconds


class PerfTrajectory:
    """Collects :class:`CampaignPerf` samples and writes the artefact."""

    def __init__(self):
        self.samples: List[CampaignPerf] = []

    def add(self, sample: CampaignPerf) -> CampaignPerf:
        self.samples.append(sample)
        return sample

    def record(self, experiment: str, label: str, jobs: int, units: int,
               wall_seconds: float, cache: Optional[Dict[str, float]] = None,
               **meta) -> CampaignPerf:
        return self.add(CampaignPerf(
            experiment=experiment, label=label, jobs=jobs, units=units,
            wall_seconds=wall_seconds, cache=dict(cache or {}), meta=meta,
        ))

    def serial_baseline(self, experiment: str) -> Optional[CampaignPerf]:
        for sample in self.samples:
            if sample.experiment == experiment and sample.jobs == 1:
                return sample
        return None

    def finish(self) -> None:
        """Fill ``speedup_vs_serial`` wherever a serial twin exists."""
        for sample in self.samples:
            baseline = self.serial_baseline(sample.experiment)
            if (baseline is not None and baseline is not sample
                    and sample.wall_seconds > 0):
                sample.speedup_vs_serial = round(
                    baseline.wall_seconds / sample.wall_seconds, 3
                )

    def document(self) -> Dict[str, object]:
        from repro.harness.experiments import current_scale
        self.finish()
        return {
            "schema": "repro.bench_campaigns/1",
            "context": {
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "platform": sys.platform,
                "scale": current_scale(),
            },
            "samples": [asdict(sample) for sample in self.samples],
        }

    def write(self, path: str = BENCH_FILENAME) -> str:
        """Write the bench artefact (no-op when nothing measured)."""
        if not self.samples:
            return path
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.document(), handle, indent=2)
            handle.write("\n")
        return path


def cache_delta(before: Dict[str, float],
                after: Dict[str, float]) -> Dict[str, float]:
    """Per-run cache accounting from two ``cache_stats()`` snapshots.

    The module-level counters are cumulative across a session; the
    delta is what one measured run actually hit and missed.
    """
    from repro.runtime.cache import CACHE_KINDS
    delta: Dict[str, float] = {}
    for kind in CACHE_KINDS:
        hits = after[f"{kind}_hits"] - before[f"{kind}_hits"]
        misses = after[f"{kind}_misses"] - before[f"{kind}_misses"]
        total = hits + misses
        delta[f"{kind}_hits"] = hits
        delta[f"{kind}_misses"] = misses
        delta[f"{kind}_hit_rate"] = round(hits / total, 4) if total else 0.0
    return delta


#: Global trajectory shared by the benchmark suite; written once per
#: session by ``benchmarks/conftest.py`` and by the standalone sweep.
TRAJECTORY = PerfTrajectory()
