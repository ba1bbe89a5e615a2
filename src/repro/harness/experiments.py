"""Experiment registry and result records.

Each benchmark registers its outcome here so EXPERIMENTS.md rows (paper
value vs measured value) can be regenerated mechanically.  ``scaled``
resolves per-experiment workload sizes: benchmarks default to laptop-scale
runs and honour the ``REPRO_SCALE`` environment variable (e.g.
``REPRO_SCALE=full pytest benchmarks/``) for paper-scale vector counts.

Benchmarks that execute through the resilient campaign runner
(:mod:`repro.runtime`) also record their unit accounting — how many
units were quarantined, retried or resumed — so a benchmark row cannot
silently hide a partially failed run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.runtime.errors import ConfigError

#: Workload presets: quick (CI), default (laptop), full (paper scale).
SCALES = ("quick", "default", "full")


def current_scale() -> str:
    scale = os.environ.get("REPRO_SCALE", "default").lower()
    if scale not in SCALES:
        raise ConfigError(
            f"REPRO_SCALE must be one of {SCALES}, got {scale!r}"
        )
    return scale


def scaled(quick: int, default: int, full: int) -> int:
    """Pick a workload size for the active ``REPRO_SCALE``."""
    return {"quick": quick, "default": default, "full": full}[current_scale()]


def campaign_counts_note(counts: Optional[Dict[str, int]]) -> str:
    """Human-readable unit accounting, e.g. ``"1 quarantined, 2 retried"``.

    Empty when every unit completed normally — clean runs stay clean in
    the table.
    """
    if not counts:
        return ""
    parts = []
    for key in ("quarantined", "retried", "resumed"):
        if counts.get(key):
            parts.append(f"{counts[key]} {key}")
    return ", ".join(parts)


@dataclass
class ExperimentResult:
    """One paper-artefact reproduction outcome."""

    experiment_id: str          # e.g. "T1", "E5"
    description: str
    paper_value: str            # what the paper reports
    measured_value: str         # what this run measured
    scale: str = field(default_factory=current_scale)
    details: str = ""
    #: Unit accounting from ``CampaignReport.counts()`` when the
    #: benchmark ran through the campaign runner.
    campaign_counts: Optional[Dict[str, int]] = None

    def row(self) -> str:
        note = campaign_counts_note(self.campaign_counts)
        units = note if note else ("clean" if self.campaign_counts else "")
        return (f"| {self.experiment_id} | {self.description} | "
                f"{self.paper_value} | {self.measured_value} | "
                f"{self.scale} | {units} |")


class ExperimentRegistry:
    """Collects results across a benchmark session."""

    def __init__(self):
        self.results: Dict[str, ExperimentResult] = {}

    def record(self, result: ExperimentResult) -> ExperimentResult:
        self.results[result.experiment_id] = result
        return result

    def markdown_table(self) -> str:
        header = ("| id | artefact | paper | measured | scale | units |\n"
                  "|---|---|---|---|---|---|")
        rows = [self.results[k].row() for k in sorted(self.results)]
        return "\n".join([header] + rows)


#: Global registry used by the benchmark suite.
REGISTRY = ExperimentRegistry()
