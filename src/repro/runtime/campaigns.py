"""Campaign adapters: the repo's expensive loops as resumable units.

Each adapter decomposes one long-running workload into idempotent
:class:`~repro.runtime.runner.WorkUnit`\\ s, hands them to a
:class:`~repro.runtime.runner.CampaignRunner`, and reassembles the
domain result object from the (possibly checkpoint-resumed) unit
records:

* :class:`HierarchicalCampaign` — per-fault grading of the DSP core
  (wraps :class:`repro.faults.hierarchical.HierarchicalFaultSimulator`);
* :class:`MetricsCampaign` — per-instruction-variant C/O sampling
  (wraps the :mod:`repro.metrics` engines);
* :class:`AtpgBaselineCampaign` — per-fault time-frame PODEM attacks
  (wraps :class:`repro.baselines.atpg_baseline.AtpgBaseline`).

Every unit runs its one exact implementation; a unit that keeps failing
or timing out is quarantined, and the campaign report counts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.dsp.family import PAPER_BUILD, CoreBuild
from repro.runtime.runner import CampaignReport, CampaignRunner, WorkUnit


@dataclass
class CampaignOutcome:
    """Domain result + unit accounting of one campaign invocation."""

    result: Any
    report: CampaignReport


def _default_runner(checkpoint, unit_timeout, runner,
                    jobs=None) -> CampaignRunner:
    if runner is not None:
        return runner
    return CampaignRunner(checkpoint=checkpoint, unit_timeout=unit_timeout,
                          jobs=jobs)


class _Lazy:
    """Compute-once holder: expensive setup skipped on full resumes."""

    def __init__(self, build):
        self._build = build
        self._value = None

    def __call__(self):
        if self._value is None:
            self._value = self._build()
        return self._value


# ----------------------------------------------------------------------
# Hierarchical core fault simulation
# ----------------------------------------------------------------------
class HierarchicalCampaign:
    """Resumable hierarchical fault grading of the DSP core.

    One unit per fault; the trace recording (``prepare``) runs lazily,
    so resuming a finished campaign touches the checkpoint file only.
    """

    def __init__(
        self,
        words: Sequence[int],
        simulator=None,
        storage_fault_max_cycles: Optional[int] = None,
        checkpoint: Optional[str] = None,
        unit_timeout: Optional[float] = None,
        runner: Optional[CampaignRunner] = None,
        jobs: Optional[int] = None,
    ):
        from repro.faults.hierarchical import HierarchicalFaultSimulator
        self.simulator = simulator if simulator is not None \
            else HierarchicalFaultSimulator()
        self.words = list(words)
        self.storage_fault_max_cycles = storage_fault_max_cycles
        self.runner = _default_runner(checkpoint, unit_timeout, runner, jobs)
        # Instance-level so the runner's pool warmup records the trace
        # once in the parent and forked workers inherit it.
        self._ctx = _Lazy(lambda: self.simulator.prepare(self.words))

    def fingerprint(self) -> Dict[str, Any]:
        from repro.faults.hierarchical import (
            MAX_CONTINUOUS_STARTS,
            MAX_STARTS_PER_BLOCK,
        )
        sim = self.simulator
        fp = {
            "kind": "hierarchical",
            "n_words": len(self.words),
            "n_faults": len(self._fault_map()),
            "block_size": sim.block_size,
            "propagation_window": sim.propagation_window,
            "storage_fault_max_cycles": self.storage_fault_max_cycles,
        }
        # Family points stamp the core identity; the paper core omits
        # it.  The tier rules are stamped likewise, only off their
        # defaults.
        if not sim.build.spec.is_paper:
            fp["core"] = sim.build.spec.label()
        for key, default in (("max_starts_per_block", MAX_STARTS_PER_BLOCK),
                             ("max_continuous_starts", MAX_CONTINUOUS_STARTS)):
            if getattr(sim, key) != default:
                fp[key] = getattr(sim, key)
        return fp

    def _fault_map(self) -> Dict[str, Any]:
        from repro.faults.hierarchical import fault_unit_id
        return {fault_unit_id(f): f
                for f in self.simulator.universe.all_faults()}

    def units(self) -> List[WorkUnit]:
        from repro.faults.hierarchical import ComponentFault
        sim = self.simulator
        ctx = self._ctx
        units: List[WorkUnit] = []
        for unit_id, fault in self._fault_map().items():
            if isinstance(fault, ComponentFault):
                name, local = fault.component, fault.fault

                def grade(name=name, local=local):
                    return sim.grade_comb_fault(ctx(), name, local)

                units.append(WorkUnit(unit_id=unit_id, run=grade))
            else:
                def grade_storage(fault=fault):
                    return sim.grade_storage_fault(
                        ctx(), fault, self.storage_fault_max_cycles
                    )

                units.append(WorkUnit(unit_id=unit_id, run=grade_storage))
        return units

    def run(self, resume: bool = False,
            max_units: Optional[int] = None,
            force: bool = False) -> CampaignOutcome:
        from repro.faults.hierarchical import HierarchicalResult
        report = self.runner.run(
            self.units(), fingerprint=self.fingerprint(), resume=resume,
            max_units=max_units, warmup=self._ctx, force=force,
        )
        fault_map = self._fault_map()
        first_detect = {
            fault_map[unit_id]: result.value
            for unit_id, result in report.results.items()
        }
        result = HierarchicalResult(
            first_detect=first_detect, n_vectors=len(self.words),
            universe=self.simulator.universe,
        )
        return CampaignOutcome(result=result, report=report)


# ----------------------------------------------------------------------
# Metrics-table sampling
# ----------------------------------------------------------------------
class MetricsCampaign:
    """Per-instruction-variant resumable metrics-table measurement.

    Each unit samples one variant's C and O columns; the assembled
    result is the same :class:`~repro.metrics.table.MetricsTable` that
    :func:`~repro.metrics.table.build_metrics_table` produces, because
    every variant draws from its own label-derived RNG stream.
    """

    def __init__(
        self,
        variants=None,
        columns=None,
        n_controllability_samples: int = 150,
        n_observability_good: int = 12,
        seed: int = 2004,
        checkpoint: Optional[str] = None,
        unit_timeout: Optional[float] = None,
        runner: Optional[CampaignRunner] = None,
        jobs: Optional[int] = None,
        build: CoreBuild = PAPER_BUILD,
    ):
        from repro.metrics.controllability import (
            ControllabilityEngine,
            default_variants,
        )
        from repro.metrics.observability import ObservabilityEngine
        self.build = build
        self.variants = list(variants) if variants is not None \
            else default_variants()
        self.columns = list(columns) if columns is not None \
            else build.all_columns()
        self.n_controllability_samples = n_controllability_samples
        self.n_observability_good = n_observability_good
        self.seed = seed
        # The same engines as build_metrics_table's, so every unit
        # measures its variant exactly as the one-shot table does.
        self._c_engine = ControllabilityEngine(
            n_samples=n_controllability_samples, seed=seed, build=build)
        self._o_engine = ObservabilityEngine(
            n_good=n_observability_good, seed=seed + 1, build=build)
        self.runner = _default_runner(checkpoint, unit_timeout, runner, jobs)

    def fingerprint(self) -> Dict[str, Any]:
        fp = {
            "kind": "metrics",
            "seed": self.seed,
            "n_controllability_samples": self.n_controllability_samples,
            "n_observability_good": self.n_observability_good,
            "rows": [v.label for v in self.variants],
        }
        # Same convention as HierarchicalCampaign: only non-paper family
        # points stamp the core identity.
        if not self.build.spec.is_paper:
            fp["core"] = self.build.spec.label()
        return fp

    def _measure(self, variant) -> Dict:
        from repro.metrics.table import measure_row
        cells = measure_row(self._c_engine, self._o_engine, variant,
                            self.columns)
        return {"cells": {f"{name}|{mode}": [cell.c, cell.o]
                          for (name, mode), cell in cells}}

    def units(self) -> List[WorkUnit]:
        return [
            WorkUnit(unit_id=f"variant:{variant.label}",
                     run=lambda variant=variant: self._measure(variant))
            for variant in self.variants
        ]

    def run(self, resume: bool = False,
            max_units: Optional[int] = None,
            force: bool = False) -> CampaignOutcome:
        from repro.metrics.table import MetricsCell, MetricsTable, fault_counts
        report = self.runner.run(
            self.units(), fingerprint=self.fingerprint(), resume=resume,
            max_units=max_units, force=force,
        )
        table = MetricsTable(
            rows=self.variants,
            columns=self.columns,
            fault_counts=fault_counts(self.build),
        )
        for variant in self.variants:
            result = report.results.get(f"variant:{variant.label}")
            if result is None or not result.value:
                continue
            for key, (c, o) in result.value["cells"].items():
                name, mode = key.rsplit("|", 1)
                table.set_cell(variant, (name, int(mode)),
                               MetricsCell(c=c, o=o))
        return CampaignOutcome(result=table, report=report)


# ----------------------------------------------------------------------
# Sequential-ATPG baseline
# ----------------------------------------------------------------------
class AtpgBaselineCampaign:
    """Per-fault resumable version of the sequential-ATPG baseline.

    The cheap fault-parallel random phase runs as deterministic setup
    (same seed, same survivors on every invocation); each surviving
    fault's time-frame PODEM attack — the part that can run for minutes
    and abort — is one unit.  ``backtrack_limit`` caps the effort per
    fault, the way commercial flows do; a fault that hits it counts as
    aborted.
    """

    def __init__(
        self,
        netlist=None,
        n_frames: int = 6,
        backtrack_limit: int = 400,
        fault_sample: Optional[int] = 300,
        seed: int = 5,
        checkpoint: Optional[str] = None,
        unit_timeout: Optional[float] = None,
        runner: Optional[CampaignRunner] = None,
        jobs: Optional[int] = None,
    ):
        self.netlist = netlist
        #: The baseline's parameters, which are also the fingerprint.
        self.params: Dict[str, Any] = {
            "n_frames": n_frames,
            "backtrack_limit": backtrack_limit,
            "fault_sample": fault_sample,
            "seed": seed,
        }
        self.runner = _default_runner(checkpoint, unit_timeout, runner, jobs)
        self._baseline = _Lazy(self._prepare)

    def fingerprint(self) -> Dict[str, Any]:
        return {"kind": "atpg-baseline", **self.params}

    def _prepare(self):
        from repro.baselines.atpg_baseline import AtpgBaseline
        from repro.lint.netlist_rules import warn_on_netlist
        baseline = AtpgBaseline(self.netlist, **self.params)
        warn_on_netlist(baseline.core, context="atpg baseline fault universe")
        return baseline

    def units(self) -> List[WorkUnit]:
        return [
            WorkUnit(unit_id=f"podem:{fault.net}:sa{fault.stuck_at}",
                     run=lambda fault=fault: self._baseline().attack(fault))
            for fault in self._baseline().survivors
        ]

    def run(self, resume: bool = False,
            max_units: Optional[int] = None) -> CampaignOutcome:
        report = self.runner.run(
            self.units(), fingerprint=self.fingerprint(), resume=resume,
            max_units=max_units, warmup=self._baseline,
        )
        result = self._baseline().result(
            r.value or {} for r in report.results.values())
        return CampaignOutcome(result=result, report=report)
