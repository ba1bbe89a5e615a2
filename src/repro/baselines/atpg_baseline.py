"""Whole-core sequential ATPG baseline (paper §3.5, experiment E5).

"For comparison purposes, we generated test patterns with the Tetramax
ATPG tool.  The test only gave us an 8.51% fault coverage.  Because our
core is a relatively complex circuit, it is just too hard for the ATPG
tool to determine good sequential test patterns."

We reproduce the *method*, not the tool: the flat gate-level core is
unrolled over a small number of time frames and PODEM attacks each fault's
per-frame replicas, starting from the reset state — exactly the structural
view a gate-level sequential ATPG has.  With a bounded frame count and
backtrack budget (any practical tool bounds both), most faults are
unreachable: exciting a datapath fault needs register values that only an
instruction *sequence* can justify, and propagating it to the port needs
an ``out`` reaching WB — knowledge the gate-level view does not have.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.atpg.podem import Podem
from repro.atpg.unroll import unroll
from repro.dsp.gatelevel import make_gatelevel_core
from repro.faults.coverage import CoverageReport
from repro.faults.model import Fault, FaultList, collapse_faults
from repro.faults.seqsim import SeqFaultSimulator
from repro.logic.netlist import Netlist

#: Instruction words in the random-pattern phase's one sequence.
RANDOM_PHASE_LENGTH = 32


@dataclass
class AtpgBaselineResult:
    """Outcome of the sequential-ATPG baseline run."""

    n_faults: int
    n_detected: int
    n_untestable_within_frames: int
    n_aborted: int
    n_frames: int
    n_detected_random_phase: int = 0
    patterns: List[List[int]] = field(default_factory=list)
    #: each pattern is a per-frame list of 17-bit instruction words
    #: total PODEM search effort over the deterministic phase
    total_backtracks: int = 0
    total_decisions: int = 0

    @property
    def fault_coverage(self) -> float:
        return self.n_detected / self.n_faults if self.n_faults else 1.0

    def coverage_report(self) -> CoverageReport:
        return CoverageReport(
            name=f"sequential ATPG ({self.n_frames} frames)",
            n_faults=self.n_faults,
            n_detected=self.n_detected,
            n_vectors=sum(len(p) for p in self.patterns),
        )


class AtpgBaseline:
    """The baseline's one algorithm; runs as
    :class:`repro.runtime.campaigns.AtpgBaselineCampaign`.

    Construction runs the cheap deterministic steps: the fault sample,
    the random-pattern phase and the time-frame unrolling.
    :meth:`attack` is one survivor's time-frame PODEM attack and returns
    its record; :meth:`result` tallies a run's records.

    Like any sequential ATPG (TetraMAX included) the run opens with a
    random-pattern phase from reset, one sequence of
    :data:`RANDOM_PHASE_LENGTH` raw words; most of the small coverage
    such tools reach on a pipelined core comes from it, and PODEM then
    mostly aborts, which is the paper's finding.  ``fault_sample``
    grades a deterministic random sample of the collapsed fault
    universe (the full list takes hours in pure Python); ``None``
    targets every fault.
    """

    def __init__(
        self,
        netlist: Optional[Netlist] = None,
        n_frames: int = 6,
        backtrack_limit: int = 400,
        fault_sample: Optional[int] = 300,
        seed: int = 5,
    ):
        self.core = netlist if netlist is not None else make_gatelevel_core()
        self.n_frames = n_frames
        faults = list(collapse_faults(self.core).faults)
        if fault_sample is not None and fault_sample < len(faults):
            faults = random.Random(seed).sample(faults, fault_sample)
        # Random-pattern phase: one raw word sequence from reset,
        # fault-parallel.
        rng = random.Random(seed + 1)
        sim = SeqFaultSimulator(
            self.core,
            fault_list=FaultList(netlist=self.core, faults=list(faults)),
        )
        stimulus = {"instr": [rng.randrange(1 << 17)
                              for _ in range(RANDOM_PHASE_LENGTH)]}
        self.survivors: List[Fault] = \
            sim.run_sequence(stimulus, faults=faults).undetected
        self.n_detected_random_phase = len(faults) - len(self.survivors)
        self.unrolled = unroll(self.core, n_frames)
        self.engine = Podem(self.unrolled.netlist,
                            backtrack_limit=backtrack_limit)
        self._instr_nets = [self.unrolled.frame_bus(frame, "instr")
                            for frame in range(n_frames)]

    def attack(self, fault: Fault) -> Dict[str, Any]:
        """Time-frame PODEM on one fault's per-frame replicas.

        The record holds the PODEM ``status``, its ``backtracks`` and
        ``decisions`` and, when detected, the per-frame instruction
        words (``frames``).
        """
        result = self.engine.generate_multi(
            self.unrolled.fault_sites(fault))
        record: Dict[str, Any] = {"status": result.status,
                                  "backtracks": result.backtracks,
                                  "decisions": result.decisions}
        if result.detected:
            record["frames"] = [
                sum(1 << i for i, net in enumerate(nets)
                    if result.pattern.get(net))
                for nets in self._instr_nets
            ]
        return record

    def result(self, records: Iterable[Dict[str, Any]]
               ) -> AtpgBaselineResult:
        """Tally attack records; an empty record (a unit that never
        finished) counts as aborted."""
        detected = untestable = aborted = 0
        total_backtracks = total_decisions = 0
        patterns: List[List[int]] = []
        for record in records:
            status = record.get("status")
            total_backtracks += record.get("backtracks", 0)
            total_decisions += record.get("decisions", 0)
            if status == "detected":
                detected += 1
                patterns.append(record.get("frames", []))
            elif status == "untestable":
                untestable += 1
            else:
                aborted += 1
        random_detected = self.n_detected_random_phase
        return AtpgBaselineResult(
            n_faults=len(self.survivors) + random_detected,
            n_detected=detected + random_detected,
            n_untestable_within_frames=untestable,
            n_aborted=aborted,
            n_frames=self.n_frames,
            n_detected_random_phase=random_detected,
            patterns=patterns,
            total_backtracks=total_backtracks,
            total_decisions=total_decisions,
        )
