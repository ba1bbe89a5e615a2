"""Fault diagnosis from a failing self-test response.

A production self-test normally compares one MISR signature; when a part
fails, diagnosis asks *which* defect explains the observed behaviour.
This module implements classic effect-cause diagnosis over the project's
fault universe:

1. run the self-test stream fault-free and index every fault by the first
   cycle at which it is detected (one hierarchical fault-simulation pass —
   the *fault dictionary*);
2. given an observed (failing) output stream, shortlist the faults whose
   first-detection cycle matches the first observed mismatch;
3. re-simulate each shortlisted fault exactly (storage faults by word-level
   models, combinational faults by continuous mixed-level injection) and
   rank candidates by how precisely their predicted response matches the
   observation.

A stuck-at defect that is in the modelled universe diagnoses to its
equivalence class with score 1.0; out-of-model defects rank by closeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.faults.hierarchical import (
    ComponentFault,
    DspFaultUniverse,
    HierarchicalFaultSimulator,
    HierarchicalResult,
    StorageFault,
    storage_fault_core,
)
from repro.runtime.errors import ConfigError

#: Cycles either side of the first mismatch whose first detections
#: join the shortlist.
CYCLE_WINDOW = 6


@dataclass(frozen=True)
class DiagnosisCandidate:
    """One ranked explanation of the observed failure."""

    fault: object               # ComponentFault | StorageFault
    score: float                # fraction of cycles predicted exactly
    first_mismatch: Optional[int]

    def describe(self) -> str:
        return f"{self.fault.describe()} (match {self.score:.1%})"


class FaultDiagnoser:
    """Effect-cause diagnosis against a fixed self-test vector stream."""

    def __init__(self, words: Sequence[int],
                 universe: Optional[DspFaultUniverse] = None,
                 simulator: Optional[HierarchicalFaultSimulator] = None):
        self.words = list(words)
        sim = simulator if simulator is not None else \
            HierarchicalFaultSimulator(universe=universe)
        self.universe = sim.universe
        self.build = sim.build
        self.dictionary: HierarchicalResult = sim.run(self.words)
        self.golden = self._clean_response()
        self._by_cycle: Dict[int, List[object]] = {}
        for fault, cycle in self.dictionary.first_detect.items():
            if cycle is not None:
                self._by_cycle.setdefault(cycle, []).append(fault)

    # ------------------------------------------------------------------
    def _clean_response(self) -> List[int]:
        core = self.build.make_core()
        return [core.step(word).port for word in self.words]

    def faulty_response(self, fault) -> List[int]:
        """The exact output stream of the core carrying ``fault``."""
        if isinstance(fault, StorageFault):
            core = storage_fault_core(fault, build=self.build)
            return [core.step(word).port for word in self.words]
        if not isinstance(fault, ComponentFault):
            raise TypeError(f"cannot simulate {fault!r}")
        sim = self.universe.comb_simulators[fault.component]
        spec = self.universe.spec(fault.component)

        def faulty_output(inputs: Dict[str, int]) -> int:
            return sim.faulty_output_word(fault.fault, inputs,
                                          spec.output_bus)

        core = self.build.make_core()
        overrides = {fault.component: faulty_output}
        return [core.step(word, overrides=overrides).port
                for word in self.words]

    # ------------------------------------------------------------------
    def candidates_for(self, observed: Sequence[int]) -> List[object]:
        """Shortlist: faults first detected near the first mismatch."""
        first = next(
            (t for t, (got, want) in enumerate(zip(observed, self.golden))
             if got != want),
            None,
        )
        if first is None:
            return []
        shortlist: List[object] = []
        for cycle in range(max(0, first - CYCLE_WINDOW),
                           first + CYCLE_WINDOW + 1):
            shortlist.extend(self._by_cycle.get(cycle, []))
        return shortlist

    def diagnose(self, observed: Sequence[int],
                 top_k: int = 5) -> List[DiagnosisCandidate]:
        """Rank the faults best explaining ``observed``.

        ``observed`` must have the same length as the diagnosis stream.
        An empty result means the response is clean or no modelled fault
        is detected near the first mismatch (an out-of-model defect).
        """
        if len(observed) != len(self.words):
            raise ConfigError(
                f"observed response has {len(observed)} cycles, "
                f"the diagnosis stream has {len(self.words)}"
            )
        ranked: List[DiagnosisCandidate] = []
        for fault in self.candidates_for(observed):
            predicted = self.faulty_response(fault)
            matches = sum(p == o for p, o in zip(predicted, observed))
            first = next(
                (t for t, (p, g) in enumerate(zip(predicted, self.golden))
                 if p != g),
                None,
            )
            ranked.append(DiagnosisCandidate(
                fault=fault,
                score=matches / len(observed),
                first_mismatch=first,
            ))
        ranked.sort(key=lambda c: -c.score)
        return ranked[:top_k]
