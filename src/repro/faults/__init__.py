"""Stuck-at fault modelling and fault simulation.

* :mod:`repro.faults.model` — the single-stuck-at fault universe over a
  netlist, with classic equivalence collapsing.
* :mod:`repro.faults.combsim` — pattern-parallel single-fault propagation
  over combinational netlists (per-fault fanout-cone re-evaluation).
* :mod:`repro.faults.seqsim` — fault-parallel sequential fault simulation
  (one fault machine per packed bit) for full-netlist grading.
* :mod:`repro.faults.coverage` — fault/test coverage bookkeeping, matching
  the fault-coverage vs test-coverage distinction the paper reports.
* :mod:`repro.faults.hierarchical` — the Tetramax substitute used for the
  full DSP core: component-local gate-level detection plus exact
  behavioural error propagation to the core output.
"""

from repro.faults.model import (
    Fault,
    FaultList,
    full_fault_list,
    collapse_faults,
)
from repro.faults.combsim import CombFaultSimulator
from repro.faults.seqsim import SeqFaultSimulator
from repro.faults.coverage import CoverageReport

__all__ = [
    "Fault",
    "FaultList",
    "full_fault_list",
    "collapse_faults",
    "CombFaultSimulator",
    "SeqFaultSimulator",
    "CoverageReport",
]
