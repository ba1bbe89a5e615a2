"""End-to-end self-test generation for the simple Fig. 1 datapath.

The paper introduces the method on the toy datapath before the industrial
core; this module completes that story end to end — and, because the toy
core is small enough for *exact* flat gate-level sequential fault
simulation, it doubles as a full-precision check of the methodology:

1. build Table 1 (:func:`repro.metrics.simple_metrics.build_table1`);
2. greedily cover its columns (the paper's Phase 1: "Mac R covers three
   columns.  This instruction is chosen");
3. schedule the chosen rows into a loop (an accumulator-randomising MAC is
   prepended when a row assumes the 'R' state);
4. expand the loop with pseudorandom operands and grade it against every
   collapsed stuck-at fault of the flat netlist.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dsp.simple import (
    SIMPLE_COLUMN_LABELS,
    SIMPLE_COLUMNS,
    SimpleOp,
    make_simple_core,
)
from repro.faults.seqsim import SeqFaultResult, SeqFaultSimulator
from repro.metrics.simple_metrics import SimpleVariant, table1_variants
from repro.metrics.table import MetricsCell


@dataclass
class SimpleSelfTest:
    """The generated loop for the simple datapath."""

    chosen: List[Tuple[SimpleVariant, List[str]]]
    schedule: List[SimpleOp] = field(default_factory=list)
    uncovered: List[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = ["simple-core Phase 1:"]
        for variant, columns in self.chosen:
            lines.append(f"  {variant.label:<8} covers "
                         + ", ".join(columns))
        lines.append("  loop: " + " ".join(op.name for op in self.schedule))
        if self.uncovered:
            lines.append("  uncovered: " + ", ".join(self.uncovered))
        return "\n".join(lines)


def generate_simple_selftest(
    table1: Dict[str, Dict[str, MetricsCell]],
) -> SimpleSelfTest:
    """Greedy covering of Table 1 and loop scheduling."""
    remaining = [SIMPLE_COLUMN_LABELS[c] for c in SIMPLE_COLUMNS]
    variants = table1_variants()
    chosen: List[Tuple[SimpleVariant, List[str]]] = []
    while remaining:
        best: Optional[SimpleVariant] = None
        best_columns: List[str] = []
        for variant in variants:
            row = table1.get(variant.label, {})
            columns = [c for c in remaining
                       if c in row and row[c].covered()]
            if len(columns) > len(best_columns):
                best, best_columns = variant, columns
        if best is None:
            break
        chosen.append((best, best_columns))
        variants.remove(best)
        for column in best_columns:
            remaining.remove(column)

    schedule: List[SimpleOp] = []
    acc_random = False
    for variant, _ in chosen:
        if variant.acc_state == "R" and not acc_random:
            schedule.append(SimpleOp.MAC)  # randomise the accumulator
            acc_random = True
        schedule.append(variant.op)
        if variant.op is SimpleOp.CLR:
            acc_random = False
    return SimpleSelfTest(chosen=chosen, schedule=schedule,
                          uncovered=remaining)


def simple_selftest_stimulus(
    selftest: SimpleSelfTest, n_iterations: int, seed: int = 77,
) -> Dict[str, List[int]]:
    """Expand the loop into per-cycle bus stimulus for the flat netlist.

    Operands come from a seeded pseudorandom stream (the LFSR1
    analogue).
    """
    rng = random.Random(seed)
    ops: List[int] = []
    in1: List[int] = []
    in2: List[int] = []
    for _ in range(n_iterations):
        for op in selftest.schedule:
            ops.append(int(op))
            in1.append(rng.randrange(256))
            in2.append(rng.randrange(256))
    return {"op": ops, "in1": in1, "in2": in2}


def grade_simple_selftest(
    stimulus: Dict[str, List[int]],
) -> Tuple[SeqFaultResult, int]:
    """Exact flat gate-level grading; returns (result, n_faults)."""
    netlist = make_simple_core()
    simulator = SeqFaultSimulator(netlist)
    result = simulator.run_sequence(stimulus)
    return result, len(simulator.fault_list.faults)
