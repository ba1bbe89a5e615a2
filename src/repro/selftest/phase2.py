"""Phase 2 — specific coverage of the leftovers (paper §2.4, §3.3).

Two mechanisms, straight from the paper:

a. *Sequences.*  "First we use instructions that provide sufficient
   randomness for the component and then we try to propagate the
   component's results to an observable output."  For each uncovered
   column we look for a row whose controllability clears the threshold and
   then verify candidate observation sequences (e.g. ``outa`` to expose
   AccA — the paper's "Phase2 Observe ACCA") with the observability
   engine.

b. *Unreachable modes.*  "Eliminate columns whose control bits are not set
   by any instruction" — e.g. the shifter's "10"/"11" columns, which no
   instruction of the ISA selects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dsp.family import PAPER_BUILD, CoreBuild
from repro.dsp.isa import Instruction, Opcode
from repro.metrics.controllability import InstructionVariant
from repro.metrics.observability import ObservabilityEngine
from repro.metrics.table import MetricsTable
from repro.selftest.phase1 import Phase1Result

Column = Tuple[str, int]


@dataclass(frozen=True)
class CoverageSequence:
    """A Phase 2 solution for one column: instruction + observation tail."""

    column: Column
    variant: InstructionVariant
    observation: Tuple[Instruction, ...]
    observability: float

    def describe(self) -> str:
        tail = "; ".join(
            i.opcode.name.lower() for i in self.observation
        ) or "(wrapper out)"
        return (f"{self.column[0]}:{self.column[1]} via {self.variant.label}"
                f" + [{tail}] (O={self.observability:.2f})")


@dataclass
class Phase2Result:
    """Outcome of Phase 2."""

    discarded_unreachable: List[Column]
    sequences: List[CoverageSequence]
    still_uncovered: List[Column]

    def summary(self) -> str:
        lines = ["Phase 2 (specific coverage):"]
        if self.discarded_unreachable:
            pretty = ", ".join(f"{c[0]}:{c[1]}"
                               for c in self.discarded_unreachable)
            lines.append(f"  discarded unreachable-mode columns: {pretty}")
        for seq in self.sequences:
            lines.append(f"  {seq.describe()}")
        lines.append("  still uncovered: "
                     + (", ".join(f"{c[0]}:{c[1]}"
                                  for c in self.still_uncovered) or "none"))
        return "\n".join(lines)


#: Scratch register used by observation tails on the paper core.  Family
#: points with fewer registers use their highest register instead (12
#: would alias a random-operand register through address masking).
_PAPER_OBS_REG = 12
#: Register holding the shift amount in shift-based observation tails.
_AMT_REG = 3


def observation_register(build: CoreBuild = PAPER_BUILD) -> int:
    """The scratch register observation tails write through."""
    return min(_PAPER_OBS_REG, build.spec.n_registers - 1)


def observation_library(build: CoreBuild = PAPER_BUILD
                        ) -> Dict[str, List[Tuple[Instruction, ...]]]:
    """Candidate observation tails per component.  The empty tail (the
    plain ``out dest`` wrapper) is always tried first."""
    obs_reg = observation_register(build)
    return {
        "acca": [(Instruction(Opcode.OUTA),),
                 (Instruction(Opcode.SHIFTA, rega=_AMT_REG, dest=obs_reg),
                  Instruction(Opcode.OUT, regb=obs_reg))],
        "accb": [(Instruction(Opcode.OUTB),),
                 (Instruction(Opcode.SHIFTB, rega=_AMT_REG, dest=obs_reg),
                  Instruction(Opcode.OUT, regb=obs_reg))],
        "muxg_shifter": [
            (Instruction(Opcode.MACA_ADD, rega=0, regb=1, dest=obs_reg),
             Instruction(Opcode.OUT, regb=obs_reg)),
            (Instruction(Opcode.MACB_ADD, rega=0, regb=1, dest=obs_reg),
             Instruction(Opcode.OUT, regb=obs_reg))],
        "muxg_limiter": [(Instruction(Opcode.OUTA),),
                         (Instruction(Opcode.OUTB),)],
        "temp": [(Instruction(Opcode.OUT, regb=2),)],
    }


def default_tails(build: CoreBuild = PAPER_BUILD
                  ) -> List[Tuple[Instruction, ...]]:
    obs_reg = observation_register(build)
    return [
        (),
        (Instruction(Opcode.OUTA),),
        (Instruction(Opcode.OUTB),),
        (Instruction(Opcode.MACA_ADD, rega=0, regb=1, dest=obs_reg),
         Instruction(Opcode.OUT, regb=obs_reg)),
    ]


def unreachable_columns(table: MetricsTable) -> List[Column]:
    """Columns never exercised by any instruction (no cell in any row)."""
    unreachable = []
    for column in table.columns:
        if not any(table.cell(row, column) is not None
                   for row in table.rows):
            unreachable.append(column)
    return unreachable


def run_phase2(
    table: MetricsTable,
    phase1: Phase1Result,
    o_engine: Optional[ObservabilityEngine] = None,
    build: CoreBuild = PAPER_BUILD,
) -> Phase2Result:
    """Cover the columns Phase 1 left behind."""
    engine = o_engine if o_engine is not None else ObservabilityEngine(
        n_good=6, build=build
    )
    unreachable = [c for c in unreachable_columns(table)
                   if c in phase1.uncovered]
    targets = [c for c in phase1.uncovered if c not in unreachable]

    sequences: List[CoverageSequence] = []
    still: List[Column] = []
    for column in targets:
        solved = self_sequence_for(column, table, engine, build=build)
        if solved is not None:
            sequences.append(solved)
        else:
            still.append(column)
    return Phase2Result(
        discarded_unreachable=unreachable,
        sequences=sequences,
        still_uncovered=still,
    )


def self_sequence_for(
    column: Column,
    table: MetricsTable,
    engine: ObservabilityEngine,
    build: CoreBuild = PAPER_BUILD,
) -> Optional[CoverageSequence]:
    """Find a (row, observation-tail) pair that covers ``column``."""
    component = column[0]
    # Rows whose randomness on the column clears the C threshold, best first.
    candidates = sorted(
        (row for row in table.rows
         if (cell := table.cell(row, column)) is not None
         and cell.c >= table.c_theta),
        key=lambda row: -table.cell(row, column).c,
    )
    tails = (observation_library(build).get(component, [])
             + default_tails(build))
    for row in candidates[:4]:
        for tail in tails:
            o_values = engine.measure(row, extra_wrapper=list(tail))
            observability = o_values.get(column, 0.0)
            if observability >= table.o_theta:
                return CoverageSequence(
                    column=column, variant=row, observation=tuple(tail),
                    observability=observability,
                )
    return None
