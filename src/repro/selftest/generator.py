"""End-to-end self-test generation (the paper's Fig. 3 flow).

``SelfTestGenerator`` builds (or accepts) the metrics table, runs Phase 1
and Phase 2, and assembles the final looped test program in the shape of
the paper's Fig. 7:

* random-operand loads (``ld rnd``) feed the instruction under test;
* accumulator randomisation sequences precede 'R'-state rows
  ("randomize accb" in Fig. 7);
* every selected instruction is followed by its ``out`` wrapper;
* Phase 2 sequences are appended with their observation tails;
* an ``out R0`` at the end observes a raw random register ("Output random
  value").

If coverage cannot be reached, thresholds are lowered a limited number of
times (the loop-back edge in Fig. 3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro import obs
from repro.bist.template import RandomLoad
from repro.dsp.family import PAPER_BUILD, CoreBuild
from repro.dsp.isa import Instruction, Opcode
from repro.metrics.controllability import InstructionVariant
from repro.metrics.observability import ObservabilityEngine
from repro.metrics.table import MetricsTable, build_metrics_table
from repro.selftest.phase1 import Phase1Result, run_phase1
from repro.selftest.phase2 import Phase2Result, run_phase2
from repro.selftest.program import Column, TestProgram

#: Registers reserved as random operands (reloaded every iteration).
RAND_REGS = (0, 1)
#: Times the flow may lower both thresholds when Phase 2 leaves columns
#: uncovered, and the step of each lowering.
MAX_THRESHOLD_REDUCTIONS = 2
THRESHOLD_STEP = 0.10


def dest_registers(build: CoreBuild = PAPER_BUILD) -> Tuple[int, ...]:
    """Destination registers for a family point.

    The paper core cycles through r2–r11; smaller register files shrink
    the pool (always leaving the random-operand registers r0/r1 and the
    shift-amount register r3 out of heavy rotation where possible) so no
    destination aliases a reserved register through address masking.
    """
    return tuple(range(2, max(4, build.spec.n_registers - 4)))


@dataclass
class GeneratedSelfTest:
    """Everything the generation flow produced."""

    table: MetricsTable
    phase1: Phase1Result
    phase2: Phase2Result
    program: TestProgram
    thresholds_used: Tuple[float, float]

    def summary(self) -> str:
        return "\n\n".join([
            self.phase1.summary(),
            self.phase2.summary(),
            f"program: {len(self.program.loop_lines)} loop instructions, "
            f"{len(self.program.one_shot_lines)} one-shot",
        ])


class SelfTestGenerator:
    """Runs the template-generation flow of the paper's Fig. 3."""

    def __init__(
        self,
        table: Optional[MetricsTable] = None,
        o_engine: Optional[ObservabilityEngine] = None,
        build: CoreBuild = PAPER_BUILD,
    ):
        self.table = table
        self.o_engine = o_engine
        self.build = build

    # ------------------------------------------------------------------
    def generate(self, **table_kwargs) -> GeneratedSelfTest:
        """Run metrics → Phase 1 → Phase 2 → program assembly.

        Each stage runs under an observability section (inert when no
        session is armed); the metrics table times itself as
        ``metrics.table``.
        """
        with obs.section("selftest.generate"):
            return self._generate(**table_kwargs)

    def _generate(self, **table_kwargs) -> GeneratedSelfTest:
        if self.table is not None:
            table = self.table
        else:
            table = build_metrics_table(build=self.build, **table_kwargs)

        c_theta, o_theta = table.c_theta, table.o_theta
        for round_ in range(MAX_THRESHOLD_REDUCTIONS + 1):
            view = table.with_thresholds(c_theta, o_theta)
            with obs.section("selftest.phase1"):
                phase1 = run_phase1(view)
            with obs.section("selftest.phase2"):
                phase2 = run_phase2(view, phase1, o_engine=self.o_engine,
                                    build=self.build)
            if not phase2.still_uncovered:
                break
            # "If sufficient coverage is not reached, the thresholds can be
            # lowered a limited amount of times."
            c_theta -= THRESHOLD_STEP
            o_theta -= THRESHOLD_STEP
        with obs.section("selftest.assemble"):
            program = assemble_program(view, phase1, phase2,
                                       build=self.build)
        return GeneratedSelfTest(
            table=view, phase1=phase1, phase2=phase2, program=program,
            thresholds_used=(c_theta, o_theta),
        )


# ----------------------------------------------------------------------
# Program assembly
# ----------------------------------------------------------------------
def _needs_random_acc(variant: InstructionVariant,
                      build: CoreBuild) -> Optional[str]:
    """Which accumulator ('A'/'B') must be randomised before this row."""
    if variant.acc_state != "R":
        return None
    return "B" if build.control_word(variant.opcode).accsel else "A"


def _concrete_instruction(variant: InstructionVariant, dest: int):
    """The variant with the generator's operand/destination registers.

    ``load`` rows become ``ld rnd`` template loads (LFSR1 data).
    """
    base = variant.instruction()
    if base.opcode is Opcode.LDI:
        return RandomLoad(dest)
    if base.opcode in (Opcode.OUTA, Opcode.OUTB, Opcode.NOP):
        return base
    if base.opcode is Opcode.OUT:
        return Instruction(Opcode.OUT, regb=RAND_REGS[1])
    if base.opcode is Opcode.MOV:
        return Instruction(Opcode.MOV, regb=RAND_REGS[0], dest=dest)
    return Instruction(base.opcode, rega=RAND_REGS[0], regb=RAND_REGS[1],
                       dest=dest)


def assemble_program(table: MetricsTable, phase1: Phase1Result,
                     phase2: Phase2Result,
                     build: CoreBuild = PAPER_BUILD) -> TestProgram:
    """Assemble the Fig. 7-style looped program from the phase results."""
    program = TestProgram()
    cw_fn = build.control_word
    dest_regs = dest_registers(build)
    dests = itertools.cycle(dest_regs)

    # Operand randomisation (the Load wrapper).
    for reg in RAND_REGS:
        program.add(RandomLoad(reg), phase="wrapper",
                    comment="load pseudorandom operand")

    acc_random = {"A": False, "B": False}

    def emit_randomise(acc: str) -> None:
        opcode = Opcode.MPYA if acc == "A" else Opcode.MPYB
        program.add(
            Instruction(opcode, rega=RAND_REGS[0], regb=RAND_REGS[1],
                        dest=next(dests)),
            phase="wrapper", comment=f"randomize acc{acc.lower()}",
        )
        acc_random[acc] = True

    def emit_selected(variant: InstructionVariant, covers: Sequence[Column],
                      phase: str,
                      observation: Sequence[Instruction] = ()) -> None:
        acc = _needs_random_acc(variant, build)
        if acc is not None and not acc_random[acc]:
            emit_randomise(acc)
        # MPY-class instructions overwrite the accumulator: after one runs,
        # the accumulator holds a product, which still counts as random.
        instr = _concrete_instruction(variant, next(dests))
        program.add(instr, phase=phase, covers=covers,
                    comment=variant.label, acc_state=variant.acc_state)
        if isinstance(instr, RandomLoad):
            ctrl = cw_fn(Opcode.LDI)
        else:
            ctrl = cw_fn(instr.opcode)
        if ctrl.reg_we:
            program.add(Instruction(Opcode.OUT, regb=instr.dest),
                        phase="wrapper", comment="observe result")
        for tail_instr in observation:
            program.add(tail_instr, phase=phase,
                        comment="Phase2 observation" if phase == "phase2"
                        else "")
        if ctrl.acc_we:
            acc = "B" if ctrl.accsel else "A"
            # The write only leaves the accumulator random when the
            # product path is open or it re-reads an already-random
            # accumulator; a shift of a still-zero accumulator stays zero.
            if ctrl.muxa_zero == 0 or (ctrl.muxb_shift == 1
                                       and acc_random[acc]):
                acc_random[acc] = True

    for variant, covers in phase1.selections:
        emit_selected(variant, covers, "phase1")
    for sequence in phase2.sequences:
        emit_selected(sequence.variant, [sequence.column], "phase2",
                      observation=sequence.observation)

    # Decoder sweep: one use of every opcode family the selections did not
    # pick, so every decoder minterm is exercised by the loop (the paper's
    # 34-instruction program touches most of the instruction set).
    used = {
        line.item.opcode for line in program.lines
        if isinstance(line.item, Instruction)
    }
    for opcode in Opcode:
        if opcode in used or opcode is Opcode.NOP:
            continue
        if cw_fn(opcode).acc_we or opcode in (
                Opcode.MOV, Opcode.OUT, Opcode.OUTA, Opcode.OUTB):
            variant = InstructionVariant(opcode, "R")
            acc = _needs_random_acc(variant, build)
            if acc is not None and not acc_random[acc]:
                emit_randomise(acc)
            instr = _concrete_instruction(variant, next(dests))
            program.add(instr, phase="wrapper", comment="decoder sweep",
                        acc_state=variant.acc_state)
            if cw_fn(opcode).reg_we:
                program.add(Instruction(Opcode.OUT, regb=instr.dest),
                            phase="wrapper", comment="observe result")

    # Observe the raw random registers ("Output random value" in Fig. 7)
    # and re-read the first destinations from a distance: the immediate
    # `out` wrappers above read through the forwarding bypass, so these
    # delayed reads are what actually exercises the register-file cells.
    program.add(Instruction(Opcode.OUT, regb=RAND_REGS[0]),
                phase="wrapper", comment="Output random value")
    program.add(Instruction(Opcode.OUT, regb=RAND_REGS[1]),
                phase="wrapper", comment="Output random value")
    for reg in dest_regs[:2]:
        program.add(Instruction(Opcode.OUT, regb=reg), phase="wrapper",
                    comment="delayed read (register file path)")
    program.add(Instruction(Opcode.OUTA), phase="wrapper",
                comment="observe AccA")
    program.add(Instruction(Opcode.OUTB), phase="wrapper",
                comment="observe AccB")
    return program
