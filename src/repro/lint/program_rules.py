"""Self-test-program lint rules.

These check the generated (or hand-written) looped program against the
assumptions under which the metrics table was measured:

* ``PRG000`` — the loop section is empty (nothing to iterate);
* ``PRG001`` — an 'R'-state row executes while the selected accumulator
  is provably still zero (read-before-write vs the table's "0"/"R" state
  variants): the measured controllability does not apply to what the
  program actually runs;
* ``PRG002`` — dead store: a register write whose value no later
  instruction reads before it is overwritten, on an instruction with no
  other architectural effect — its result never reaches an ``Out``;
* ``PRG003`` — a line claims to cover a column whose mode no opcode can
  decode to (the static form of Phase 2's unreachable-mode discard);
* ``PRG004`` — the loop never drives the output port, so the MISR
  compacts nothing;
* ``PRG005`` — a '0'-state row whose accumulator is random in the steady
  state (iterations ≥ 2): the measured numbers only describe the first
  iteration (info);
* ``PRG006`` — a claimed column's mode disagrees with the line's own
  decoded control bits.

The accumulator/register dataflow model mirrors the behavioural core: an
instruction *reads* ``acc[accsel]`` iff ``muxb_shift`` is set and the
result is used (``acc_we`` or ``out_en``); a write leaves the accumulator
random iff the product path is open (``muxa_zero == 0``) or it re-reads an
already-random accumulator (``SHIFTA`` on a zero accumulator keeps it
zero).  Loops are analysed over two unrolled iterations so wrap-around
reads count and steady-state effects surface.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.bist.template import RandomLoad
from repro.dsp.isa import ControlWord, Instruction, Opcode, control_word
from repro.lint.findings import Finding, LintReport, Severity, finding, rule, run_rules
from repro.lint.modes import MODE_EXTRACTORS, component_mode, static_unreachable_columns
from repro.selftest.program import ProgramLine, TestProgram


def _control(line: ProgramLine) -> ControlWord:
    if isinstance(line.item, RandomLoad):
        return control_word(Opcode.LDI)  # the trap rewrites ld rnd to LDI
    return control_word(line.item.opcode)


def _writes_reg(line: ProgramLine) -> Optional[int]:
    """The register this line writes, or ``None``."""
    if isinstance(line.item, RandomLoad):
        return line.item.dest
    return line.item.dest if _control(line).reg_we else None


def _reads_regs(line: ProgramLine) -> Set[int]:
    """Registers whose *values* influence this line's visible results."""
    if isinstance(line.item, RandomLoad):
        return set()
    instr: Instruction = line.item
    op = instr.opcode
    if op in (Opcode.OUT, Opcode.MOV):
        return {instr.regb}
    cw = control_word(op)
    if op in (Opcode.LDI, Opcode.OUTA, Opcode.OUTB, Opcode.NOP):
        return set()
    # F1 (MAC family): the multiplier operands matter only when the
    # product reaches the adder; the shift amount is read from rega
    # whenever shmode selects shift-by-amount.
    reads: Set[int] = set()
    if cw.muxa_zero == 0:
        reads |= {instr.rega, instr.regb}
    if cw.shmode == 1:
        reads.add(instr.rega)
    return reads


def _loc(index: int, line: ProgramLine) -> str:
    return f"program:L{index}:{line.symbolic()}"


def _indexed_lines(program: TestProgram) -> List[Tuple[int, ProgramLine]]:
    return list(enumerate(program.lines))


def _schedule(program: TestProgram) -> List[Tuple[int, ProgramLine]]:
    """Execution order with the loop unrolled twice.

    Indices refer back to ``program.lines`` so findings point at the
    source line regardless of which unrolled copy detected them.
    """
    one_shot = [(i, l) for i, l in _indexed_lines(program) if not l.in_loop]
    loop = [(i, l) for i, l in _indexed_lines(program) if l.in_loop]
    return one_shot + loop * 2


# ----------------------------------------------------------------------
# PRG000 — structural sanity
# ----------------------------------------------------------------------
@rule("PRG000", "program", Severity.ERROR,
      "program has no loop section to iterate")
def check_loop_exists(program: TestProgram) -> Iterator[Finding]:
    if not program.loop_lines:
        yield finding(
            "PRG000", "program:loop",
            "no lines are marked in_loop; the test loop is empty",
            hint="a self-test program is a loop plus an optional one-shot "
                 "prologue — an empty loop tests nothing",
        )


# ----------------------------------------------------------------------
# PRG001 / PRG005 — accumulator-state assumptions vs reality
# ----------------------------------------------------------------------
def _acc_states_along(schedule: Sequence[Tuple[int, ProgramLine]]
                      ) -> List[Tuple[int, ProgramLine, str]]:
    """``(index, line, state-of-selected-acc-before-line)`` per step.

    States are "0" (provably still the reset value) and "R" (random /
    data-dependent).  Both accumulators start at "0" (power-up reset).
    """
    states = {0: "0", 1: "0"}  # accsel -> state
    out: List[Tuple[int, ProgramLine, str]] = []
    for index, line in schedule:
        cw = _control(line)
        out.append((index, line, states[cw.accsel]))
        if cw.acc_we:
            if cw.muxa_zero == 0:
                states[cw.accsel] = "R"  # product of random operands
            elif cw.muxb_shift == 1 and states[cw.accsel] == "R":
                states[cw.accsel] = "R"  # shifting a random acc
            else:
                states[cw.accsel] = "0"  # shift/clear of a zero acc
    return out


@rule("PRG001", "program", Severity.ERROR,
      "'R'-state row runs while the selected accumulator is provably zero")
def check_acc_read_before_write(program: TestProgram) -> Iterator[Finding]:
    first_pass = len(program.one_shot_lines) + len(program.loop_lines)
    seen: Set[int] = set()
    for index, line, state in _acc_states_along(_schedule(program))[:first_pass]:
        if line.acc_state != "R" or index in seen:
            continue
        seen.add(index)
        if state == "0":
            cw = _control(line)
            acc = "B" if cw.accsel else "A"
            yield finding(
                "PRG001", _loc(index, line),
                f"row {line.comment or line.symbolic()!r} assumes a random "
                f"Acc{acc}, but Acc{acc} is still zero when the line first "
                "executes",
                hint="insert a randomisation instruction (e.g. "
                     f"MPY{acc} on the random operands) before this line, "
                     "as the generator's 'randomize acc' wrapper does",
            )


@rule("PRG005", "program", Severity.INFO,
      "'0'-state row sees a random accumulator in the steady state")
def check_acc_zero_assumption(program: TestProgram) -> Iterator[Finding]:
    first_pass = len(program.one_shot_lines) + len(program.loop_lines)
    seen: Set[int] = set()
    for index, line, state in _acc_states_along(_schedule(program))[first_pass:]:
        if line.acc_state != "0" or index in seen:
            continue
        seen.add(index)
        if state == "R":
            cw = _control(line)
            acc = "B" if cw.accsel else "A"
            yield finding(
                "PRG005", _loc(index, line),
                f"row {line.comment or line.symbolic()!r} was measured with "
                f"Acc{acc}=0, but from the second iteration on Acc{acc} "
                "carries a random value",
                hint="harmless for coverage (random ⊇ zero randomness), "
                     "but the table's C value only describes iteration 1",
            )


# ----------------------------------------------------------------------
# PRG002 — dead stores
# ----------------------------------------------------------------------
@rule("PRG002", "program", Severity.ERROR,
      "dead store: register value never read before being overwritten")
def check_dead_stores(program: TestProgram) -> Iterator[Finding]:
    schedule = _schedule(program)
    source_len = len(program.lines)
    reported: Set[int] = set()
    for pos, (index, line) in enumerate(schedule):
        if pos >= source_len or index in reported:
            continue  # second unrolled copy: duplicates only
        dest = _writes_reg(line)
        if dest is None:
            continue
        cw = _control(line)
        if cw.acc_we or cw.out_en:
            continue  # the instruction has another architectural effect
        live = False
        redefined = False
        for _, later in schedule[pos + 1:]:
            if dest in _reads_regs(later):
                live = True
                break
            if _writes_reg(later) == dest:
                redefined = True
                break
        if not live:
            reported.add(index)
            yield finding(
                "PRG002", _loc(index, line),
                f"R{dest} is written but never read before "
                + ("being overwritten" if redefined else "the program ends"),
                hint="follow the write with an `out` wrapper (or drop the "
                     "line): a result that never reaches the output port "
                     "contributes nothing to the MISR signature",
            )


# ----------------------------------------------------------------------
# PRG003 — covers-claims on statically unreachable columns
# ----------------------------------------------------------------------
@rule("PRG003", "program", Severity.ERROR,
      "line claims to cover a column no opcode can reach")
def check_unreachable_covers(program: TestProgram) -> Iterator[Finding]:
    claimed = {
        column
        for line in program.lines
        for column in line.covers
    }
    unreachable = set(static_unreachable_columns(sorted(claimed)))
    if not unreachable:
        return
    for index, line in _indexed_lines(program):
        for column in line.covers:
            if column in unreachable:
                yield finding(
                    "PRG003", _loc(index, line),
                    f"claims column {column[0]}:{column[1]}, whose mode is "
                    "selected by no opcode's control bits",
                    hint="Phase 2 discards such columns (\"eliminate "
                         "columns whose control bits are not set by any "
                         "instruction\"); a claim here is a bookkeeping bug",
                )


# ----------------------------------------------------------------------
# PRG004 — unobservable loop
# ----------------------------------------------------------------------
@rule("PRG004", "program", Severity.ERROR,
      "test loop never drives the output port")
def check_loop_observability(program: TestProgram) -> Iterator[Finding]:
    loop = program.loop_lines
    if not loop:
        return  # PRG000's finding
    if not any(_control(line).out_en for line in loop):
        yield finding(
            "PRG004", "program:loop",
            "no loop instruction has out_en set; the MISR compacts "
            "nothing and every fault is unobservable",
            hint="add `out`/`outa`/`outb` observation instructions — the "
                 "paper wraps every selected instruction with one",
        )


# ----------------------------------------------------------------------
# PRG006 — covers mode vs the line's own control bits
# ----------------------------------------------------------------------
@rule("PRG006", "program", Severity.WARNING,
      "claimed column's mode disagrees with the line's control bits")
def check_covers_mode(program: TestProgram) -> Iterator[Finding]:
    for index, line in _indexed_lines(program):
        if not line.covers:
            continue
        cw = _control(line)
        for component, mode in line.covers:
            if component not in MODE_EXTRACTORS:
                continue  # single-mode components are always mode 0
            actual = component_mode(component, cw)
            if actual != mode:
                yield finding(
                    "PRG006", _loc(index, line),
                    f"claims {component}:{mode} but its opcode decodes "
                    f"{component} into mode {actual}",
                    hint="the coverage bookkeeping drifted from the "
                         "decoder truth table; re-derive covers from "
                         "control_word()",
                )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def lint_program(program: TestProgram,
                 min_severity: Severity = Severity.INFO) -> LintReport:
    """Run the program rules of ``min_severity`` or above."""
    return run_rules("program", program, min_severity)
