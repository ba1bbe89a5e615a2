"""Tests for the test-program IR and vector expansion."""

import pytest

from repro.bist.lfsr import Lfsr
from repro.bist.template import RandomLoad
from repro.dsp.isa import Instruction, Opcode, decode
from repro.selftest.program import TestProgram
from repro.selftest.vectors import (
    expand_program,
    run_with_misr,
    vector_file_lines,
)


def small_program():
    program = TestProgram()
    program.add(RandomLoad(0), phase="wrapper")
    program.add(RandomLoad(1), phase="wrapper")
    program.add(Instruction(Opcode.MPYA, rega=0, regb=1, dest=2),
                phase="phase1", covers=[("multiplier", 0)])
    program.add(Instruction(Opcode.OUT, regb=2), phase="wrapper")
    return program


def test_program_lengths_and_sections():
    program = small_program()
    program.add(Instruction(Opcode.LDI, imm=7, dest=3), in_loop=False,
                phase="phase3")
    assert len(program) == 5
    assert len(program.loop_lines) == 4
    assert len(program.one_shot_lines) == 1
    assert program.n_vectors(10) == 1 + 40


def test_covered_columns_deduplicated():
    program = TestProgram()
    program.add(Instruction(Opcode.NOP), covers=[("a", 0), ("b", 1)])
    program.add(Instruction(Opcode.NOP), covers=[("a", 0)])
    assert program.covered_columns() == [("a", 0), ("b", 1)]


def test_render_figure7_style():
    program = small_program()
    text = program.render()
    assert "ld rnd, R0" in text
    assert "MPYA R0, R1, R2" in text
    assert "multiplier:0" in text
    # Bit codes are 17 characters of 0/1.
    first = text.splitlines()[0].split()[0]
    assert len(first) == 17 and set(first) <= {"0", "1"}


def test_render_marks_one_shot_section():
    program = small_program()
    program.add(Instruction(Opcode.LDI, imm=1, dest=3), in_loop=False)
    text = program.render()
    assert "one-shot" in text
    assert "test loop" in text


def test_expand_program_counts():
    words = expand_program(small_program(), 7)
    assert len(words) == 7 * 4


def test_expand_program_one_shots_first():
    program = small_program()
    program.add(Instruction(Opcode.LDI, imm=0x3C, dest=9), in_loop=False)
    words = expand_program(program, 2)
    first = decode(words[0])
    assert first.opcode is Opcode.LDI and first.imm == 0x3C
    assert len(words) == 1 + 2 * 4


def test_expand_program_rejects_random_one_shot():
    program = TestProgram()
    program.add(Instruction(Opcode.NOP))
    program.add(RandomLoad(0), in_loop=False)
    with pytest.raises(ValueError):
        expand_program(program, 1)


def test_run_with_misr_signature_deterministic():
    program = small_program()

    def golden():
        run = run_with_misr(expand_program(
            program, 5, lfsr1=Lfsr(16, seed=3), lfsr2=Lfsr(8, seed=4)))
        return run.signature, run.n_vectors

    assert golden() == golden()
    assert golden()[1] == 20


def test_misr_signature_detects_faulty_core():
    """A stuck register-file bit must change the self-test signature."""
    from repro.dsp.core import DspCore
    from repro.bist.misr import Misr
    program = TestProgram()
    program.add(RandomLoad(0))
    program.add(RandomLoad(1))
    program.add(Instruction(Opcode.MPYA, rega=0, regb=1, dest=2))
    # Distance > 2 so the `out` reads the register file itself rather than
    # a forwarding bypass.
    program.add(Instruction(Opcode.NOP))
    program.add(Instruction(Opcode.NOP))
    program.add(Instruction(Opcode.OUT, regb=2))
    words = expand_program(program, 10, lfsr1=Lfsr(16, seed=9),
                           mask_registers=False)
    golden = run_with_misr(words).signature

    # Stick the sign bit of R2, the observed MPY destination.
    faulty_core = DspCore(stuck_bits={("reg", 2): (0xFF & ~0x80, 0)})
    misr = Misr(8)
    from repro.dsp.isa import encode
    nop = encode(Instruction(Opcode.NOP))
    for word in words + [nop] * 4:
        misr.absorb(faulty_core.step(word).port)
    assert misr.signature != golden


def test_vector_file_lines():
    lines = vector_file_lines(expand_program(small_program(), 1))
    assert len(lines) == 4
    assert all(len(l) == 17 for l in lines)


def test_run_with_misr_keep_outputs():
    words = expand_program(small_program(), 3)
    run = run_with_misr(words, keep_outputs=True)
    assert len(run.output_stream) == len(words) + 4
    assert run.n_vectors == len(words)
