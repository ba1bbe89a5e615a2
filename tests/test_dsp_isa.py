"""Tests for the 17-bit ISA: encoding, decoding, assembly, control words."""

import pytest
from hypothesis import given, strategies as st

from repro._util import bits
from repro.dsp.isa import (
    CONTROL_WIDTH,
    ControlWord,
    Instruction,
    LD_RND,
    Opcode,
    PAPER_MNEMONICS,
    UNUSED_OPCODES,
    assemble,
    assemble_program,
    control_word,
    decode,
    disassemble,
    encode,
)


def test_opcode_values_are_five_bits():
    for op in Opcode:
        assert 0 <= int(op) < 32


def test_unused_opcodes_exist_for_trapping():
    """The template architecture needs free opcode space for ld-rnd."""
    assert len(UNUSED_OPCODES) >= 4
    assert LD_RND in UNUSED_OPCODES
    assert all(u not in {int(op) for op in Opcode} for u in UNUSED_OPCODES)


def test_format1_encoding():
    instr = Instruction(Opcode.MPYB, rega=0, regb=1, dest=2)
    word = encode(instr)
    assert bits(word, 16, 12) == int(Opcode.MPYB)
    assert bits(word, 11, 8) == 0
    assert bits(word, 7, 4) == 1
    assert bits(word, 3, 0) == 2


def test_format2_encoding():
    instr = Instruction(Opcode.LDI, imm=0x70, dest=3)
    word = encode(instr)
    assert bits(word, 11, 4) == 0x70
    assert bits(word, 3, 0) == 3


def test_decode_unknown_opcode_is_nop():
    word = LD_RND << 12
    assert decode(word).opcode is Opcode.NOP


def test_decode_rejects_wide_words():
    with pytest.raises(ValueError):
        decode(1 << 17)


@given(st.sampled_from(sorted(Opcode)), st.integers(0, 15),
       st.integers(0, 15), st.integers(0, 15), st.integers(0, 255))
def test_encode_decode_roundtrip(op, rega, regb, dest, imm):
    if op is Opcode.LDI:
        instr = Instruction(op, imm=imm, dest=dest)
    else:
        instr = Instruction(op, rega=rega, regb=regb, dest=dest)
    assert decode(encode(instr)) == instr


def test_instruction_field_validation():
    with pytest.raises(ValueError):
        Instruction(Opcode.MPYA, rega=16)
    with pytest.raises(ValueError):
        Instruction(Opcode.LDI, imm=256)


def test_assemble_paper_listing_lines():
    """Lines in the style of the paper's Fig. 7 must assemble."""
    program = assemble_program(
        """
        ; randomisation sequence
        ld 0x70, R3
        MPYB R0, R1, R2
        out R2
        SHIFTB R3, R4
        MACB+ R6, R5, R7
        MACTA- R8, R9, R11
        SHIFTB R8, R15, R10
        mov R3, R4
        outa
        nop
        """
    )
    assert [i.opcode for i in program] == [
        Opcode.LDI, Opcode.MPYB, Opcode.OUT, Opcode.SHIFTB,
        Opcode.MACB_ADD, Opcode.MACTA_SUB, Opcode.SHIFTB, Opcode.MOV,
        Opcode.OUTA, Opcode.NOP,
    ]
    assert program[0].imm == 0x70 and program[0].dest == 3
    assert program[6].rega == 8 and program[6].dest == 10


def test_assemble_rejects_bad_input():
    with pytest.raises(ValueError):
        assemble("FROB R1, R2")
    with pytest.raises(ValueError):
        assemble("ld R1")
    with pytest.raises(ValueError):
        assemble("out 5")
    with pytest.raises(ValueError):
        assemble("nop R1")


@given(st.sampled_from(sorted(Opcode)), st.integers(0, 15),
       st.integers(0, 15), st.integers(0, 15), st.integers(0, 255))
def test_disassemble_assemble_roundtrip(op, rega, regb, dest, imm):
    if op is Opcode.LDI:
        instr = Instruction(op, imm=imm, dest=dest)
    elif op is Opcode.OUT:
        instr = Instruction(op, regb=regb)
    elif op in (Opcode.OUTA, Opcode.OUTB, Opcode.NOP):
        instr = Instruction(op)
    elif op is Opcode.MOV:
        instr = Instruction(op, regb=regb, dest=dest)
    elif op in (Opcode.SHIFTA, Opcode.SHIFTB):
        instr = Instruction(op, rega=rega, dest=dest)
    else:
        instr = Instruction(op, rega=rega, regb=regb, dest=dest)
    assert assemble(disassemble(instr)) == instr


def test_control_word_pack_unpack():
    for op in Opcode:
        cw = control_word(op)
        assert ControlWord.unpack(cw.pack()) == cw
        assert 0 <= cw.pack() < (1 << CONTROL_WIDTH)


def test_control_word_semantics():
    mpy = control_word(Opcode.MPYA)
    assert mpy.muxa_zero == 0 and mpy.muxb_shift == 0
    assert mpy.acc_we == 1 and mpy.accsel == 0 and mpy.mux7_buffer == 0

    mac_sub_b = control_word(Opcode.MACB_SUB)
    assert mac_sub_b.sub == 1 and mac_sub_b.accsel == 1
    assert mac_sub_b.muxb_shift == 1 and mac_sub_b.shmode == 0

    shift = control_word(Opcode.SHIFTA)
    assert shift.muxa_zero == 1 and shift.shmode == 1

    ldi = control_word(Opcode.LDI)
    assert ldi.buf_imm == 1 and ldi.mux7_buffer == 1 and ldi.reg_we == 1
    assert ldi.acc_we == 0

    out = control_word(Opcode.OUT)
    assert out.out_en == 1 and out.reg_we == 0 and out.mux7_buffer == 1

    outb = control_word(Opcode.OUTB)
    assert outb.out_en == 1 and outb.mux7_buffer == 0
    assert outb.muxa_zero == 1 and outb.muxb_shift == 1 and outb.accsel == 1
    assert outb.acc_we == 0


def test_no_instruction_uses_shifter_modes_2_or_3():
    """The paper's E2 study relies on modes '10'/'11' being unreachable."""
    for op in Opcode:
        assert control_word(op).shmode in (0, 1)


def test_truncate_ops():
    for op in (Opcode.MPYTA, Opcode.MACTB_ADD, Opcode.MACTA_SUB):
        assert control_word(op).trunc == 1
    for op in (Opcode.MPYA, Opcode.MACB_ADD):
        assert control_word(op).trunc == 0


def test_decoder_truth_table_covers_all_opcodes():
    from repro.dsp.corespec import PAPER_SPEC, decoder_truth_table_for
    table = decoder_truth_table_for(PAPER_SPEC)
    assert set(table) == {int(op) for op in Opcode}
    assert table[int(Opcode.MPYA)] == control_word(Opcode.MPYA).pack()


def test_paper_mnemonics_all_mapped():
    for mnemonic, ops in PAPER_MNEMONICS.items():
        assert ops, mnemonic
        for op in ops:
            assert isinstance(op, Opcode)
