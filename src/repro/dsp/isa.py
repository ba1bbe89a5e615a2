"""The DSP core's 17-bit instruction set.

The paper publishes the four instruction formats (Fig. 4) and the mnemonics
used throughout Section 3, but not the full binary opcode map (the Fig. 7
listing is partially illegible in the published text).  This module defines
a concrete, internally consistent 5-bit opcode map covering every mnemonic
the paper uses; see DESIGN.md for the correspondence.

Formats (Fig. 4)::

    F1  [16:12]=opcode [11:8]=regA [7:4]=regB  [3:0]=dest     (MAC family)
    F2  [16:12]=opcode [11:4]=immediate        [3:0]=dest     (load)
    F3  [16:12]=opcode [11:8]=xxxx [7:4]=src   [3:0]=xxxx     (out)
    F4  [16:12]=00010  [11:8]=xxxx [7:4]=src   [3:0]=dest     (move)

The per-opcode *control word* (:func:`control_word`) is the single source
of truth for both the behavioural pipeline and the gate-level decoder.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Dict, List, Tuple

from repro._util import bits, set_field

INSTRUCTION_WIDTH = 17
OPCODE_WIDTH = 5
N_REGISTERS = 16


class Opcode(IntEnum):
    """5-bit opcodes.  Suffix A/B selects the accumulator."""

    NOP = 0b00000
    OUT = 0b00001           # F3: drive output port with R[src] via buffer
    MOV = 0b00010           # F4: R[dest] <- R[src] via buffer
    OUTA = 0b00011          # F3 (no fields): output AccA through the limiter
    OUTB = 0b00100
    LDI = 0b00101           # F2: R[dest] <- immediate via buffer
    MPYA = 0b01000          # acc <- P
    MPYB = 0b01001
    MPYTA = 0b01010         # acc <- trunc(P)
    MPYTB = 0b01011
    MACA_ADD = 0b01100      # acc <- acc + P
    MACB_ADD = 0b01101
    MACA_SUB = 0b01110      # acc <- acc - P
    MACB_SUB = 0b01111
    MACTA_ADD = 0b10000     # acc <- trunc(acc + P)
    MACTB_ADD = 0b10001
    MACTA_SUB = 0b10010
    MACTB_SUB = 0b10011
    SHIFTA = 0b10100        # acc <- shift(acc, amt = R[a][3:0] signed)
    SHIFTB = 0b10101
    MPYSHIFTA = 0b10110     # acc <- shift(acc, amt) + P
    MPYSHIFTB = 0b10111
    MPYSHIFTMACA = 0b11000  # acc <- shift(acc, amt) - P
    MPYSHIFTMACB = 0b11001


#: Opcode values with no architectural meaning; the template architecture
#: traps these (the paper's "load pseudorandom data" instructions).
UNUSED_OPCODES = sorted(
    set(range(1 << OPCODE_WIDTH)) - {int(op) for op in Opcode}
)

#: The trapped opcode the template architecture rewrites into an LDI whose
#: immediate comes from LFSR1 ("ld rnd" in the paper's Fig. 7).
LD_RND = UNUSED_OPCODES[1]  # 0b00111

#: Paper mnemonic → our opcode(s), for documentation and the benches.
PAPER_MNEMONICS: Dict[str, Tuple[Opcode, ...]] = {
    "load": (Opcode.LDI,),
    "mpy": (Opcode.MPYA, Opcode.MPYB),
    "mpyt": (Opcode.MPYTA, Opcode.MPYTB),
    "Mac+": (Opcode.MACA_ADD, Opcode.MACB_ADD),
    "Mac-": (Opcode.MACA_SUB, Opcode.MACB_SUB),
    "Mact+": (Opcode.MACTA_ADD, Opcode.MACTB_ADD),
    "Mact-": (Opcode.MACTA_SUB, Opcode.MACTB_SUB),
    "shift": (Opcode.SHIFTA, Opcode.SHIFTB),
    "Mpyshift": (Opcode.MPYSHIFTA, Opcode.MPYSHIFTB),
    "Mpyshiftmac": (Opcode.MPYSHIFTMACA, Opcode.MPYSHIFTMACB),
    "Out": (Opcode.OUT,),
    "Outr": (Opcode.OUTA, Opcode.OUTB),
}

_MAC_FAMILY = {
    Opcode.MPYA, Opcode.MPYB, Opcode.MPYTA, Opcode.MPYTB,
    Opcode.MACA_ADD, Opcode.MACB_ADD, Opcode.MACA_SUB, Opcode.MACB_SUB,
    Opcode.MACTA_ADD, Opcode.MACTB_ADD, Opcode.MACTA_SUB, Opcode.MACTB_SUB,
    Opcode.SHIFTA, Opcode.SHIFTB, Opcode.MPYSHIFTA, Opcode.MPYSHIFTB,
    Opcode.MPYSHIFTMACA, Opcode.MPYSHIFTMACB,
}

_ACC_B = {
    Opcode.MPYB, Opcode.MPYTB, Opcode.MACB_ADD, Opcode.MACB_SUB,
    Opcode.MACTB_ADD, Opcode.MACTB_SUB, Opcode.SHIFTB, Opcode.MPYSHIFTB,
    Opcode.MPYSHIFTMACB, Opcode.OUTB,
}

_SUB_OPS = {
    Opcode.MACA_SUB, Opcode.MACB_SUB, Opcode.MACTA_SUB, Opcode.MACTB_SUB,
    Opcode.MPYSHIFTMACA, Opcode.MPYSHIFTMACB,
}

_TRUNC_OPS = {
    Opcode.MPYTA, Opcode.MPYTB, Opcode.MACTA_ADD, Opcode.MACTB_ADD,
    Opcode.MACTA_SUB, Opcode.MACTB_SUB,
}

_SHIFT_BY_AMOUNT = {
    Opcode.SHIFTA, Opcode.SHIFTB, Opcode.MPYSHIFTA, Opcode.MPYSHIFTB,
    Opcode.MPYSHIFTMACA, Opcode.MPYSHIFTMACB,
}

#: Ops whose X (product-side) adder operand is zero rather than the product.
_ZERO_PRODUCT = {Opcode.SHIFTA, Opcode.SHIFTB}


@dataclass(frozen=True)
class ControlWord:
    """Decoded control bits for one opcode.

    The seven MAC control bits of the paper's Fig. 5 are ``muxa_zero``,
    ``muxb_shift``, ``sub``, ``shmode`` (two bits), ``trunc`` and
    ``accsel``; the rest steer the pipeline back end.
    """

    muxa_zero: int      # 1: adder X operand = 0, 0: X = product
    muxb_shift: int     # 1: adder Y operand = shifter output, 0: Y = 0
    sub: int            # 1: result = Y - X, 0: Y + X
    shmode: int         # shifter control bits (c, d): 0..3
    trunc: int          # 1: zero the 8 fractional bits before the acc
    accsel: int         # 0: AccA, 1: AccB
    acc_we: int         # accumulator write enable
    reg_we: int         # register-file write enable (dest field)
    mux7_buffer: int    # 1: MUX7 selects the stage-3 buffer, 0: MacReg
    out_en: int         # 1: drive the core output port in WB
    buf_imm: int        # 1: buffer loads the immediate field (LDI)

    def pack(self) -> int:
        """Pack into the 12-bit word implemented by the gate-level decoder."""
        word = 0
        word |= self.muxa_zero << 0
        word |= self.muxb_shift << 1
        word |= self.sub << 2
        word |= self.shmode << 3
        word |= self.trunc << 5
        word |= self.accsel << 6
        word |= self.acc_we << 7
        word |= self.reg_we << 8
        word |= self.mux7_buffer << 9
        word |= self.out_en << 10
        word |= self.buf_imm << 11
        return word

    @staticmethod
    def unpack(word: int) -> "ControlWord":
        return ControlWord(
            muxa_zero=(word >> 0) & 1,
            muxb_shift=(word >> 1) & 1,
            sub=(word >> 2) & 1,
            shmode=(word >> 3) & 3,
            trunc=(word >> 5) & 1,
            accsel=(word >> 6) & 1,
            acc_we=(word >> 7) & 1,
            reg_we=(word >> 8) & 1,
            mux7_buffer=(word >> 9) & 1,
            out_en=(word >> 10) & 1,
            buf_imm=(word >> 11) & 1,
        )


CONTROL_WIDTH = 12


@lru_cache(maxsize=None)
def control_word(opcode: Opcode) -> ControlWord:
    """Control bits for ``opcode`` — the decoder's truth table.

    Control bits only gate *writes*: during non-MAC instructions the MAC
    datapath keeps computing ``shift00(AccA) + product`` from whatever the
    register file read ports carry.  This free-running behaviour is what
    the paper's metrics table reflects (e.g. the ``load`` rows exercising
    the multiplier and shifter).
    """
    is_mac = opcode in _MAC_FAMILY
    is_outacc = opcode in (Opcode.OUTA, Opcode.OUTB)
    return ControlWord(
        muxa_zero=1 if (opcode in _ZERO_PRODUCT or is_outacc) else 0,
        muxb_shift=0 if opcode in (Opcode.MPYA, Opcode.MPYB, Opcode.MPYTA,
                                   Opcode.MPYTB) else 1,
        sub=1 if opcode in _SUB_OPS else 0,
        shmode=1 if opcode in _SHIFT_BY_AMOUNT else 0,
        trunc=1 if opcode in _TRUNC_OPS else 0,
        accsel=1 if opcode in _ACC_B else 0,
        acc_we=1 if is_mac else 0,
        reg_we=1 if (is_mac or opcode in (Opcode.LDI, Opcode.MOV)) else 0,
        mux7_buffer=0 if (is_mac or is_outacc) else 1,
        out_en=1 if opcode in (Opcode.OUT, Opcode.OUTA, Opcode.OUTB) else 0,
        buf_imm=1 if opcode is Opcode.LDI else 0,
    )


# ----------------------------------------------------------------------
# Instructions, encoding, assembly
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Instruction:
    """A decoded instruction.

    Field meaning depends on the opcode's format: F1 uses ``rega``,
    ``regb``, ``dest``; F2 uses ``imm``, ``dest``; F3 uses ``regb`` as the
    source; F4 uses ``regb`` (source) and ``dest``.  Unused fields are 0.
    """

    opcode: Opcode
    rega: int = 0
    regb: int = 0
    dest: int = 0
    imm: int = 0

    def __post_init__(self):
        for field_name in ("rega", "regb", "dest"):
            value = getattr(self, field_name)
            if not 0 <= value < N_REGISTERS:
                raise ValueError(f"{field_name}={value} out of range")
        if not 0 <= self.imm < 256:
            raise ValueError(f"imm={self.imm} out of range")


def encode(instr: Instruction) -> int:
    """Encode an :class:`Instruction` into its 17-bit word."""
    word = set_field(0, 16, 12, int(instr.opcode))
    if instr.opcode is Opcode.LDI:
        word = set_field(word, 11, 4, instr.imm)
        word = set_field(word, 3, 0, instr.dest)
    else:
        word = set_field(word, 11, 8, instr.rega)
        word = set_field(word, 7, 4, instr.regb)
        word = set_field(word, 3, 0, instr.dest)
    return word


@lru_cache(maxsize=1 << 17)
def decode(word: int) -> Instruction:
    """Decode a 17-bit word.  Unknown opcodes decode as NOP (the hardware
    treats unused opcodes as no-operations unless the template architecture
    traps them first).

    Cached: instruction words repeat heavily in looped self-test programs
    and :class:`Instruction` is immutable.
    """
    if not 0 <= word < (1 << INSTRUCTION_WIDTH):
        raise ValueError(f"instruction word {word:#x} is not 17 bits")
    opcode_value = bits(word, 16, 12)
    try:
        opcode = Opcode(opcode_value)
    except ValueError:
        return Instruction(Opcode.NOP)
    if opcode is Opcode.LDI:
        return Instruction(opcode, imm=bits(word, 11, 4), dest=bits(word, 3, 0))
    return Instruction(
        opcode,
        rega=bits(word, 11, 8),
        regb=bits(word, 7, 4),
        dest=bits(word, 3, 0),
    )


_ASM_RE = re.compile(
    r"^\s*(?P<mn>[A-Za-z+_-]+[+-]?)\s*(?P<ops>[^;]*?)\s*(?:;.*)?$"
)


def _parse_reg(token: str) -> int:
    token = token.strip()
    if not token.upper().startswith("R"):
        raise ValueError(f"expected register, got {token!r}")
    return int(token[1:])


def assemble(line: str) -> Instruction:
    """Assemble one line of symbolic code into an :class:`Instruction`.

    Syntax follows the paper's Fig. 7 listing, e.g.::

        ld 0x70, R3
        MPYB R0, R1, R2
        MACA+ R6, R5, R7
        SHIFTB R3, R4
        out R2
        outa
        mov R3, R4
        nop
    """
    match = _ASM_RE.match(line)
    if not match or not match.group("mn"):
        raise ValueError(f"cannot parse {line!r}")
    mnemonic = match.group("mn").upper()
    operands = [t for t in match.group("ops").replace(",", " ").split() if t]

    aliases = {
        "LD": "LDI", "LOAD": "LDI",
        "MPY": "MPYA", "MPYT": "MPYTA",
        "MAC+": "MACA_ADD", "MAC-": "MACA_SUB",
        "MACA+": "MACA_ADD", "MACA-": "MACA_SUB",
        "MACB+": "MACB_ADD", "MACB-": "MACB_SUB",
        "MACT+": "MACTA_ADD", "MACT-": "MACTA_SUB",
        "MACTA+": "MACTA_ADD", "MACTA-": "MACTA_SUB",
        "MACTB+": "MACTB_ADD", "MACTB-": "MACTB_SUB",
        "SHIFT": "SHIFTA", "MPYSHIFT": "MPYSHIFTA",
        "MPYSHIFTMAC": "MPYSHIFTMACA",
        "OUTR": "OUTA",
    }
    name = aliases.get(mnemonic, mnemonic)
    try:
        opcode = Opcode[name]
    except KeyError:
        raise ValueError(f"unknown mnemonic {mnemonic!r}") from None

    if opcode is Opcode.LDI:
        if len(operands) != 2:
            raise ValueError(f"ld needs an immediate and a register: {line!r}")
        imm = int(operands[0], 0)
        return Instruction(opcode, imm=imm & 0xFF, dest=_parse_reg(operands[1]))
    if opcode is Opcode.OUT:
        return Instruction(opcode, regb=_parse_reg(operands[0]))
    if opcode in (Opcode.OUTA, Opcode.OUTB, Opcode.NOP):
        if operands:
            raise ValueError(f"{mnemonic} takes no operands: {line!r}")
        return Instruction(opcode)
    if opcode is Opcode.MOV:
        return Instruction(opcode, regb=_parse_reg(operands[0]),
                           dest=_parse_reg(operands[1]))
    if len(operands) == 3:
        return Instruction(opcode, rega=_parse_reg(operands[0]),
                           regb=_parse_reg(operands[1]),
                           dest=_parse_reg(operands[2]))
    if len(operands) == 2:
        # Shift-style two-operand form: SHIFTB Ramt, Rdest.
        return Instruction(opcode, rega=_parse_reg(operands[0]),
                           dest=_parse_reg(operands[1]))
    raise ValueError(f"wrong operand count for {mnemonic}: {line!r}")


def assemble_program(text: str) -> List[Instruction]:
    """Assemble a multi-line program, skipping blanks and comment lines."""
    program: List[Instruction] = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped or stripped.startswith((";", "//", "#")):
            continue
        program.append(assemble(stripped))
    return program


def instruction_format(opcode: Opcode) -> str:
    """Which of Fig. 4's formats the opcode uses."""
    if opcode is Opcode.LDI:
        return "F2"
    if opcode in (Opcode.OUT, Opcode.OUTA, Opcode.OUTB):
        return "F3"
    if opcode is Opcode.MOV:
        return "F4"
    if opcode is Opcode.NOP:
        return "-"
    return "F1"


def render_opcode_table() -> str:
    """A human-readable reference table of the full opcode map."""
    header = (f"{'code':<7}{'mnemonic':<14}{'fmt':<5}"
              f"{'acc':<5}{'writes':<8}{'controls'}")
    lines = [header, "-" * len(header)]
    for op in sorted(Opcode, key=int):
        cw = control_word(op)
        acc = ("B" if cw.accsel else "A") if cw.acc_we else "-"
        writes = []
        if cw.acc_we:
            writes.append("acc")
        if cw.reg_we:
            writes.append("Rd")
        if cw.out_en:
            writes.append("port")
        controls = (f"muxa={cw.muxa_zero} muxb={cw.muxb_shift} "
                    f"sub={cw.sub} sh={cw.shmode:02b} t={cw.trunc}")
        lines.append(
            f"{int(op):05b}  {op.name:<14}{instruction_format(op):<5}"
            f"{acc:<5}{'+'.join(writes) or '-':<8}{controls}"
        )
    unused = ", ".join(f"{u:05b}" for u in UNUSED_OPCODES)
    lines.append(f"unused (template-trap space): {unused}")
    lines.append(f"ld-rnd trap opcode: {LD_RND:05b}")
    return "\n".join(lines)


def disassemble(instr: Instruction) -> str:
    """Render an instruction in the assembler's input syntax."""
    op = instr.opcode
    pretty = {
        Opcode.MACA_ADD: "MACA+", Opcode.MACA_SUB: "MACA-",
        Opcode.MACB_ADD: "MACB+", Opcode.MACB_SUB: "MACB-",
        Opcode.MACTA_ADD: "MACTA+", Opcode.MACTA_SUB: "MACTA-",
        Opcode.MACTB_ADD: "MACTB+", Opcode.MACTB_SUB: "MACTB-",
    }
    name = pretty.get(op, op.name)
    if op is Opcode.LDI:
        return f"ld {instr.imm:#04x}, R{instr.dest}"
    if op is Opcode.OUT:
        return f"out R{instr.regb}"
    if op in (Opcode.OUTA, Opcode.OUTB, Opcode.NOP):
        return name.lower()
    if op is Opcode.MOV:
        return f"mov R{instr.regb}, R{instr.dest}"
    if op in (Opcode.SHIFTA, Opcode.SHIFTB):
        return f"{name} R{instr.rega}, R{instr.dest}"
    return f"{name} R{instr.rega}, R{instr.regb}, R{instr.dest}"
