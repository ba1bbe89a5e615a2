"""Fixed-point interpretation of DSP datapath values.

The paper: "The inputs and outputs of the MAC use 8-bit fixed point
integers formatted with four bits to the left and four to the right of the
decimal point."  Products are therefore 8.8 (16 bits), sign-extended to the
18-bit internal format 10.8 used by the accumulators.

All storage stays in unsigned two's-complement encoding (see
:mod:`repro._util`); the 4.4 helpers convert operands to and from
``float`` for examples and tests — the datapath itself never touches
floats.
"""

from __future__ import annotations

from repro._util import to_signed, to_unsigned

#: Fractional bits of the 8-bit 4.4 operand format.
OPERAND_FRAC = 4
#: Operand width (register file word).
OPERAND_WIDTH = 8
#: Accumulator width.
ACC_WIDTH = 18


def q44_to_float(word: int) -> float:
    """Interpret an 8-bit word as 4.4 fixed point."""
    return to_signed(word, OPERAND_WIDTH) / (1 << OPERAND_FRAC)


def float_to_q44(value: float) -> int:
    """Encode a float as 4.4 fixed point (saturating at the format limits)."""
    scaled = round(value * (1 << OPERAND_FRAC))
    hi = (1 << (OPERAND_WIDTH - 1)) - 1
    lo = -(1 << (OPERAND_WIDTH - 1))
    scaled = max(lo, min(hi, scaled))
    return to_unsigned(scaled, OPERAND_WIDTH)
