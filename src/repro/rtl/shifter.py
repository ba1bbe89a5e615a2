"""The MAC's arithmetic shifter.

Per the paper, the shifter is controlled by two control bits (``c`` and
``d``) and "the direction and amount of shift is determined by the four bit
signed integer from the A input".  We define the four modes as:

======  =====================================================
mode    behaviour
======  =====================================================
``00``  pass-through (the accumulate feedback path)
``01``  shift by the signed 4-bit amount: positive = left
        (logical, zero fill), negative = arithmetic right
``10``  shift left by one
``11``  arithmetic shift right by one
======  =====================================================

Modes ``10``/``11`` exist in the hardware but — exactly as in the paper —
no instruction of the DSP core ever selects them, which is what the
Phase 2 "unreachable mode" elimination and the Phase 3 control-bit
constraint study (experiment E2) are about.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.logic.builder import NetlistBuilder
from repro.logic.netlist import Netlist

#: mode encoding → human-readable label
SHIFT_MODES = {0: "00", 1: "01", 2: "10", 3: "11"}


def _barrel_left(b: NetlistBuilder, data: List[int],
                 amount: Sequence[int]) -> List[int]:
    """Logical left barrel shifter (zero fill) by the magnitude bits.

    Zero-filled positions reduce the 2:1 mux to a clear gate
    (``out = in AND NOT sel``) — a full mux against a constant would carry
    untestable faults.
    """
    current = data
    for k, sel in enumerate(amount):
        step = 1 << k
        nsel = b.not_(sel)
        current = [
            b.and_(current[j], nsel) if j < step
            else b.mux2(sel, current[j], current[j - step])
            for j in range(len(current))
        ]
    return current


def _barrel_right_arith(b: NetlistBuilder, data: List[int],
                        amount: Sequence[int]) -> List[int]:
    """Arithmetic right barrel shifter (sign fill) by a 4-bit magnitude.

    The MSB always equals the sign whatever the shift, so no mux is built
    for it (a mux of a net with itself would be untestable logic).
    """
    current = data
    for k, sel in enumerate(amount):
        step = 1 << k
        sign = current[-1]
        shifted = [
            current[j + step] if j + step < len(current) else sign
            for j in range(len(current))
        ]
        current = [
            cur if cur == shift else b.mux2(sel, cur, shift)
            for cur, shift in zip(current, shifted)
        ]
    return current


def shifter_into(b: NetlistBuilder, data: List[int], amt: List[int],
                 mode: List[int]) -> List[int]:
    """Build the 4-mode arithmetic shifter inside an existing builder.

    All four modes share one pair of barrel networks — the mode logic only
    selects the *effective amount* (0 for pass, |amt| for mode 01, 1 for
    the fixed shifts) and the direction.  This matches what synthesis does
    and is what makes the paper's control-bit constraint study come out
    the way it does: excluding modes "10"/"11" orphans only the handful of
    gates that produce their effective amount, while excluding mode "01"
    kills the test access to most of the barrel stages.
    """
    amt_width = len(amt)
    m0, m1 = mode[0], mode[1]

    # Magnitude of the signed amount: negate when the sign bit is set
    # (conditional invert + increment).  The top magnitude bit is just the
    # increment carry: it is set only for amt = -8.
    sign = amt[-1]
    inverted = [b.xor(amt[i], sign) for i in range(amt_width - 1)]
    magnitude = []
    carry = sign
    for i, bit in enumerate(inverted):
        magnitude.append(b.xor(bit, carry))
        carry = b.and_(bit, carry)
    magnitude.append(carry)

    # Effective amount: mode 01 -> |amt|; modes 10/11 -> 1; mode 00 -> 0.
    mode01 = b.and_(b.not_(m1), m0)
    eff_amt = [b.mux2(mode01, m1, magnitude[0])]
    eff_amt += [b.and_(mode01, magnitude[k]) for k in range(1, amt_width)]

    # Direction: mode 01 follows the amount's sign; mode 11 is the only
    # other right shift.
    mode11 = b.and_(m1, m0)
    dir_right = b.mux2(mode01, mode11, sign)

    # Left shifts never exceed +7 (the most positive 4-bit amount), so the
    # left barrel needs no shift-by-8 stage; magnitude 8 only arises for
    # amt = -8, which is a right shift.
    left = _barrel_left(b, data, eff_amt[:amt_width - 1])
    right = _barrel_right_arith(b, data, eff_amt)
    return b.mux2_bus(dir_right, left, right)


def dedicated_shifter_into(b: NetlistBuilder, data: List[int],
                           amt: List[int], mode: List[int]) -> List[int]:
    """Per-mode ("dedicated") implementation of the same shifter.

    Word-level behaviour is identical to :func:`shifter_into`, but each
    mode owns its datapath: the pass-through and the fixed ±1 shifts are
    pure wiring, the variable mode drives its own pair of barrels, and a
    final 4:1 mux selects by the raw mode bits.  This is the area-heavier
    point of the core family's shifter axis — the shared effective-amount
    logic of the barrel variant is exactly what it does *not* have, so
    the two variants distribute testability very differently across the
    mode columns.
    """
    width = len(data)
    amt_width = len(amt)
    zero = b.const0()

    # Mode 00: pass-through (buffered so the mux leg is its own site).
    pass_out = [b.buf(bit) for bit in data]
    # Mode 10: fixed logical left by one.  Mode 11: fixed arithmetic
    # right by one.  Both are wiring; buffers keep the legs distinct.
    left1 = [b.buf(zero)] + [b.buf(data[j]) for j in range(width - 1)]
    right1 = ([b.buf(data[j + 1]) for j in range(width - 1)]
              + [b.buf(data[width - 1])])

    # Mode 01: signed variable shift with its own magnitude negator and
    # its own left/right barrels.
    sign = amt[-1]
    inverted = [b.xor(amt[i], sign) for i in range(amt_width - 1)]
    magnitude = []
    carry = sign
    for bit in inverted:
        magnitude.append(b.xor(bit, carry))
        carry = b.and_(bit, carry)
    magnitude.append(carry)
    var_left = _barrel_left(b, data, magnitude[:amt_width - 1])
    var_right = _barrel_right_arith(b, data, magnitude)
    var_out = b.mux2_bus(sign, var_left, var_right)

    return b.mux4_bus(list(mode), [pass_out, var_out, left1, right1])


def make_shifter(width: int = 18, amt_width: int = 4,
                 name: str = "shifter", style: str = "barrel") -> Netlist:
    """Shifter netlist: buses ``data``, ``amt``, ``mode`` → ``out``.

    ``style`` selects the implementation: ``"barrel"`` (shared barrels,
    the paper core) or ``"dedicated"`` (per-mode datapaths).
    """
    builders = {"barrel": shifter_into, "dedicated": dedicated_shifter_into}
    if style not in builders:
        raise ValueError(f"unknown shifter style {style!r}")
    b = NetlistBuilder(name)
    data = b.input_bus("data", width)
    amt = b.input_bus("amt", amt_width)
    mode = b.input_bus("mode", 2)
    out = builders[style](b, data, amt, mode)
    b.output_bus("out", out)
    return b.finish()


def shifter_reference(data: int, amt: int, mode: int,
                      width: int = 18, amt_width: int = 4) -> int:
    """Word-level model of :func:`make_shifter`."""
    full = (1 << width) - 1
    sign = 1 << (width - 1)
    data &= full
    if mode == 0:
        return data
    if mode == 1:
        amt_sign = 1 << (amt_width - 1)
        amount = ((amt & ((amt_sign << 1) - 1)) ^ amt_sign) - amt_sign
        if amount >= 0:
            return (data << amount) & full
        return (((data ^ sign) - sign) >> -amount) & full
    if mode == 2:
        return (data << 1) & full
    if mode == 3:
        return (((data ^ sign) - sign) >> 1) & full
    raise ValueError(f"bad shifter mode {mode}")
