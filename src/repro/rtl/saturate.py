"""The MAC's limiter (saturator).

"The limiter clips the maximum positive and negative values of the 18-bit
input integer producing an 8-bit output integer."  The 18-bit accumulator
value is in 10.8 fixed point; the 8-bit output is in 4.4 fixed point, i.e.
the output window is bits ``[11:4]``.  If the value does not fit the window
the output saturates to ``0x7F`` (most positive) or ``0x80`` (most
negative).
"""

from __future__ import annotations

from repro.logic.builder import NetlistBuilder
from repro.logic.netlist import Netlist


def limiter_into(b: NetlistBuilder, data, out_width: int = 8,
                 frac_drop: int = 4):
    """Build the limiter inside an existing builder; returns the out bus."""
    in_width = len(data)
    top = frac_drop + out_width - 1  # index of the window's sign bit
    if top >= in_width - 1:
        raise ValueError("window does not leave room for overflow bits")
    sign = data[in_width - 1]
    upper = data[top:in_width - 1]  # bits between window sign and input sign
    any_upper = b.or_(*upper) if len(upper) > 1 else b.buf(upper[0])
    all_upper = b.and_(*upper) if len(upper) > 1 else b.buf(upper[0])
    pos_ovf = b.and_(b.not_(sign), any_upper)
    neg_ovf = b.and_(sign, b.not_(all_upper))
    ovf = b.or_(pos_ovf, neg_ovf)
    out = []
    for i in range(out_width):
        # Saturated value: 0x80 when negative overflow, 0x7F when positive.
        sat_bit = neg_ovf if i == out_width - 1 else pos_ovf
        out.append(b.mux2(ovf, data[frac_drop + i], sat_bit))
    return out


def make_limiter(in_width: int = 18, out_width: int = 8, frac_drop: int = 4,
                 name: str = "limiter") -> Netlist:
    """Limiter netlist: bus ``data`` (``in_width``) → ``out`` (``out_width``).

    ``frac_drop`` is how many low (fractional) bits the window discards; the
    window is ``data[frac_drop + out_width - 1 : frac_drop]``.
    """
    b = NetlistBuilder(name)
    data = b.input_bus("data", in_width)
    out = limiter_into(b, data, out_width, frac_drop)
    b.output_bus("out", out)
    return b.finish()


def limiter_reference(data: int, in_width: int = 18, out_width: int = 8,
                      frac_drop: int = 4) -> int:
    """Word-level model of :func:`make_limiter`."""
    sign = 1 << (in_width - 1)
    # The arithmetic shift keeps the sign.
    window = (((data & ((sign << 1) - 1)) ^ sign) - sign) >> frac_drop
    half = 1 << (out_width - 1)
    if window >= half:
        return half - 1     # most positive: 0x7F at 8 bits
    if window < -half:
        return half         # most negative: 0x80 at 8 bits
    return (data >> frac_drop) & ((half << 1) - 1)
