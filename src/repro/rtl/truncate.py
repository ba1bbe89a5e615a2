"""The MAC's truncater.

"The MAC also contains a truncater, which truncates the data to the right
of the decimal point."  In the 18-bit 10.8 internal format that means
zeroing the 8 fractional bits when the truncate control bit is set.
"""

from __future__ import annotations

from repro.logic.builder import NetlistBuilder
from repro.logic.netlist import Netlist


def truncater_into(b: NetlistBuilder, data, en: int, frac: int = 8):
    """Build the truncater inside an existing builder; returns the out bus.

    ``out[i] = data[i] AND NOT en`` for fractional bits ``i < frac``;
    integer bits pass through.
    """
    keep = b.not_(en)
    return [
        b.and_(data[i], keep) if i < frac else b.buf(data[i])
        for i in range(len(data))
    ]


def make_truncater(width: int = 18, frac: int = 8,
                   name: str = "truncater") -> Netlist:
    """Truncater netlist: buses ``data``, ``en`` → ``out``."""
    b = NetlistBuilder(name)
    data = b.input_bus("data", width)
    en = b.input("en")
    out = truncater_into(b, data, en, frac)
    b.output_bus("out", out)
    return b.finish()


def truncater_reference(data: int, en: int, width: int = 18, frac: int = 8) -> int:
    """Word-level model of :func:`make_truncater`."""
    data &= (1 << width) - 1
    if en:
        return data & ~((1 << frac) - 1)
    return data
