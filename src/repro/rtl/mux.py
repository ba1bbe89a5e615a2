"""Standalone bus multiplexers.

The MAC datapath's MUXa, MUXb, MUXg and MUX7 are all 2:1 bus muxes; this
module provides the standalone netlist used as their fault universe (the
builder's inline :meth:`~repro.logic.builder.NetlistBuilder.mux2_bus` is
used when assembling the flat core).
"""

from __future__ import annotations

from repro.logic.builder import NetlistBuilder
from repro.logic.netlist import Netlist


def make_mux2_bus(width: int, name: str = "mux2") -> Netlist:
    """2:1 bus mux netlist: buses ``a``, ``b``, ``sel`` → ``out``.

    ``out = sel ? b : a``.
    """
    b = NetlistBuilder(name)
    a_bus = b.input_bus("a", width)
    b_bus = b.input_bus("b", width)
    sel = b.input("sel")
    out = b.mux2_bus(sel, a_bus, b_bus)
    b.output_bus("out", out)
    return b.finish()


def mux2_reference(sel: int, a: int, b: int) -> int:
    """Word-level model of :func:`make_mux2_bus`."""
    return b if sel else a


def make_gated_bus(width: int, invert_enable: bool = False,
                   name: str = "gated") -> Netlist:
    """A bus clear gate: ``out = data & en`` (or ``& ~en``).

    This is what a 2:1 mux degenerates to when one leg is tied to zero —
    the real structure of the MAC's MUXa (zero when ``muxa_zero``) and
    MUXb (zero unless ``muxb_shift``).
    """
    b = NetlistBuilder(name)
    data = b.input_bus("data", width)
    en = b.input("en")
    gate = b.not_(en) if invert_enable else b.buf(en)
    out = [b.and_(bit, gate) for bit in data]
    b.output_bus("out", out)
    return b.finish()
