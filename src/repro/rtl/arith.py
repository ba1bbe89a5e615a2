"""Ripple-carry adders and the MAC's adder/subtracter.

The adder/subtracter computes ``result = a + b`` or ``result = a - b``
depending on the ``sub`` control input, implemented the classic way: XOR the
second operand with ``sub`` and feed ``sub`` as carry-in.  Widths are
parametric; the DSP core instantiates it at 18 bits (the paper's
accumulator width).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.logic.builder import NetlistBuilder
from repro.logic.netlist import Netlist


def full_adder(b: NetlistBuilder, a: int, bb: int, cin: int) -> Tuple[int, int]:
    """One full adder; returns ``(sum, carry_out)`` nets."""
    axb = b.xor(a, bb)
    s = b.xor(axb, cin)
    carry = b.or_(b.and_(a, bb), b.and_(axb, cin))
    return s, carry


def ripple_adder(
    b: NetlistBuilder,
    a: Sequence[int],
    bb: Sequence[int],
    cin: int,
    drop_final_carry: bool = False,
) -> Tuple[List[int], Optional[int]]:
    """Ripple-carry add two equal-width buses; returns ``(sum_bus, cout)``.

    With ``drop_final_carry`` the most significant stage builds only the sum
    XOR (no carry gates), avoiding dead logic — and therefore untestable
    faults — when the caller discards the carry-out.
    """
    if len(a) != len(bb):
        raise ValueError(f"adder width mismatch: {len(a)} vs {len(bb)}")
    total: List[int] = []
    carry: Optional[int] = cin
    carry_const = b.const_value(cin)
    for i, (ai, bi) in enumerate(zip(a, bb)):
        last = i == len(a) - 1
        if last and drop_final_carry:
            if carry_const == 0:
                total.append(b.xor(ai, bi))
            elif carry_const == 1:
                total.append(b.xnor(ai, bi))
            else:
                total.append(b.xor(b.xor(ai, bi), carry))
            carry = None
        elif carry_const == 0:
            # Constant-zero carry-in: the stage degenerates to a half adder
            # (a full adder here would carry untestable faults).
            total.append(b.xor(ai, bi))
            carry = b.and_(ai, bi)
            carry_const = None
        elif carry_const == 1:
            total.append(b.xnor(ai, bi))
            carry = b.or_(ai, bi)
            carry_const = None
        else:
            s, carry = full_adder(b, ai, bi, carry)
            total.append(s)
    return total, carry


def carry_select_adder(
    b: NetlistBuilder,
    a: Sequence[int],
    bb: Sequence[int],
    cin: int,
    block: int = 4,
    drop_final_carry: bool = False,
) -> Tuple[List[int], Optional[int]]:
    """Carry-select add: ripple blocks computed for both carry-ins, the
    real carry picking each block's result through muxes.

    Word-level behaviour matches :func:`ripple_adder`; the structure is
    the core family's "carry-select" MAC adder variant (shorter carry
    chain, more area).  The first block rides the real carry-in directly —
    duplicating it against constants would only add untestable logic.
    """
    if len(a) != len(bb):
        raise ValueError(f"adder width mismatch: {len(a)} vs {len(bb)}")
    if block < 1:
        raise ValueError(f"carry-select block must be >= 1, got {block}")
    total: List[int] = []
    carry: Optional[int] = None
    for start in range(0, len(a), block):
        a_blk = list(a[start:start + block])
        b_blk = list(bb[start:start + block])
        last_block = start + block >= len(a)
        drop = drop_final_carry and last_block
        if start == 0:
            sum_blk, carry = ripple_adder(b, a_blk, b_blk, cin, drop)
        else:
            sum0, c0 = ripple_adder(b, a_blk, b_blk, b.const0(), drop)
            sum1, c1 = ripple_adder(b, a_blk, b_blk, b.const1(), drop)
            sum_blk = b.mux2_bus(carry, sum0, sum1)
            carry = None if drop else b.mux2(carry, c0, c1)
        total.extend(sum_blk)
    return total, carry


def make_adder(width: int, name: str = "adder") -> Netlist:
    """Standalone adder netlist: buses ``a``, ``b``, ``cin`` → ``sum``, ``cout``."""
    b = NetlistBuilder(name)
    a = b.input_bus("a", width)
    bb = b.input_bus("b", width)
    cin = b.input("cin")
    total, cout = ripple_adder(b, a, bb, cin)
    b.output_bus("sum", total)
    b.output(cout)
    b.netlist.add_bus("cout", [cout])
    return b.finish()


#: Adder implementations selectable by the core family's ``adder`` axis.
ADDER_STYLES = ("ripple", "carry-select")


def adder_into(b: NetlistBuilder, a: Sequence[int], bb: Sequence[int],
               cin: int, style: str = "ripple",
               drop_final_carry: bool = False,
               ) -> Tuple[List[int], Optional[int]]:
    """Add two buses with the named adder structure."""
    if style == "ripple":
        return ripple_adder(b, a, bb, cin, drop_final_carry)
    if style == "carry-select":
        return carry_select_adder(b, a, bb, cin,
                                  drop_final_carry=drop_final_carry)
    raise ValueError(f"unknown adder style {style!r}")


def make_addsub(width: int, name: str = "addsub",
                adder: str = "ripple") -> Netlist:
    """Adder/subtracter netlist: ``a``, ``b``, ``sub`` → ``result``.

    ``result = a + b`` when ``sub = 0`` and ``a - b`` when ``sub = 1``
    (two's complement wrap-around, no flags).  ``adder`` picks the carry
    structure (see :data:`ADDER_STYLES`).
    """
    b = NetlistBuilder(name)
    a = b.input_bus("a", width)
    bb = b.input_bus("b", width)
    sub = b.input("sub")
    b_inverted = [b.xor(bit, sub) for bit in bb]
    total, _ = adder_into(b, a, b_inverted, sub, adder,
                          drop_final_carry=True)
    b.output_bus("result", total)
    return b.finish()


def addsub_reference(a: int, bb: int, sub: int, width: int) -> int:
    """Word-level model of :func:`make_addsub`."""
    return (a - bb if sub else a + bb) & ((1 << width) - 1)
