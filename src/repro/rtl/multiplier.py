"""Signed array multiplier with sign extension.

The paper's MAC contains an 8-bit multiplier "that outputs a sign extended
product to 18 bits".  We build the classic shift-and-add array for a two's
complement multiplicand: partial product *i* is the sign-extended
multiplicand ANDed with multiplier bit *i* and shifted left by *i*; the
top partial product (the multiplier's sign bit) is *subtracted* instead of
added.  The result is the exact ``n×n → 2n``-bit two's complement product,
then sign-extended to the requested output width with buffers.
"""

from __future__ import annotations

from typing import List

from repro.logic.builder import NetlistBuilder
from repro.logic.netlist import Netlist
from repro.rtl.arith import ripple_adder


def multiplier_into(b: NetlistBuilder, a_bus: List[int], b_bus: List[int],
                    out_width: int = 18) -> List[int]:
    """Build the signed array multiplier inside an existing builder.

    Returns the ``out_width``-wide product bus (two's complement product
    sign-extended from ``2n`` bits).  Partial products are added over their
    live bit ranges only (the bits below each shift pass through), so the
    array contains no dead padding logic.
    """
    n = len(a_bus)
    if len(b_bus) != n:
        raise ValueError("multiplier operands must have equal width")
    prod_w = 2 * n
    if out_width < prod_w:
        raise ValueError(f"out_width {out_width} < product width {prod_w}")
    # Sign-extend the multiplicand to the product width once.
    a_ext = list(a_bus) + [b.buf(a_bus[-1]) for _ in range(prod_w - n)]

    def row(bit: int, shift: int) -> List[int]:
        """Partial product bits over the live range [shift, prod_w)."""
        return [b.and_(bit, a_ext[j]) for j in range(prod_w - shift)]

    acc = row(b_bus[0], 0)
    for i in range(1, n - 1):
        pp = row(b_bus[i], i)
        upper, _ = ripple_adder(b, acc[i:], pp, b.const0(),
                                drop_final_carry=True)
        acc = acc[:i] + upper
    # Two's complement: subtract the sign partial product (invert, carry 1).
    inverted = [b.not_(bit) for bit in row(b_bus[n - 1], n - 1)]
    upper, _ = ripple_adder(b, acc[n - 1:], inverted, b.const1(),
                            drop_final_carry=True)
    acc = acc[:n - 1] + upper

    # Sign-extend the product to the output width with buffers.
    return list(acc) + [b.buf(acc[-1]) for _ in range(out_width - prod_w)]


def make_multiplier(n: int = 8, out_width: int = 18,
                    name: str = "multiplier") -> Netlist:
    """Signed ``n×n`` multiplier: buses ``a``, ``b`` → ``p`` (``out_width``)."""
    b = NetlistBuilder(name)
    a_bus = b.input_bus("a", n)
    b_bus = b.input_bus("b", n)
    out = multiplier_into(b, a_bus, b_bus, out_width)
    b.output_bus("p", out)
    return b.finish()


def multiplier_reference(a: int, bb: int, n: int = 8, out_width: int = 18) -> int:
    """Word-level model of :func:`make_multiplier`."""
    sign = 1 << (n - 1)
    full = (sign << 1) - 1
    product = (((a & full) ^ sign) - sign) * (((bb & full) ^ sign) - sign)
    return product & ((1 << out_width) - 1)


def make_multiplier_mod(n: int = 8, name: str = "multiplier_mod") -> Netlist:
    """``n×n`` multiplier keeping only the low ``n`` product bits.

    Modulo ``2**n`` the signed and unsigned products coincide, so no sign
    correction is needed; partial products are accumulated over their live
    ranges only.  Used by the simple Fig. 1 datapath, whose whole datapath
    is ``n`` bits wide.
    """
    b = NetlistBuilder(name)
    a_bus = b.input_bus("a", n)
    b_bus = b.input_bus("b", n)
    acc = [b.and_(b_bus[0], a_bus[j]) for j in range(n)]
    for i in range(1, n):
        pp = [b.and_(b_bus[i], a_bus[j]) for j in range(n - i)]
        upper, _ = ripple_adder(b, acc[i:], pp, b.const0(),
                                drop_final_carry=True)
        acc = acc[:i] + upper
    b.output_bus("p", acc)
    return b.finish()


def multiplier_mod_reference(a: int, bb: int, n: int = 8) -> int:
    """Word-level model of :func:`make_multiplier_mod`."""
    return (a * bb) & ((1 << n) - 1)
