"""Bit-manipulation helpers shared across the library.

All datapath values in this project are stored as plain Python integers in
two's-complement *unsigned* encoding for a declared bit width.  These helpers
convert between the unsigned encoding and signed interpretation, build masks,
and slice bit fields.  They are deliberately tiny and allocation-free since
they sit on the hot path of both the behavioural and gate-level simulators;
the hot ones build their masks inline rather than calling :func:`mask`.
"""

from __future__ import annotations


def mask(width: int) -> int:
    """Return an all-ones mask of ``width`` bits (``mask(4) == 0b1111``)."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def truncate(value: int, width: int) -> int:
    """Keep the low ``width`` bits of ``value`` (unsigned encoding)."""
    return value & mask(width)


def to_signed(value: int, width: int) -> int:
    """Interpret the low ``width`` bits of ``value`` as two's complement."""
    sign = 1 << (width - 1)
    return ((value & ((sign << 1) - 1)) ^ sign) - sign


def to_unsigned(value: int, width: int) -> int:
    """Encode a (possibly negative) integer as ``width``-bit two's complement.

    The value is truncated modulo ``2**width``, matching hardware wrap-around.
    """
    return value & ((1 << width) - 1)


def sign_extend(value: int, from_width: int, to_width: int) -> int:
    """Sign-extend the low ``from_width`` bits of ``value`` to ``to_width``."""
    if to_width < from_width:
        raise ValueError(
            f"cannot sign-extend from {from_width} to narrower {to_width} bits"
        )
    return to_unsigned(to_signed(value, from_width), to_width)


def bit(value: int, index: int) -> int:
    """Return bit ``index`` of ``value`` as 0 or 1."""
    return (value >> index) & 1


def bits(value: int, high: int, low: int) -> int:
    """Return the bit field ``value[high:low]`` inclusive, like Verilog."""
    if high < low:
        raise ValueError(f"bad bit slice [{high}:{low}]")
    return (value >> low) & ((1 << (high - low + 1)) - 1)


def set_field(word: int, high: int, low: int, field: int) -> int:
    """Return ``word`` with bits ``[high:low]`` replaced by ``field``."""
    if high < low:
        raise ValueError(f"bad bit slice [{high}:{low}]")
    width = high - low + 1
    cleared = word & ~(mask(width) << low)
    return cleared | ((field & mask(width)) << low)


def popcount(value: int) -> int:
    """Number of set bits in ``value`` (must be non-negative)."""
    if value < 0:
        raise ValueError("popcount of negative value is undefined here")
    return bin(value).count("1")


def bit_list(value: int, width: int) -> list:
    """Return ``width`` bits of ``value`` as a list, LSB first."""
    return [(value >> i) & 1 for i in range(width)]
