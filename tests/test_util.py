"""Unit and property tests for repro._util bit helpers."""

import pytest
from hypothesis import given, strategies as st

from repro._util import (
    bit,
    bit_list,
    bits,
    mask,
    popcount,
    set_field,
    sign_extend,
    to_signed,
    to_unsigned,
    truncate,
)


def test_mask_basic():
    assert mask(0) == 0
    assert mask(1) == 1
    assert mask(4) == 0b1111
    assert mask(17) == (1 << 17) - 1


def test_mask_negative_raises():
    with pytest.raises(ValueError):
        mask(-1)


def test_truncate():
    assert truncate(0x1FF, 8) == 0xFF
    assert truncate(-1, 4) == 0xF


def test_to_signed_boundaries():
    assert to_signed(0x7F, 8) == 127
    assert to_signed(0x80, 8) == -128
    assert to_signed(0xFF, 8) == -1
    assert to_signed(0, 8) == 0


def test_to_unsigned_wraps():
    assert to_unsigned(-1, 8) == 0xFF
    assert to_unsigned(256, 8) == 0
    assert to_unsigned(-128, 8) == 0x80


def test_sign_extend():
    assert sign_extend(0x80, 8, 18) == (mask(18) & -128)
    assert sign_extend(0x7F, 8, 18) == 0x7F
    assert sign_extend(0xF, 4, 8) == 0xFF


def test_sign_extend_narrowing_raises():
    with pytest.raises(ValueError):
        sign_extend(1, 8, 4)


def test_bit_and_bits():
    assert bit(0b1010, 1) == 1
    assert bit(0b1010, 0) == 0
    assert bits(0b110101, 4, 2) == 0b101


def test_bits_bad_slice():
    with pytest.raises(ValueError):
        bits(0, 1, 3)


def test_set_field():
    assert set_field(0, 7, 4, 0xA) == 0xA0
    assert set_field(0xFF, 3, 0, 0) == 0xF0
    assert set_field(0, 16, 12, 0b10101) == 0b10101 << 12


def test_popcount():
    assert popcount(0) == 0
    assert popcount(0b1011) == 3
    with pytest.raises(ValueError):
        popcount(-1)


def test_bit_list_roundtrip_example():
    assert bit_list(0b1011, 4) == [1, 1, 0, 1]


@given(st.integers(min_value=0, max_value=mask(18)), st.integers(1, 18))
def test_signed_roundtrip(value, width):
    value &= mask(width)
    assert to_unsigned(to_signed(value, width), width) == value


@given(st.integers(min_value=-(1 << 17), max_value=(1 << 17) - 1))
def test_sign_extend_preserves_value(value):
    unsigned = to_unsigned(value, 18)
    wide = sign_extend(unsigned, 18, 32)
    assert to_signed(wide, 32) == value


@given(st.integers(min_value=0, max_value=mask(20)), st.integers(1, 20))
def test_bit_list_roundtrip(value, width):
    value &= mask(width)
    assert sum(b << i for i, b in enumerate(bit_list(value, width))) == value


@given(
    st.integers(min_value=0, max_value=mask(17)),
    st.integers(min_value=0, max_value=16),
    st.integers(min_value=0, max_value=mask(17)),
)
def test_set_field_then_bits(word, low, field):
    high = min(low + 3, 16)
    width = high - low + 1
    updated = set_field(word, high, low, field)
    assert bits(updated, high, low) == field & mask(width)
