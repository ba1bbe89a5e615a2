"""Tests for the behavioural MAC datapath: semantics, tracing, injection."""

from hypothesis import given, settings, strategies as st

from repro._util import mask, to_signed
from repro.dsp.fixedpoint import float_to_q44, q44_to_float
from repro.dsp.isa import Opcode, control_word
from repro.dsp.mac import MacDatapath
from repro.rtl.saturate import limiter_reference


def ctrl_for(op):
    return control_word(op)


def test_mpy_writes_product_to_acc_a():
    # 2.0 * 1.5 = 3.0 in 4.4: 0x20 * 0x18.
    result = MacDatapath.evaluate(0x20, 0x18, ctrl_for(Opcode.MPYA), 0, 0)
    assert to_signed(result.acc_a, 18) == 2 * 16 * 24  # 8.8 product scale
    assert result.acc_b == 0
    assert q44_to_float(result.limited) == 3.0


def test_mpy_b_targets_acc_b():
    result = MacDatapath.evaluate(0x10, 0x10, ctrl_for(Opcode.MPYB), 7, 0)
    assert result.acc_a == 7  # untouched
    assert to_signed(result.acc_b, 18) == 256  # 1.0 in 10.8


def test_mac_accumulates():
    ctrl = ctrl_for(Opcode.MACA_ADD)
    acc = 0
    for _ in range(3):
        acc = MacDatapath.evaluate(0x10, 0x10, ctrl, acc, 0).acc_a
    assert to_signed(acc, 18) == 3 * 256  # 3.0 in 10.8


def test_mac_sub_subtracts_product():
    start = 5 * 256  # 5.0 in 10.8
    result = MacDatapath.evaluate(
        0x10, 0x20, ctrl_for(Opcode.MACA_SUB), start, 0
    )
    assert to_signed(result.acc_a, 18) == (5 - 2) * 256


def test_shift_instruction_shifts_acc():
    # amt = +2 from opA's low nibble.
    start = 1 << 8  # 1.0
    result = MacDatapath.evaluate(0x02, 0x00, ctrl_for(Opcode.SHIFTA), start, 0)
    assert to_signed(result.acc_a, 18) == 4 << 8


def test_shift_negative_amount():
    start = 4 << 8
    result = MacDatapath.evaluate(0x0F, 0x00, ctrl_for(Opcode.SHIFTA), start, 0)
    assert to_signed(result.acc_a, 18) == 2 << 8  # amt = -1


def test_mpyshift_combines():
    # acc' = shift(acc, amt) + P; amt=1, acc=1.0, operands 1.0*1.0.
    start = 1 << 8
    result = MacDatapath.evaluate(
        0x11, 0x10, ctrl_for(Opcode.MPYSHIFTA), start, 0
    )
    product = to_signed(0x11, 8) * to_signed(0x10, 8)  # 17 * 16
    assert to_signed(result.acc_a, 18) == (2 << 8) + product


def test_mpyshiftmac_subtracts():
    start = 1 << 8
    result = MacDatapath.evaluate(
        0x11, 0x10, ctrl_for(Opcode.MPYSHIFTMACA), start, 0
    )
    product = to_signed(0x11, 8) * to_signed(0x10, 8)
    assert to_signed(result.acc_a, 18) == (2 << 8) - product


def test_truncation_zeroes_fraction():
    # 1.5 * 1.0 = 1.5 -> truncated to 1.0.
    result = MacDatapath.evaluate(
        float_to_q44(1.5), float_to_q44(1.0), ctrl_for(Opcode.MPYTA), 0, 0
    )
    assert q44_to_float(result.limited) == 1.0
    assert result.acc_a & 0xFF == 0


def test_limiter_saturates_large_accumulation():
    ctrl = ctrl_for(Opcode.MACA_ADD)
    acc = 0
    big = float_to_q44(7.9)
    for _ in range(4):
        acc_result = MacDatapath.evaluate(big, big, ctrl, acc, 0)
        acc = acc_result.acc_a
    assert acc_result.limited == 0x7F  # saturated positive


def test_non_writing_op_keeps_accs():
    result = MacDatapath.evaluate(
        0x55, 0xAA, ctrl_for(Opcode.OUT), 111, 222
    )
    assert result.acc_a == 111
    assert result.acc_b == 222


def test_outacc_routes_acc_through_limiter():
    acc = 3 << 8  # 3.0 in 10.8
    result = MacDatapath.evaluate(0, 0, ctrl_for(Opcode.OUTA), acc, 0)
    assert q44_to_float(result.limited) == 3.0
    assert result.acc_a == acc  # unchanged


def test_trace_records_all_components():
    trace = {}
    MacDatapath.evaluate(1, 2, ctrl_for(Opcode.MACB_SUB), 3, 4, trace=trace)
    expected = {
        "multiplier", "muxa", "muxg_shifter", "shifter", "muxb", "addsub",
        "truncater", "acca", "accb", "muxg_limiter", "limiter",
    }
    assert expected <= set(trace)
    assert trace["addsub"].mode == 1  # sub
    assert trace["muxg_shifter"].mode == 1  # acc B selected
    assert trace["multiplier"].inputs == {"a": 1, "b": 2}


def test_override_injects_error():
    ctrl = ctrl_for(Opcode.MPYA)
    clean = MacDatapath.evaluate(0x10, 0x10, ctrl, 0, 0)
    poked = MacDatapath.evaluate(
        0x10, 0x10, ctrl, 0, 0, overrides={"multiplier": 0}
    )
    assert clean.acc_a != poked.acc_a
    assert poked.acc_a == 0


def test_override_downstream_component():
    ctrl = ctrl_for(Opcode.MPYA)
    poked = MacDatapath.evaluate(
        0x10, 0x10, ctrl, 0, 0, overrides={"limiter": 0x5A}
    )
    assert poked.limited == 0x5A
    # The accumulator is upstream of the limiter and must be unaffected.
    assert to_signed(poked.acc_a, 18) == 256


@settings(max_examples=40)
@given(st.integers(0, 255), st.integers(0, 255),
       st.integers(0, mask(18)), st.integers(0, mask(18)))
def test_limited_always_tracks_written_acc(a, b, acc_a, acc_b):
    """Invariant: limited output == limiter(selected post-write acc)."""
    for op in (Opcode.MPYA, Opcode.MACB_ADD, Opcode.SHIFTA):
        result = MacDatapath.evaluate(a, b, ctrl_for(op), acc_a, acc_b)
        selected = result.acc_b if ctrl_for(op).accsel else result.acc_a
        assert result.limited == limiter_reference(selected)
