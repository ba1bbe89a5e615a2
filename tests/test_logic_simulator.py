"""Tests for combinational and sequential simulation, including forcing."""

from hypothesis import given, strategies as st

from repro.logic.builder import NetlistBuilder
from repro.logic.sequential import SequentialSimulator
from repro.logic.simulator import (
    CombSimulator,
    pack_patterns,
    unpack_output,
)


def xor_chain():
    b = NetlistBuilder("xorchain")
    a = b.input("a")
    c = b.input("c")
    d = b.input("d")
    x1 = b.xor(a, c)
    x2 = b.xor(x1, d)
    b.output(x2)
    return b.finish(), x2


def test_comb_single_pattern():
    nl, out = xor_chain()
    sim = CombSimulator(nl)
    ids = nl.inputs
    values = sim.run({ids[0]: 1, ids[1]: 1, ids[2]: 0})
    assert values[out] == 0
    values = sim.run({ids[0]: 1, ids[1]: 0, ids[2]: 0})
    assert values[out] == 1


def test_comb_pattern_parallel():
    nl, out = xor_chain()
    sim = CombSimulator(nl)
    a, c, d = nl.inputs
    # 4 patterns: a=0011, c=0101, d=0000 -> out = a^c^d = 0110
    values = sim.run({a: 0b0011, c: 0b0101, d: 0}, n_patterns=4)
    assert values[out] == 0b0110


def test_forced_net_overrides_gate():
    nl, out = xor_chain()
    sim = CombSimulator(nl)
    a, c, d = nl.inputs
    x1 = out - 1  # net created right before the output in xor_chain
    baseline = sim.run({a: 1, c: 0, d: 0})
    forced = sim.run({a: 1, c: 0, d: 0}, forced={x1: 0})
    assert baseline[out] == 1
    assert forced[out] == 0


def test_forced_primary_input():
    nl, out = xor_chain()
    sim = CombSimulator(nl)
    a, c, d = nl.inputs
    values = sim.run({a: 0, c: 0, d: 0}, forced={a: 1})
    assert values[out] == 1


def test_run_bus_and_word_eval():
    b = NetlistBuilder("adder2")
    xs = b.input_bus("x", 2)
    ys = b.input_bus("y", 2)
    s0 = b.xor(xs[0], ys[0])
    carry = b.and_(xs[0], ys[0])
    s1 = b.xor(b.xor(xs[1], ys[1]), carry)
    b.output_bus("s", [s0, s1])
    nl = b.finish()
    sim = CombSimulator(nl)
    result = sim.evaluate_word({"x": 0b01, "y": 0b01})
    assert result["s"] == 0b10
    multi = sim.run_bus({"x": [0, 1, 2, 3], "y": [3, 1, 1, 0]}, n_patterns=4)
    assert multi["s"] == [(x + y) & 3 for x, y in [(0, 3), (1, 1), (2, 1), (3, 0)]]


def pack_bus(width, words):
    """Per-net packed values of a bus, LSB net first."""
    return [pack_patterns(words, i) for i in range(width)]


@given(st.lists(st.integers(0, 255), min_size=1, max_size=20))
def test_pack_unpack_roundtrip(words):
    packed = pack_bus(8, words)
    for k, word in enumerate(words):
        assert unpack_output(packed, k) == word


def test_pack_patterns_single_bit():
    assert pack_patterns([1, 0, 1, 1], 0) == 0b1101


def test_pack_patterns_empty_pattern_list():
    assert pack_patterns([], 0) == 0
    assert pack_bus(4, []) == [0, 0, 0, 0]


def test_pack_unpack_one_bit_bus():
    """Width-1 buses pack into a single per-net integer."""
    words = [1, 0, 0, 1, 1]
    packed = pack_bus(1, words)
    assert packed == [0b11001]
    for k, word in enumerate(words):
        assert unpack_output(packed, k) == word


def test_pack_unpack_block_wider_than_64_patterns():
    """Packed values are arbitrary-precision: blocks beyond the 64-bit
    machine-word boundary round-trip exactly."""
    n_patterns = 100
    words = [(k * 37) & 0xFF for k in range(n_patterns)]
    packed = pack_bus(8, words)
    assert max(packed).bit_length() <= n_patterns
    assert any(p >> 64 for p in packed)   # the block really crosses 64 bits
    for k, word in enumerate(words):
        assert unpack_output(packed, k) == word


def test_pack_patterns_high_bit_index():
    words = [0x8000, 0x0000, 0x8000]
    assert pack_patterns(words, 15) == 0b101
    assert pack_patterns(words, 0) == 0


def counter2():
    """2-bit counter with enable input."""
    b = NetlistBuilder("counter2")
    en = b.input("en")
    d0 = b.net("d0")
    d1 = b.net("d1")
    q0 = b.dff(d0, name="q0")
    q1 = b.dff(d1, name="q1")
    from repro.logic.gates import GateType
    nl = b.netlist
    nl.add_gate(GateType.XOR, d0, (q0, en))
    carry = b.and_(q0, en)
    nl.add_gate(GateType.XOR, d1, (q1, carry))
    b.output(q0)
    b.output(q1)
    nl.add_bus("count", [q0, q1])
    return b.finish()


def test_sequential_counter():
    sim = SequentialSimulator(counter2())
    seen = []
    for _ in range(5):
        values = sim.step_bus({"en": 1})
        seen.append(values["count"])
    assert seen == [0, 1, 2, 3, 0]


def test_sequential_enable_holds():
    sim = SequentialSimulator(counter2())
    sim.step_bus({"en": 1})
    sim.step_bus({"en": 1})
    held = sim.step_bus({"en": 0})
    after = sim.step_bus({"en": 0})
    assert held["count"] == 2
    assert after["count"] == 2


def test_sequential_reset():
    sim = SequentialSimulator(counter2())
    for _ in range(3):
        sim.step_bus({"en": 1})
    sim.reset()
    assert sim.step_bus({"en": 0})["count"] == 0


def test_sequential_forced_state_stays_stuck():
    nl = counter2()
    sim = SequentialSimulator(nl)
    q0 = nl.net_id("q0")
    # Force q0 stuck-at-1: counter can never produce an even count.
    counts = [sim.step_bus({"en": 1}, forced={q0: 1})["count"] for _ in range(4)]
    assert all(c & 1 for c in counts)


def test_run_sequence():
    sim = SequentialSimulator(counter2())
    outs = sim.run_sequence({"en": [1, 1, 0, 1]}, output_bus="count")
    assert outs == [0, 1, 2, 2]
