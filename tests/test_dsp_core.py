"""Tests for the four-stage pipelined core: timing, hazards, output port."""

import copy
import pickle
import random

import pytest

from repro.dsp.core import CoreState, DspCore
from repro.dsp.isa import (
    N_REGISTERS,
    Instruction,
    Opcode,
    assemble_program,
    encode,
)


def run(program_text, core=None, drain=True):
    core = core or DspCore()
    outs = core.run_program(assemble_program(program_text), drain=drain)
    return core, outs


def out_values(core, outs):
    return [v for v in outs if v]


def test_ldi_then_out():
    core, outs = run(
        """
        ld 0x42, R1
        nop
        nop
        nop
        out R1
        """
    )
    assert 0x42 in outs


def test_pipeline_latency_is_four_stages():
    """An OUT's port value appears when the instruction reaches WB."""
    core = DspCore()
    words = [encode(i) for i in assemble_program("ld 0x55, R1\nout R1\nnop\nnop\nnop\nnop")]
    results = core.run(words)
    # out R1 is fetched at cycle 1, reaches WB at cycle 1+3 = 4.
    assert results[4].out_valid
    assert results[4].out_value == 0x55


def test_forwarding_distance_1():
    """Back-to-back producer/consumer must see the fresh value."""
    _, outs = run(
        """
        ld 0x10, R1
        ld 0x10, R2
        MPYA R1, R2, R3
        out R3
        """
    )
    assert 0x10 in outs  # 1.0 * 1.0 = 1.0 = 0x10 in 4.4


def test_forwarding_distance_2():
    _, outs = run(
        """
        ld 0x23, R1
        nop
        out R1
        """
    )
    assert 0x23 in outs


def test_forwarding_distance_3_via_regfile():
    _, outs = run(
        """
        ld 0x77, R1
        nop
        nop
        out R1
        """
    )
    assert 0x77 in outs


def test_mov_copies_register():
    _, outs = run(
        """
        ld 0x3C, R2
        nop
        nop
        mov R2, R9
        nop
        nop
        out R9
        """
    )
    assert 0x3C in outs


def test_mac_program_accumulates():
    # 1.0*1.0 + 1.0*1.0 = 2.0 -> 0x20.
    _, outs = run(
        """
        ld 0x10, R1
        ld 0x10, R2
        MPYA R1, R2, R3
        MACA+ R1, R2, R4
        out R4
        """
    )
    assert 0x20 in outs


def test_acc_b_independent_of_acc_a():
    core, _ = run(
        """
        ld 0x10, R1
        ld 0x20, R2
        MPYA R1, R1, R3
        MPYB R2, R2, R4
        """
    )
    assert core.state.acc_a == 1 << 8   # 1.0
    assert core.state.acc_b == 4 << 8   # 4.0


def test_outa_outputs_accumulator():
    _, outs = run(
        """
        ld 0x10, R1
        ld 0x30, R2
        MPYA R1, R2, R3
        outa
        """
    )
    assert 0x30 in outs  # AccA = 3.0 through the limiter


def test_out_only_when_out_instruction_retires():
    core = DspCore()
    results = core.run([encode(Instruction(Opcode.NOP))] * 8)
    assert all(not r.out_valid for r in results)
    assert all(r.port == 0 for r in results)


def test_shift_program():
    # acc = 1.0; shift left by 2 -> 4.0.
    _, outs = run(
        """
        ld 0x10, R1
        ld 0x02, R5
        MPYA R1, R1, R2
        SHIFTA R5, R6
        out R6
        """
    )
    assert 0x40 in outs


def test_state_copy_is_deep():
    core, _ = run("ld 0x11, R1")
    snapshot = core.state.copy()
    core.step(encode(Instruction(Opcode.LDI, imm=0x99, dest=2)))
    assert snapshot.regs[2] != 0x99 or core.state.regs[2] == snapshot.regs[2]
    snapshot.regs[0] = 123
    assert core.state.regs[0] != 123


def test_differential_injection_changes_output():
    """Forcing a component output mid-program must corrupt the out stream."""
    program = assemble_program(
        """
        ld 0x10, R1
        ld 0x10, R2
        MPYA R1, R2, R3
        out R3
        """
    )
    words = [encode(i) for i in program] + [encode(Instruction(Opcode.NOP))] * 4
    clean = DspCore().run(words)
    # Cycle 2 fetches MPYA; it is in EX at cycle 4.
    core = DspCore()
    poked = [core.step(word, overrides={"multiplier": 0} if t == 4 else None)
             for t, word in enumerate(words)]
    assert [r.port for r in clean] != [r.port for r in poked]


def test_stuck_bit_on_register_file():
    stuck = {("reg", 1): (0xFF & ~0x01, 0x00)}  # R1 bit0 stuck at 0
    core = DspCore(stuck_bits=stuck)
    outs = core.run_program(assemble_program("ld 0x11, R1\nnop\nnop\nnop\nout R1"))
    assert 0x10 in outs
    assert 0x11 not in outs


def test_stuck_bit_on_accumulator():
    stuck = {("acc_a",): ((1 << 18) - 1, 1 << 8)}  # bit8 stuck at 1
    core = DspCore(stuck_bits=stuck)
    core.run_program(assemble_program("ld 0x00, R1\nMPYA R1, R1, R2"))
    assert core.state.acc_a & (1 << 8)


def test_stuck_bit_unknown_target_rejected():
    with pytest.raises(ValueError):
        DspCore(stuck_bits={("bogus",): (0, 0)})
    with pytest.raises(ValueError):
        CoreState().read(("bogus",))
    with pytest.raises(ValueError):
        CoreState().write(("bogus",), 0)


def old_apply_stuck_bits(s, stuck_bits):
    """The per-key chain ``DspCore._apply_stuck_bits`` spelled out
    before :meth:`CoreState.read` and :meth:`CoreState.write`."""
    for key, (and_mask, or_mask) in stuck_bits.items():
        kind = key[0]
        if kind == "reg":
            s.regs[key[1]] = (s.regs[key[1]] & and_mask) | or_mask
        elif kind == "acc_a":
            s.acc_a = (s.acc_a & and_mask) | or_mask
        elif kind == "acc_b":
            s.acc_b = (s.acc_b & and_mask) | or_mask
        elif kind == "macreg":
            s.macreg = (s.macreg & and_mask) | or_mask
        elif kind == "buffer":
            s.buffer = (s.buffer & and_mask) | or_mask
        elif kind == "temp":
            s.temp = (s.temp & and_mask) | or_mask
        else:
            raise ValueError(f"unknown stuck-bit target {key!r}")


def old_set_state_element(state, state_key, value):
    """The per-key chain the observability engine's storage errors
    spelled out before :meth:`CoreState.write`."""
    kind = state_key[0]
    if kind == "acc_a":
        state.acc_a = value
    elif kind == "acc_b":
        state.acc_b = value
    elif kind == "macreg":
        state.macreg = value
    elif kind == "buffer":
        state.buffer = value
    elif kind == "temp":
        state.temp = value
    elif kind == "reg":
        state.regs[state_key[1]] = value
    else:
        raise ValueError(f"unknown state element {state_key!r}")


STATE_KEYS = [("reg", i) for i in range(N_REGISTERS)] + [
    ("acc_a",), ("acc_b",), ("macreg",), ("buffer",), ("temp",)]


@pytest.mark.parametrize("key", STATE_KEYS, ids=str)
def test_state_access_by_key_matches_the_old_chains(key):
    """Random states: stuck bits applied through ``read``/``write`` and a
    storage error written through ``write`` equal the two old chains."""
    rng = random.Random(f"state-key:{key}")
    for _ in range(50):
        state = CoreState(
            regs=[rng.randrange(256) for _ in range(N_REGISTERS)],
            acc_a=rng.randrange(1 << 18), acc_b=rng.randrange(1 << 18),
            temp=rng.randrange(256), macreg=rng.randrange(256),
            buffer=rng.randrange(256))
        stuck = {key: (rng.randrange(1 << 18), rng.randrange(1 << 18))}
        expected = state.copy()
        old_apply_stuck_bits(expected, stuck)
        assert DspCore(state=state.copy(), stuck_bits=stuck).state \
            == expected
        value = rng.randrange(1 << 18)
        expected, actual = state.copy(), state.copy()
        old_set_state_element(expected, key, value)
        actual.write(key, value)
        assert actual == expected
        assert actual.read(key) == value


def test_trace_includes_pipeline_components():
    core = DspCore()
    words = [encode(i) for i in assemble_program("ld 0x10, R1\nMPYA R1, R1, R2")]
    traces = []
    for word in words + [encode(Instruction(Opcode.NOP))] * 4:
        trace = {}
        core.step(word, trace=trace)
        traces.append(trace)
    all_names = set().union(*traces)
    for name in ("decoder", "macreg", "buffer", "mux7", "multiplier",
                 "regread_a", "regread_b"):
        assert name in all_names, name


def test_temp_register_traced_on_writeback():
    core = DspCore()
    words = [encode(i) for i in assemble_program("ld 0x10, R1\nnop\nnop\nnop\nnop")]
    seen_temp = False
    for word in words:
        trace = {}
        core.step(word, trace=trace)
        seen_temp |= "temp" in trace
    assert seen_temp
    assert core.state.temp == 0x10


def test_step_results_and_states_pickle_and_copy():
    """Step results are shared, frozen and slotted; latches are slotted.
    Both still round-trip through pickle and copy."""
    core = DspCore()
    word = encode(Instruction(Opcode.MACA_ADD, rega=1, regb=2, dest=3))
    results = [core.step(word) for _ in range(3)]
    for value in results + [core.state]:
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value
