"""Gate-level core: structure and cycle-accurate equivalence with the ISS."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bist.template import RandomLoad, TemplateArchitecture
from repro.dsp.core import DspCore
from repro.dsp.gatelevel import make_gatelevel_core
from repro.dsp.isa import Instruction, Opcode, encode
from repro.logic.sequential import SequentialSimulator


@pytest.fixture(scope="module")
def flat_core():
    return make_gatelevel_core()


def test_structure(flat_core):
    stats = flat_core.stats()
    assert stats.n_inputs == 17          # the instruction word
    assert stats.n_dffs > 250            # regfile + pipeline + accumulators
    assert 2000 <= stats.n_gates <= 10000
    assert "out" in flat_core.buses
    assert "out_valid" in flat_core.buses
    assert "acc_a" in flat_core.buses and len(flat_core.buses["acc_a"]) == 18


def run_both(flat_core, words):
    """Run behavioural and gate-level cores; returns (beh, gate) port lists."""
    behav = DspCore()
    gate = SequentialSimulator(flat_core)
    beh_ports, gate_ports = [], []
    for word in words:
        r = behav.step(word)
        g = gate.step_bus({"instr": word})
        beh_ports.append((r.out_valid, r.port))
        gate_ports.append((bool(g["out_valid"]), g["out"]))
    return beh_ports, gate_ports


def test_equivalence_on_mac_program(flat_core):
    program = [
        Instruction(Opcode.LDI, imm=0x31, dest=1),
        Instruction(Opcode.LDI, imm=0x12, dest=2),
        Instruction(Opcode.MPYA, rega=1, regb=2, dest=3),
        Instruction(Opcode.OUT, regb=3),
        Instruction(Opcode.MACA_SUB, rega=1, regb=2, dest=4),
        Instruction(Opcode.MACTB_ADD, rega=1, regb=2, dest=5),
        Instruction(Opcode.SHIFTA, rega=2, dest=6),
        Instruction(Opcode.OUT, regb=6),
        Instruction(Opcode.OUTA),
        Instruction(Opcode.OUTB),
        Instruction(Opcode.MOV, regb=3, dest=9),
        Instruction(Opcode.OUT, regb=9),
    ]
    words = [encode(i) for i in program] + [encode(Instruction(Opcode.NOP))] * 4
    beh, gate = run_both(flat_core, words)
    assert beh == gate


def test_equivalence_on_template_stream(flat_core):
    program = [
        RandomLoad(0), RandomLoad(1),
        Instruction(Opcode.MPYSHIFTMACB, rega=0, regb=1, dest=2),
        Instruction(Opcode.OUT, regb=2),
        Instruction(Opcode.MACA_ADD, rega=0, regb=1, dest=3),
        Instruction(Opcode.OUT, regb=3),
    ]
    words = TemplateArchitecture(program).expand(8)
    beh, gate = run_both(flat_core, words)
    assert beh == gate


@settings(max_examples=6, deadline=None)
@given(st.lists(st.integers(0, 2**17 - 1), min_size=4, max_size=24))
def test_equivalence_on_random_words(flat_core, words):
    """Arbitrary 17-bit words (incl. unused opcodes) behave identically."""
    beh, gate = run_both(flat_core, words)
    assert beh == gate


def test_gate_core_accumulator_state_matches(flat_core):
    words = [encode(i) for i in [
        Instruction(Opcode.LDI, imm=0x20, dest=1),
        Instruction(Opcode.LDI, imm=0x20, dest=2),
        Instruction(Opcode.MPYA, rega=1, regb=2, dest=3),
        Instruction(Opcode.MACB_ADD, rega=1, regb=2, dest=4),
    ]] + [encode(Instruction(Opcode.NOP))] * 4
    behav = DspCore()
    gate = SequentialSimulator(flat_core)
    for word in words:
        behav.step(word)
        gate.step_bus({"instr": word})
    acc_a_gate = 0
    for i, net in enumerate(flat_core.buses["acc_a"]):
        acc_a_gate |= gate.state[net] << i
    assert acc_a_gate == behav.state.acc_a
