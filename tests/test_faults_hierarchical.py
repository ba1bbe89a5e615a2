"""Tests for the hierarchical core fault simulator."""

import random

import pytest

from repro.bist.template import RandomLoad, TemplateArchitecture
from repro.dsp.isa import INSTRUCTION_WIDTH, Instruction, Opcode
from repro.faults.hierarchical import (
    ComponentFault,
    DspFaultUniverse,
    HierarchicalFaultSimulator,
    StorageFault,
    storage_fault_core,
    _set_bit_positions,
    _spread,
)


def small_universe():
    return DspFaultUniverse(
        components=["mux7", "truncater", "macreg", "acca"],
        include_regfile=False,
    )


def test_universe_composition():
    universe = small_universe()
    counts = universe.counts_by_component()
    assert set(counts) == {"mux7", "truncater", "macreg", "acca"}
    assert counts["acca"] == 74   # 18 q + 18 d bits x2 + 2 enable
    assert counts["macreg"] == 32  # 8 q + 8 d bits x2, no enable


def test_universe_excludes_component_input_faults():
    universe = DspFaultUniverse(components=["limiter"],
                                include_regfile=False)
    from repro.dsp.components import component_by_name
    netlist = component_by_name("limiter").netlist()
    pi_nets = set(netlist.inputs)
    assert all(f.net not in pi_nets for f in universe.comb_faults["limiter"])


def test_full_universe_includes_regfile():
    universe = DspFaultUniverse()
    assert universe.counts_by_component()["regfile"] == 256


def test_fault_describe():
    sf = StorageFault(("acca",), "q", 3, 1)
    assert sf.describe() == "acca.q[3] sa1"
    universe = small_universe()
    cf = ComponentFault("mux7", universe.comb_faults["mux7"][0],
                        universe.comb_simulators["mux7"].netlist)
    assert cf.describe().startswith("mux7/")


def test_storage_fault_core_q_stuck():
    core = storage_fault_core(StorageFault(("acca",), "q", 8, 1))
    assert core.state.acc_a & (1 << 8)


def test_storage_fault_core_en_stuck_zero():
    """en-sa0: the accumulator never loads."""
    from repro.dsp.isa import assemble_program
    core = storage_fault_core(StorageFault(("acca",), "en", 0, 0))
    core.run_program(assemble_program(
        "ld 0x10, R1\nld 0x10, R2\nMPYA R1, R2, R3"
    ))
    assert core.state.acc_a == 0


def test_storage_fault_core_d_stuck():
    from repro.dsp.isa import assemble_program
    core = storage_fault_core(StorageFault(("acca",), "d", 0, 1))
    core.run_program(assemble_program(
        "ld 0x10, R1\nld 0x10, R2\nMPYA R1, R2, R3"
    ))
    assert core.state.acc_a & 1  # bit 0 forced on write


def program_words(iterations=20):
    program = [
        RandomLoad(0), RandomLoad(1),
        Instruction(Opcode.MPYA, rega=0, regb=1, dest=2),
        Instruction(Opcode.OUT, regb=2),
        Instruction(Opcode.MACB_ADD, rega=0, regb=1, dest=3),
        Instruction(Opcode.OUT, regb=3),
        Instruction(Opcode.OUTA),
        Instruction(Opcode.OUTB),
    ]
    return TemplateArchitecture(program).expand(iterations)


@pytest.fixture(scope="module")
def small_run():
    sim = HierarchicalFaultSimulator(universe=small_universe(),
                                     block_size=64)
    return sim.run(program_words(20))


def test_detects_most_small_universe_faults(small_run):
    report = small_run.coverage_report()
    assert report.fault_coverage > 0.8
    assert report.n_vectors == 160


def test_first_detect_cycles_are_plausible(small_run):
    for fault, cycle in small_run.first_detect.items():
        if cycle is not None:
            assert 0 <= cycle < small_run.n_vectors


def test_report_by_component(small_run):
    report = small_run.coverage_report()
    assert set(report.by_component) == {"mux7", "truncater", "macreg",
                                        "acca"}
    for detected, total in report.by_component.values():
        assert 0 <= detected <= total


def test_block_size_invariance():
    """Coverage should not depend much on block partitioning."""
    universe = DspFaultUniverse(components=["mux7", "macreg"],
                                include_regfile=False)
    words = program_words(10)
    a = HierarchicalFaultSimulator(
        universe=universe, block_size=32
    ).run(words)
    universe2 = DspFaultUniverse(components=["mux7", "macreg"],
                                 include_regfile=False)
    b = HierarchicalFaultSimulator(
        universe=universe2, block_size=80
    ).run(words)
    fc_a = a.coverage_report().fault_coverage
    fc_b = b.coverage_report().fault_coverage
    assert abs(fc_a - fc_b) < 0.1


def test_no_program_activity_means_no_detection():
    """NOP streams exercise nothing observable."""
    universe = DspFaultUniverse(components=["multiplier"],
                                include_regfile=False)
    sim = HierarchicalFaultSimulator(universe=universe)
    from repro.dsp.isa import encode
    words = [encode(Instruction(Opcode.NOP))] * 64
    result = sim.run(words)
    assert result.coverage_report().n_detected == 0


def test_storage_fault_max_cycles_cap():
    universe = DspFaultUniverse(components=["macreg"],
                                include_regfile=False)
    sim = HierarchicalFaultSimulator(universe=universe)
    result = sim.run(program_words(10), storage_fault_max_cycles=8)
    for fault, cycle in result.first_detect.items():
        if isinstance(fault, StorageFault) and cycle is not None:
            assert cycle < 8


def test_set_bit_positions():
    assert _set_bit_positions(0b101001) == [0, 3, 5]
    assert _set_bit_positions(0) == []


def test_spread_sampling():
    assert _spread([1, 2, 3], 5) == [1, 2, 3]
    picked = _spread(list(range(100)), 5)
    assert len(picked) == 5
    assert picked[0] == 0 and picked[-1] == 99
    assert _spread([4, 7, 9], 1) == [4]


@pytest.mark.parametrize("setting", ["max_starts_per_block",
                                     "max_continuous_starts"])
def test_one_start_per_block_grades_a_subset(setting):
    """One start per block tries the first excitation, which the default
    spread also tries, so it detects a subset of the default's faults."""
    rng = random.Random(7)
    words = [rng.randrange(1 << INSTRUCTION_WIDTH) for _ in range(200)]

    def detected(**kwargs):
        universe = DspFaultUniverse(components=["limiter"],
                                    include_regfile=False)
        sim = HierarchicalFaultSimulator(universe=universe, **kwargs)
        return set(sim.run(words).detected)

    one = detected(**{setting: 1})
    assert one and one <= detected()
