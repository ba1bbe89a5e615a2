"""Regressions for the latent single-core assumptions the family exposed.

Each test here pins a bug that only shows on a *non-paper* design point:
code that silently hardcoded the paper's 16 registers, 8-bit operands,
18-bit accumulators or 4-deep pipeline.  The paper point is asserted
alongside to show the historical behaviour is untouched.
"""

import pytest

from repro.dsp.family import CoreBuild, CoreSpec
from repro.dsp.isa import Instruction, Opcode, encode
from repro.faults.hierarchical import DspFaultUniverse, storage_fault_core
from repro.runtime.campaigns import HierarchicalCampaign, MetricsCampaign
from repro.runtime.cache import netlist_hash
from repro.selftest.generator import dest_registers
from repro.selftest.phase2 import observation_register
from repro.selftest.vectors import run_with_misr

SMALL = CoreSpec(n_registers=8, operand_width=4, acc_width=10,
                 pipeline_depth=4, shifter="barrel", adder="ripple")
WIDE_ACC = CoreSpec(n_registers=16, operand_width=6, acc_width=20,
                    pipeline_depth=4, shifter="barrel", adder="ripple")


@pytest.fixture(scope="module")
def small():
    return CoreBuild.get(SMALL)


@pytest.fixture(scope="module")
def wide_acc():
    return CoreBuild.get(WIDE_ACC)


# ----------------------------------------------------------------------
# Component netlist cache must key on the spec, not the component name.
# ----------------------------------------------------------------------
def test_component_netlist_cache_is_spec_keyed(small):
    paper_mux = CoreBuild.get(CoreSpec.paper()).component_by_name("mux7")
    family_mux = small.component_by_name("mux7")
    assert paper_mux.name == family_mux.name == "mux7"
    # Same name, different operand widths — a name-keyed cache would hand
    # back the same netlist for both.
    assert netlist_hash(paper_mux.netlist()) != \
        netlist_hash(family_mux.netlist())


# ----------------------------------------------------------------------
# A component fault was named from the paper registry's netlist of the
# same name, whose net numbering differs on a family point.
# ----------------------------------------------------------------------
def test_component_fault_describe_names_its_own_netlists_net(small):
    universe = DspFaultUniverse(components=["multiplier"],
                                include_regfile=False, build=small)
    fault = universe.all_faults()[-1]
    assert (fault.fault.net, fault.fault.stuck_at) == (118, 1)
    assert fault.describe() == "multiplier/_t108 sa1"
    paper = DspFaultUniverse(components=["multiplier"],
                             include_regfile=False)
    netlist = CoreBuild.get(CoreSpec.paper()) \
        .component_by_name("multiplier").netlist()
    assert [f.describe() for f in paper.all_faults()] == [
        f"multiplier/{f.fault.describe(netlist)}" for f in paper.all_faults()]


# ----------------------------------------------------------------------
# Phase 3 / program assembly hardcoded registers 2..11 as destinations.
# ----------------------------------------------------------------------
def test_dest_registers_stay_inside_small_register_file(small):
    regs = dest_registers(small)
    assert regs and all(r < SMALL.n_registers for r in regs)
    assert dest_registers() == tuple(range(2, 12))


# ----------------------------------------------------------------------
# Phase 2's observation tails hardcoded register 12 — which aliases on a
# register file smaller than the paper's 16.
# ----------------------------------------------------------------------
def test_observation_register_stays_inside_small_register_file(small):
    assert observation_register() == 12
    assert observation_register(small) < SMALL.n_registers


# ----------------------------------------------------------------------
# Fault universes hardcoded 16 registers × 8 bits and 18-bit accumulators.
# ----------------------------------------------------------------------
def test_regfile_fault_bits_follow_operand_width(small):
    universe = DspFaultUniverse(components=[], include_regfile=True,
                                build=small)
    reg_faults = [f for f in universe.storage_faults
                  if f.target[0] == "reg"]
    assert reg_faults
    assert max(f.target[1] for f in reg_faults) == SMALL.n_registers - 1
    assert max(f.bit for f in reg_faults) == SMALL.operand_width - 1


def test_accumulator_fault_bits_follow_acc_width(wide_acc):
    universe = DspFaultUniverse(components=["acca"], include_regfile=False,
                                build=wide_acc)
    acc_faults = [f for f in universe.storage_faults
                  if f.target[0] == "acca" and f.kind == "q"]
    assert max(f.bit for f in acc_faults) == WIDE_ACC.acc_width - 1
    # The stuck bit actually lands in the accumulator on the family core.
    top = next(f for f in acc_faults
               if f.bit == WIDE_ACC.acc_width - 1 and f.stuck_at == 1)
    core = storage_fault_core(top, build=wide_acc)
    core.step(encode(Instruction(Opcode.NOP)))
    assert core.state.acc_a >> (WIDE_ACC.acc_width - 1) & 1 == 1


# ----------------------------------------------------------------------
# run_with_misr hardcoded an 8-bit MISR and a 4-NOP drain.
# ----------------------------------------------------------------------
def test_misr_width_and_drain_follow_the_core(small):
    words = [
        encode(Instruction(Opcode.LDI, imm=0xB, dest=1)),
        encode(Instruction(Opcode.OUT, regb=1)),
    ]
    run = run_with_misr(words, build=small)
    assert run.n_vectors == len(words)
    assert 0 < run.signature < (1 << SMALL.operand_width)
    # Without the pipeline-depth drain the OUT never reaches the port, so
    # a zero signature here would mean the drain was dropped.
    empty = run_with_misr([], build=small)
    assert empty.signature == 0


# ----------------------------------------------------------------------
# Campaign fingerprints: family points must not resume each other's (or
# the paper core's) checkpoints, while pre-family paper checkpoints must
# still resume.
# ----------------------------------------------------------------------
def test_metrics_fingerprint_stamps_only_family_cores(small):
    family_fp = MetricsCampaign(build=small).fingerprint()
    assert family_fp["core"] == SMALL.label()
    assert "core" not in MetricsCampaign().fingerprint()
    assert "core" not in \
        MetricsCampaign(build=CoreBuild.get(CoreSpec.paper())).fingerprint()


def test_hierarchical_fingerprint_stamps_only_family_cores(small):
    from repro.faults.hierarchical import HierarchicalFaultSimulator
    words = [encode(Instruction(Opcode.NOP))] * 4
    universe = DspFaultUniverse(components=["mux7"], include_regfile=False,
                                build=small)
    sim = HierarchicalFaultSimulator(universe=universe)
    fp = HierarchicalCampaign(words, simulator=sim).fingerprint()
    assert fp["core"] == SMALL.label()
    assert "core" not in HierarchicalCampaign(words).fingerprint()
