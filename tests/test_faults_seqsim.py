"""Tests for fault-parallel sequential fault simulation."""

import random

import pytest

from repro import obs
from repro.faults.combsim import CombFaultSimulator
from repro.faults.model import Fault, collapse_faults
from repro.faults.seqsim import SeqFaultSimulator
from repro.logic.builder import NetlistBuilder
from repro.logic.sequential import SequentialSimulator
from repro.rtl.arith import make_addsub
from repro.rtl.register import make_register
from repro.runtime.errors import ConfigError


def accumulator4():
    """4-bit accumulator: acc <- acc + in."""
    from repro.rtl.arith import ripple_adder
    b = NetlistBuilder("acc4")
    data = b.input_bus("in", 4)
    d_nets = [b.net(f"d{i}") for i in range(4)]
    q = [b.dff(d_nets[i], name=f"acc[{i}]") for i in range(4)]
    b.netlist.add_bus("acc", q)
    total, _ = ripple_adder(b, q, data, b.const0(), drop_final_carry=True)
    from repro.logic.gates import GateType
    for i in range(4):
        b.netlist.add_gate(GateType.BUF, d_nets[i], (total[i],))
    for bit in q:
        b.netlist.add_output(bit)
    return b.finish()


def test_register_stuck_bit_detected():
    nl = make_register(4)
    sim = SeqFaultSimulator(nl)
    q0 = nl.net_id("q[0]")
    result = sim.run_sequence(
        {"d": [0xF, 0x0, 0xF], "en": [1, 1, 1]},
        faults=[Fault(q0, 0), Fault(q0, 1)],
    )
    # q[0] sa0: visible once a 1 was loaded (cycle 1 reads the first load).
    assert result.first_detect_cycle[Fault(q0, 0)] == 1
    # q[0] sa1: visible at reset (q should be 0 at cycle 0).
    assert result.first_detect_cycle[Fault(q0, 1)] == 0


def test_accumulator_state_fault_persists():
    nl = accumulator4()
    sim = SeqFaultSimulator(nl)
    acc0 = nl.net_id("acc[0]")
    result = sim.run_sequence(
        {"in": [0, 0, 1, 0]}, faults=[Fault(acc0, 1)]
    )
    assert result.first_detect_cycle[Fault(acc0, 1)] == 0


def test_full_grading_random_stimulus():
    nl = accumulator4()
    sim = SeqFaultSimulator(nl)
    rng = random.Random(3)
    stimulus = {"in": [rng.randrange(16) for _ in range(200)]}
    result = sim.run_sequence(stimulus)
    coverage = len(result.detected) / len(sim.fault_list.faults)
    assert coverage > 0.9


def test_matches_combinational_on_pure_comb_netlist():
    """On a DFF-free netlist, sequential grading equals combinational."""
    nl = make_addsub(3)
    rng = random.Random(11)
    words = [
        (rng.randrange(8), rng.randrange(8), rng.randrange(2))
        for _ in range(64)
    ]
    seq = SeqFaultSimulator(nl)
    seq_result = seq.run_sequence({
        "a": [w[0] for w in words],
        "b": [w[1] for w in words],
        "sub": [w[2] for w in words],
    })
    comb = CombFaultSimulator(nl, collapse_faults(nl))
    first = comb.run_with_dropping([{
        "a": [w[0] for w in words],
        "b": [w[1] for w in words],
        "sub": [w[2] for w in words],
    }])
    for fault, cycle in seq_result.first_detect_cycle.items():
        assert (cycle is None) == (first[fault] is None), fault
        if cycle is not None:
            assert cycle == first[fault], fault


def test_mismatched_sequence_lengths_rejected():
    sim = SeqFaultSimulator(make_register(2))
    with pytest.raises(ValueError):
        sim.run_sequence({"d": [1, 2], "en": [1]})


def test_result_properties():
    nl = make_register(2)
    sim = SeqFaultSimulator(nl)
    result = sim.run_sequence({"d": [3, 0], "en": [1, 1]})
    assert set(result.detected) | set(result.undetected) == set(
        sim.fault_list.faults
    )
    assert result.n_cycles == 2


@pytest.mark.parametrize("stimulus, faults, offender", [
    pytest.param({"d": [1], "en": [1], "bogus": [0]}, None, "'bogus'",
                 id="unknown-bus"),
    pytest.param({"d": [1], "en": [1], "q": [0]}, None, "'q'",
                 id="bus-not-primary-inputs"),
    pytest.param({"d": [1]}, None, "'en'", id="undriven-primary-input"),
    pytest.param({}, None, "empty stimulus", id="empty-stimulus"),
    pytest.param({"d": [1], "en": [1]}, [Fault(10_000, 0)], "'#10000'",
                 id="fault-not-on-a-site"),
])
def test_bad_input_raises_one_config_error(stimulus, faults, offender):
    sim = SeqFaultSimulator(make_register(2))
    with pytest.raises(ConfigError, match=offender):
        sim.run_sequence(stimulus, faults=faults)


def test_sequential_simulator_length_mismatch_is_config_error():
    sim = SequentialSimulator(make_register(2))
    with pytest.raises(ConfigError, match="equal length"):
        sim.run_sequence({"d": [1, 2], "en": [1]}, output_bus="q")


def test_survivor_regrading_reuses_one_instance():
    """Re-grading a shrinking survivor set on one instance (E5's random
    phase) matches grading each subset on a fresh simulator."""
    nl = accumulator4()
    sim = SeqFaultSimulator(nl)
    rng = random.Random(5)
    survivors = list(sim.fault_list.faults)
    for _ in range(3):
        stimulus = {"in": [rng.randrange(16) for _ in range(3)]}
        result = sim.run_sequence(stimulus, faults=survivors)
        fresh = SeqFaultSimulator(nl).run_sequence(stimulus, faults=survivors)
        assert result.first_detect_cycle == fresh.first_detect_cycle
        survivors = result.undetected


def test_observability_records_sections_and_counters():
    """Armed obs records the grader's sections and counters; results are
    identical with obs on and off, and nothing is recorded when off."""
    nl = accumulator4()
    stimulus = {"in": [1, 2, 3, 4, 5, 6, 7, 8]}
    obs.disable()
    off = SeqFaultSimulator(nl).run_sequence(stimulus)
    assert obs.export_worker_payload() is None
    with obs.enabled_session(trace=False) as session:
        sim = SeqFaultSimulator(nl)
        on = sim.run_sequence(stimulus)
        # Some fault survives, so both calls step all 8 cycles.
        assert on.undetected
        sim.run_sequence(stimulus, faults=on.undetected)
    assert on.first_detect_cycle == off.first_detect_cycle
    timings = session.profiler.timings()
    assert timings["sim.seq.compile"]["calls"] == 1   # compiled once
    assert timings["sim.seq.grade"]["calls"] == 2
    counters = session.registry.counters
    n_faults = len(sim.fault_list.faults)
    assert counters["sim.seq.faults_graded"] \
        == n_faults + len(on.undetected)
    assert counters["sim.seq.cycles"] == 2 * len(stimulus["in"])


def test_observability_identical_across_a_repack():
    """A stream long enough to repack gives the same map with obs armed
    and disarmed; armed, each repack is one ``sim.seq.repack`` section."""
    nl = accumulator4()
    rng = random.Random(9)
    stimulus = {"in": [rng.randrange(16) for _ in range(320)]}
    obs.disable()
    off = SeqFaultSimulator(nl).run_sequence(stimulus)
    with obs.enabled_session(trace=False) as session:
        on = SeqFaultSimulator(nl).run_sequence(stimulus)
    assert on.first_detect_cycle == off.first_detect_cycle
    repacks = session.registry.counters["sim.seq.repacks"]
    assert repacks >= 1
    assert session.profiler.timings()["sim.seq.repack"]["calls"] == repacks


def test_kernel_recompiles_only_for_uncovered_targets():
    """A call whose targets sit on the instance kernel's sites reuses it;
    a target off those sites compiles a kernel for the new call."""
    nl = accumulator4()
    faults = SeqFaultSimulator(nl).fault_list.faults
    half = faults[:len(faults) // 2]
    stimulus = {"in": [1, 2, 3, 4]}
    with obs.enabled_session(trace=False) as session:
        sim = SeqFaultSimulator(nl)
        sim.run_sequence(stimulus, faults=half)
        sim.run_sequence(stimulus, faults=half[1:])
        assert session.profiler.timings()["sim.seq.compile"]["calls"] == 1
        result = sim.run_sequence(stimulus, faults=faults)
        assert session.profiler.timings()["sim.seq.compile"]["calls"] == 2
    fresh = SeqFaultSimulator(nl).run_sequence(stimulus, faults=faults)
    assert result.first_detect_cycle == fresh.first_detect_cycle
