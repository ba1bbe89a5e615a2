"""Pattern-batched fault simulation vs a brute-force per-pattern oracle.

:class:`CombFaultSimulator` grades a whole batch of patterns per pass:
each pattern is one bit of a packed word, and ``run_with_dropping``
takes the stream block by block.  Every entry point is checked here
against a reference that never packs or walks a cone: for each fault
and each pattern on its own, the faulty machine is rebuilt by pinning
the stuck net in a serial :class:`CombSimulator` run.
"""

import random

import pytest

from repro.faults.combsim import CombFaultSimulator
from repro.logic.random_nets import random_netlist
from repro.logic.simulator import CombSimulator, unpack_output
from repro.runtime.errors import ConfigError

N_CASES = 25


def reference_detection(netlist, fault, patterns, output_buses):
    """The fault graded one pattern at a time, with no cone walk.

    For every pattern the faulty machine is rebuilt from scratch by
    pinning the stuck net in a fresh :class:`CombSimulator` run.
    Returns ``(detected_mask, {bus: [faulty word per pattern]})``: a
    pattern detects when any primary output differs from the good run.
    """
    serial = CombSimulator(netlist)
    n_patterns = len(next(iter(patterns.values())))
    detected = 0
    words = {bus: [] for bus in output_buses}
    for k in range(n_patterns):
        inputs = {net: (patterns[bus][k] >> i) & 1
                  for bus in patterns
                  for i, net in enumerate(netlist.buses[bus])}
        good = serial.run(inputs, 1)
        faulty = serial.run(inputs, 1, forced={fault.net: fault.stuck_at})
        if any(good[out] != faulty[out] for out in netlist.outputs):
            detected |= 1 << k
        for bus in output_buses:
            words[bus].append(unpack_output(
                [faulty[net] for net in netlist.buses[bus]], 0))
    return detected, words


def cone_detection(sim, fault, patterns, output_buses):
    """The fault graded the way the hierarchical grader does it:
    :meth:`~CombFaultSimulator.simulate_fault` over the block's good
    values, each pattern's faulty word read back with ``unpack_output``.
    Returns what :func:`reference_detection` does."""
    n_patterns = len(next(iter(patterns.values())))
    good = sim.good_values(patterns, n_patterns)
    mask, changed = sim.simulate_fault(fault, good, n_patterns)
    words = {}
    for bus in output_buses:
        bits = [changed.get(net, good[net]) for net in sim.netlist.buses[bus]]
        words[bus] = [unpack_output(bits, k) for k in range(n_patterns)]
    return mask, words


def first_detect(mask):
    """Index of the first detecting pattern in ``mask``, or ``None``."""
    return (mask & -mask).bit_length() - 1 if mask else None


def _reference_netlist(seed):
    return random_netlist(2000 + seed, n_inputs=4 + seed % 5,
                          n_gates=24 + seed % 33, name=f"randref{seed}")


def _random_blocks(buses, widths, rng):
    """One block per width, with random words for every bus in ``buses``."""
    return [{name: [rng.getrandbits(len(nets)) for _ in range(width)]
             for name, nets in buses.items()} for width in widths]


def _concat(blocks):
    return {name: [w for block in blocks for w in block[name]]
            for name in blocks[0]}


@pytest.mark.parametrize("seed", range(N_CASES))
def test_brute_force_reference(seed):
    """Every entry point matches the per-pattern reference for every fault:
    ``detect`` masks, ``run_with_dropping`` first-detect indices across
    odd-width blocks, ``simulate_fault`` faulty words and
    ``faulty_output_word``."""
    netlist = _reference_netlist(100 + seed)
    rng = random.Random(("reference-blocks", seed).__repr__())
    blocks = _random_blocks({"in": netlist.buses["in"]}, (5, 7, 3), rng)
    stream = _concat(blocks)
    sim = CombFaultSimulator(netlist)
    faults = sim.fault_list.faults
    masks = sim.detect(stream)
    first = sim.run_with_dropping(blocks)
    for fault in faults:
        where = f"seed {seed}: {fault.describe(netlist)}"
        expect_mask, expect_words = reference_detection(
            netlist, fault, stream, ["out"])
        assert masks[fault] == expect_mask, where
        assert first[fault] == first_detect(expect_mask), where
        assert cone_detection(sim, fault, stream, ["out"]) \
            == (expect_mask, expect_words), where
        for k, word in enumerate(stream["in"]):
            assert sim.faulty_output_word(fault, {"in": word}, "out") \
                == expect_words["out"][k], f"{where}, pattern {k}"


@pytest.mark.parametrize("seed", range(N_CASES))
def test_local_detection_and_faulty_words(seed):
    """``simulate_fault`` masks and faulty word streams over a
    nine-pattern block, and each pattern's ``faulty_output_word``, match
    the reference on a second family of random netlists."""
    netlist = _reference_netlist(seed)
    rng = random.Random(("local-block", seed).__repr__())
    block = _random_blocks({"in": netlist.buses["in"]}, (9,), rng)[0]
    sim = CombFaultSimulator(netlist)
    for fault in sim.fault_list.faults:
        where = f"seed {seed}: {fault.describe(netlist)}"
        expect_mask, expect_words = reference_detection(
            netlist, fault, block, ["out"])
        assert cone_detection(sim, fault, block, ["out"]) \
            == (expect_mask, expect_words), where
        for k, word in enumerate(block["in"]):
            assert sim.faulty_output_word(fault, {"in": word}, "out") \
                == expect_words["out"][k], f"{where}, pattern {k}"


def test_paper_core_component_parity():
    """On a real paper-core component driven through several input
    buses at once, ``detect`` masks and ``run_with_dropping``
    first-detect indices match the reference for every fault."""
    from repro.dsp.components import component_by_name
    netlist = component_by_name("addsub").netlist()
    in_nets = set(netlist.inputs)
    buses = {name: nets for name, nets in netlist.buses.items()
             if nets and all(n in in_nets for n in nets)}
    assert len(buses) > 1
    rng = random.Random(("reference-addsub",).__repr__())
    blocks = _random_blocks(buses, (5, 7, 3), rng)
    stream = _concat(blocks)
    sim = CombFaultSimulator(netlist)
    masks = sim.detect(stream)
    first = sim.run_with_dropping(blocks)
    for fault in sim.fault_list.faults:
        expect_mask, _ = reference_detection(netlist, fault, stream, [])
        assert masks[fault] == expect_mask, fault.describe(netlist)
        assert first[fault] == first_detect(expect_mask), \
            fault.describe(netlist)


def test_detect_rejects_empty_bus_patterns():
    sim = CombFaultSimulator(_reference_netlist(1))
    with pytest.raises(ConfigError, match="no pattern buses given"):
        sim.detect({})


def test_detect_rejects_unequal_bus_lengths():
    sim = CombFaultSimulator(_reference_netlist(2))
    with pytest.raises(ConfigError, match="equal length"):
        sim.detect({"in": [1, 2], "out": [3]})
