"""Tests for the shared compile/cone/trace caches (repro.runtime.cache)."""

import random

import pytest

from repro.dsp.components import component_by_name
from repro.faults.combsim import CombFaultSimulator
from repro.faults.model import collapse_faults
from repro.logic.simulator import CombSimulator, pack_patterns
from repro.runtime import cache
from repro.runtime.cache import (
    cache_stats,
    clear_caches,
    compiled_evaluator,
    compiled_evaluator3,
    fanout_cone,
    netlist_hash,
)


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_caches()
    yield
    clear_caches()


def fresh_netlist(name="mux7"):
    """An independently built netlist (``ComponentSpec.netlist`` caches)."""
    return component_by_name(name).factory()


# ----------------------------------------------------------------------
# Structural hashing
# ----------------------------------------------------------------------
def test_netlist_hash_stable_across_independent_builds():
    a = fresh_netlist()
    b = fresh_netlist()
    assert a is not b
    assert netlist_hash(a) == netlist_hash(b)


def test_netlist_hash_distinguishes_structures():
    mux = component_by_name("mux7").netlist()
    shifter = component_by_name("shifter").netlist()
    assert netlist_hash(mux) != netlist_hash(shifter)


def test_netlist_hash_memoised_and_invalidated_on_growth():
    netlist = fresh_netlist()
    first = netlist_hash(netlist)
    assert netlist._structural_hash[1] == first
    assert netlist_hash(netlist) == first
    # Growing the netlist changes its shape, so the memo is discarded.
    from repro.logic.gates import GateType
    extra = netlist.add_net("extra_for_hash_test")
    netlist.add_gate(GateType.NOT, extra, [netlist.inputs[0]])
    assert netlist_hash(netlist) != first


# ----------------------------------------------------------------------
# Compiled-evaluator dedupe
# ----------------------------------------------------------------------
def test_compiled_evaluator_shared_across_instances():
    a = fresh_netlist()
    b = fresh_netlist()
    assert compiled_evaluator(a) is compiled_evaluator(b)
    stats = cache_stats()
    assert stats["compile_misses"] == 1
    assert stats["compile_hits"] == 1


def test_compiled_evaluator3_cache_is_separate():
    netlist = component_by_name("mux7").netlist()
    two = compiled_evaluator(netlist)
    three = compiled_evaluator3(netlist)
    assert two is not three
    assert compiled_evaluator3(netlist) is three


def test_simulators_share_one_compiled_evaluator():
    """CombFaultSimulator instances over identical netlists compile once."""
    sims = []
    for _ in range(3):
        netlist = fresh_netlist()
        sims.append(CombFaultSimulator(netlist, collapse_faults(netlist)))
    compiled = {id(sim._compiled) for sim in sims}
    assert len(compiled) == 1


# ----------------------------------------------------------------------
# Good-machine trace cache
# ----------------------------------------------------------------------
def block_for(netlist, n_patterns=16, seed=3):
    rng = random.Random(seed)
    return {
        name: [rng.randrange(1 << len(nets)) for _ in range(n_patterns)]
        for name, nets in netlist.buses.items()
        if all(n in netlist.inputs for n in nets)
    }


def test_good_values_cached_across_simulator_instances():
    netlist = fresh_netlist()
    faults = collapse_faults(netlist)
    block = block_for(netlist)
    first = CombFaultSimulator(netlist, faults).good_values(block, 16)
    again = CombFaultSimulator(fresh_netlist(), faults) \
        .good_values(block, 16)
    assert again is first          # replayed by reference, not recomputed
    stats = cache_stats()
    assert stats["trace_misses"] == 1
    assert stats["trace_hits"] == 1
    assert stats["trace_hit_rate"] == 0.5


def test_cached_good_values_matches_direct_simulation():
    netlist = component_by_name("mux7").netlist()
    block = block_for(netlist)
    cached = CombFaultSimulator(netlist, collapse_faults(netlist)) \
        .good_values(block, 16)
    packed = {}
    for name, words in block.items():
        for i, net in enumerate(netlist.buses[name]):
            packed[net] = pack_patterns(words, i)
    direct = CombSimulator(netlist).run(packed, 16)
    assert list(cached) == list(direct)


def test_trace_cache_key_includes_block_and_width():
    netlist = component_by_name("mux7").netlist()
    sim = CombFaultSimulator(netlist, collapse_faults(netlist))
    a = sim.good_values(block_for(netlist, seed=3), 16)
    b = sim.good_values(block_for(netlist, seed=4), 16)
    assert a is not b
    assert cache_stats()["trace_misses"] == 2


def test_trace_cache_lru_bound(monkeypatch):
    monkeypatch.setattr(cache, "TRACE_CACHE_MAX", 2)
    netlist = component_by_name("mux7").netlist()
    sim = CombFaultSimulator(netlist, collapse_faults(netlist))
    for seed in range(4):
        sim.good_values(block_for(netlist, seed=seed), 16)
    assert cache_stats()["trace_blocks"] == 2
    # The evicted first block recomputes (a miss, not a hit).
    sim.good_values(block_for(netlist, seed=0), 16)
    assert cache_stats()["trace_hits"] == 0
    assert cache_stats()["trace_misses"] == 5


def test_clear_caches_resets_everything():
    netlist = component_by_name("mux7").netlist()
    compiled_evaluator(netlist)
    fanout_cone(netlist, netlist.gates[0].output)
    CombFaultSimulator(netlist, collapse_faults(netlist)) \
        .good_values(block_for(netlist), 16)
    clear_caches()
    stats = cache_stats()
    assert stats["compiled_evaluators"] == 0
    assert stats["cones"] == 0
    assert stats["trace_blocks"] == 0
    assert stats["compile_hits"] == stats["compile_misses"] == 0
    assert stats["cone_hits"] == stats["cone_misses"] == 0
    assert stats["trace_hits"] == stats["trace_misses"] == 0


# ----------------------------------------------------------------------
# Fanout-cone cache
# ----------------------------------------------------------------------
def test_fanout_cone_shared_across_independent_builds():
    a = fresh_netlist()
    b = fresh_netlist()
    net = a.gates[0].output  # identical structures assign identical ids
    assert fanout_cone(a, net) is fanout_cone(b, net)
    stats = cache_stats()
    assert stats["cone_misses"] == 1
    assert stats["cone_hits"] == 1
    assert stats["cones"] == 1


def test_fanout_cone_keyed_per_site():
    netlist = fresh_netlist()
    sites = [gate.output for gate in netlist.gates[:3]]
    cones = {id(fanout_cone(netlist, net)) for net in sites}
    assert len(cones) == len(sites)
    assert cache_stats()["cones"] == len(sites)


def test_fanout_cone_holds_gates_and_reached_outputs():
    netlist = fresh_netlist()
    for net in [netlist.inputs[0]] + [g.output for g in netlist.gates[:5]]:
        gates, outputs = fanout_cone(netlist, net)
        assert gates == netlist.transitive_fanout_gates(net)
        touched = {net} | {gate.output for gate in gates}
        assert outputs == [o for o in netlist.outputs if o in touched]


def test_both_polarities_and_simulators_share_one_cone():
    """Every excited cone walk is one lookup: the first walk of a site
    misses, every later one (other polarity, other instance) hits."""
    netlist = fresh_netlist()
    block = block_for(netlist, n_patterns=64)
    first = CombFaultSimulator(netlist)
    second = CombFaultSimulator(fresh_netlist())
    first.detect(block)
    stats = cache_stats()
    sites = {f.net for f in first.fault_list.faults}
    assert stats["cones"] == stats["cone_misses"] <= len(sites)
    misses = stats["cone_misses"]
    second.detect(block)
    stats = cache_stats()
    assert stats["cone_misses"] == misses
    assert stats["cone_hits"] > misses


def test_cache_stats_carries_every_kind_hit_rate():
    """The three rates the benchmark reads: one miss then one hit each."""
    netlist = fresh_netlist()
    sim = CombFaultSimulator(netlist)          # compile miss
    compiled_evaluator(fresh_netlist())        # compile hit
    fanout_cone(netlist, netlist.inputs[0])
    fanout_cone(netlist, netlist.inputs[0])
    sim.good_values(block_for(netlist), 16)
    sim.good_values(block_for(netlist), 16)
    stats = cache_stats()
    for kind in ("trace", "cone", "compile"):
        assert stats[f"{kind}_hit_rate"] == 0.5, kind
