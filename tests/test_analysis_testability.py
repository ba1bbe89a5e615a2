"""Tests for the structural testability engine (SCOAP / COP).

Three layers of pinning:

* textbook SCOAP and COP values on hand-built netlists (exact);
* structural invariants (monotonicity, unbounded propagation,
  sequential-depth increments);
* the differential gate from ISSUE 8 — COP-predicted-hard fault sites
  must rank-correlate positively with empirical first-detect indices
  from the fault simulator, on every combinational paper
  component and on seeded random netlists.
"""

import random

import pytest

from repro import obs
from repro.analysis.testability import (
    DEFAULT_SEQ_COST,
    UNBOUNDED,
    analyze_testability,
    rank_correlation,
    summarize_testability,
)
from repro.dsp.components import COMPONENTS
from repro.faults.combsim import CombFaultSimulator
from repro.faults.model import Fault, collapse_faults
from repro.logic.builder import NetlistBuilder


# ----------------------------------------------------------------------
# SCOAP controllability / observability — textbook values
# ----------------------------------------------------------------------
def test_scoap_primary_input_costs():
    b = NetlistBuilder("pi")
    a = b.input("a")
    b.output(b.buf(a))
    analysis = analyze_testability(b.finish())
    assert analysis.cc0[a] == 1.0
    assert analysis.cc1[a] == 1.0


def test_scoap_and_gate():
    b = NetlistBuilder("and2")
    a = b.input("a")
    c = b.input("b")
    y = b.and_(a, c)
    b.output(y)
    analysis = analyze_testability(b.finish())
    # cc1 = sum of input cc1s + 1; cc0 = cheapest controlling input + 1.
    assert analysis.cc1[y] == 3.0
    assert analysis.cc0[y] == 2.0
    # Observing `a` through the AND needs b=1 (non-controlling).
    assert analysis.co[a] == 2.0
    assert analysis.co[y] == 0.0  # primary output


def test_scoap_or_gate_dual():
    b = NetlistBuilder("or2")
    a = b.input("a")
    c = b.input("b")
    y = b.or_(a, c)
    b.output(y)
    analysis = analyze_testability(b.finish())
    assert analysis.cc0[y] == 3.0
    assert analysis.cc1[y] == 2.0
    assert analysis.co[a] == 2.0


def test_scoap_xor_gate():
    b = NetlistBuilder("xor2")
    a = b.input("a")
    c = b.input("b")
    y = b.xor(a, c)
    b.output(y)
    analysis = analyze_testability(b.finish())
    # Both polarities need both inputs justified: min combination + 1.
    assert analysis.cc0[y] == 3.0
    assert analysis.cc1[y] == 3.0
    # XOR always propagates: co = co(y) + cc of the cheaper side value + 1.
    assert analysis.co[a] == 2.0


def test_scoap_not_swaps():
    b = NetlistBuilder("inv")
    a = b.input("a")
    y = b.not_(a)
    b.output(y)
    analysis = analyze_testability(b.finish())
    assert analysis.cc0[y] == 2.0
    assert analysis.cc1[y] == 2.0
    assert analysis.co[a] == 1.0


def test_scoap_constants_are_unbounded():
    b = NetlistBuilder("tied")
    a = b.input("a")
    tie = b.const0()
    y = b.and_(a, tie)
    b.output(y)
    analysis = analyze_testability(b.finish())
    assert analysis.cc0[tie] == 1.0
    assert analysis.cc1[tie] == UNBOUNDED
    # The AND can never be driven to 1, and `a` can never be observed.
    assert analysis.cc1[y] == UNBOUNDED
    assert analysis.co[a] == UNBOUNDED


def test_scoap_dff_sequential_depth():
    b = NetlistBuilder("reg")
    d = b.input("d")
    q = b.dff(d, init=0)
    b.output(q)
    analysis = analyze_testability(b.finish())
    # Reset supplies the init value at cost 1; the other polarity pays
    # the through-path cc plus one sequential frame.
    assert analysis.cc0[q] == 1.0
    assert analysis.cc1[q] == 1.0 + DEFAULT_SEQ_COST
    # Observing d means waiting one frame for it to reach q.
    assert analysis.co[d] == DEFAULT_SEQ_COST


def test_scoap_seq_cost_parameter():
    b = NetlistBuilder("reg")
    d = b.input("d")
    q = b.dff(d, init=0)
    b.output(q)
    analysis = analyze_testability(b.finish(), seq_cost=3.0)
    assert analysis.cc1[q] == 4.0
    assert analysis.co[d] == 3.0


def test_scoap_chain_depth_accumulates():
    """CC grows along a chain of gates — deeper logic is harder."""
    b = NetlistBuilder("chain")
    net = b.input("a")
    costs = []
    nl_nets = [net]
    for _ in range(5):
        net = b.and_(net, b.input(f"side{len(nl_nets)}"))
        nl_nets.append(net)
    b.output(net)
    analysis = analyze_testability(b.finish())
    costs = [analysis.cc1[n] for n in nl_nets]
    assert costs == sorted(costs)
    assert costs[-1] > costs[0]


# ----------------------------------------------------------------------
# COP probabilities
# ----------------------------------------------------------------------
def test_cop_and_gate_exact():
    b = NetlistBuilder("and2")
    a = b.input("a")
    c = b.input("b")
    y = b.and_(a, c)
    b.output(y)
    analysis = analyze_testability(b.finish())
    assert analysis.p1[a] == pytest.approx(0.5)
    assert analysis.p1[y] == pytest.approx(0.25)
    # a is observed when b=1: probability 0.5.
    assert analysis.obs[a] == pytest.approx(0.5)
    assert analysis.obs[y] == pytest.approx(1.0)


def test_cop_xor_gate_exact():
    b = NetlistBuilder("xor2")
    a = b.input("a")
    c = b.input("b")
    y = b.xor(a, c)
    b.output(y)
    analysis = analyze_testability(b.finish())
    assert analysis.p1[y] == pytest.approx(0.5)
    # XOR propagates unconditionally.
    assert analysis.obs[a] == pytest.approx(1.0)


def test_cop_detection_probability():
    b = NetlistBuilder("and2")
    a = b.input("a")
    c = b.input("b")
    y = b.and_(a, c)
    b.output(y)
    analysis = analyze_testability(b.finish())
    # sa0 at y needs y=1 (p 0.25) and y observable (p 1).
    assert analysis.detection_probability(Fault(y, 0)) == pytest.approx(0.25)
    # sa1 at y needs y=0 (p 0.75).
    assert analysis.detection_probability(Fault(y, 1)) == pytest.approx(0.75)


def test_cop_wide_and_is_random_resistant():
    b = NetlistBuilder("wide")
    ins = [b.input(f"x{k}") for k in range(20)]
    y = b.and_(*ins)
    b.output(y)
    analysis = analyze_testability(b.finish())
    assert analysis.p1[y] == pytest.approx(2.0 ** -20)
    score = analysis.score(Fault(y, 0))
    assert score.detection_probability < 1e-5
    assert not score.statically_untestable


def test_fault_score_untestable_flag():
    b = NetlistBuilder("tied")
    a = b.input("a")
    y = b.and_(a, b.const0())
    b.output(y)
    analysis = analyze_testability(b.finish())
    assert analysis.score(Fault(y, 0)).statically_untestable
    assert not analysis.score(Fault(y, 1)).statically_untestable


def test_analysis_emits_obs_counters():
    b = NetlistBuilder("obsd")
    a = b.input("a")
    b.output(b.not_(a))
    nl = b.finish()
    with obs.enabled_session(profile=False) as session:
        analyze_testability(nl)
        counters = session.registry.snapshot()["counters"]
    assert counters.get("analysis.testability.analyses") == 1
    assert counters.get("analysis.testability.nets", 0) >= nl.n_nets


# ----------------------------------------------------------------------
# Rank correlation helper
# ----------------------------------------------------------------------
def test_rank_correlation_perfect():
    assert rank_correlation([1, 2, 3, 4], [10, 20, 30, 40]) \
        == pytest.approx(1.0)
    assert rank_correlation([1, 2, 3, 4], [40, 30, 20, 10]) \
        == pytest.approx(-1.0)


def test_rank_correlation_ties_and_constants():
    assert rank_correlation([1, 1, 1], [1, 2, 3]) == 0.0
    assert rank_correlation([], []) == 0.0
    # Ties get average ranks; still a valid coefficient in [-1, 1].
    rho = rank_correlation([1, 2, 2, 3], [1, 2, 3, 4])
    assert -1.0 <= rho <= 1.0
    assert rho > 0.5


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def test_summarize_testability_fields():
    b = NetlistBuilder("sum")
    a = b.input("a")
    c = b.input("b")
    b.output(b.and_(a, c))
    nl = b.finish()
    faults = collapse_faults(nl)
    summary = summarize_testability("sum", nl, faults.faults)
    assert summary.name == "sum"
    assert summary.n_faults == len(faults.faults)
    assert summary.n_unbounded == 0
    doc = summary.to_json()
    assert doc["name"] == "sum"
    assert len(summary.to_row()) == 10


# ----------------------------------------------------------------------
# Differential gate: static predictions vs fault simulation
# ----------------------------------------------------------------------
N_PATTERNS = 1024
BLOCK = 256
MIN_RHO = 0.05


def _first_detect_indices(nl, faults, seed=7):
    """Empirical first-detect index per fault under random patterns,
    censored at N_PATTERNS for never-detected faults."""
    rng = random.Random(seed)
    input_buses = [(name, nets) for name, nets in nl.buses.items()
                   if all(n in nl.inputs for n in nets)]
    blocks = []
    for _ in range(N_PATTERNS // BLOCK):
        blocks.append({name: [rng.randrange(1 << len(nets))
                              for _ in range(BLOCK)]
                       for name, nets in input_buses})
    sim = CombFaultSimulator(nl, faults)
    first = sim.run_with_dropping(blocks)
    return {f: (N_PATTERNS if t is None else t) for f, t in first.items()}


def _static_vs_dynamic_rho(nl):
    faults = collapse_faults(nl)
    analysis = analyze_testability(nl)
    first = _first_detect_indices(nl, faults)
    hardness = []
    empirical = []
    for fault in faults.faults:
        hardness.append(-analysis.detection_probability(fault))
        empirical.append(first[fault])
    # Higher static hardness should mean a later (or no) first detect.
    return rank_correlation(hardness, empirical)


@pytest.mark.parametrize("spec", [
    pytest.param(s, id=s.name) for s in COMPONENTS
    if s.factory is not None and s.kind == "comb"
])
def test_predicted_hardness_tracks_first_detect_on_components(spec):
    rho = _static_vs_dynamic_rho(spec.netlist())
    assert rho > MIN_RHO, (
        f"{spec.name}: COP-predicted hardness does not rank-correlate "
        f"with simulated first-detect indices (rho={rho:.3f})"
    )


def _random_netlist(seed, n_inputs=12, n_gates=80):
    rng = random.Random(seed)
    b = NetlistBuilder(f"rand{seed}")
    nets = [b.input(f"i{k}") for k in range(n_inputs)]
    for _ in range(n_gates):
        kind = rng.choice(("and", "or", "xor", "not"))
        if kind == "not":
            out = b.not_(rng.choice(nets))
        elif kind == "xor":
            out = b.xor(rng.choice(nets), rng.choice(nets))
        elif kind == "and":
            out = b.and_(rng.choice(nets), rng.choice(nets))
        else:
            out = b.or_(rng.choice(nets), rng.choice(nets))
        nets.append(out)
    used = {i for g in b.netlist.gates for i in g.inputs}
    for net in nets[n_inputs:]:
        if net not in used:
            b.output(net)
    return b.finish()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_predicted_hardness_tracks_first_detect_on_random_logic(seed):
    rho = _static_vs_dynamic_rho(_random_netlist(seed))
    assert rho > MIN_RHO, f"seed {seed}: rho={rho:.3f}"


def test_statically_untestable_confirmed_by_podem():
    """Every NET011-style candidate on a paper component really is
    untestable: PODEM proves it at a generous backtrack limit."""
    from repro.atpg.podem import Podem
    checked = 0
    for spec in COMPONENTS:
        if spec.factory is None or spec.kind != "comb":
            continue
        nl = spec.netlist()
        analysis = analyze_testability(nl)
        engine = Podem(nl, backtrack_limit=5000)
        for fault in collapse_faults(nl).faults:
            if analysis.score(fault).statically_untestable:
                assert engine.generate(fault).status == "untestable", \
                    f"{spec.name}: {fault.describe(nl)}"
                checked += 1
    assert checked > 0  # the multiplier tie-offs and limiter pads exist
