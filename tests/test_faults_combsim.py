"""Tests for pattern-parallel combinational fault simulation."""

import random

import pytest

from repro.faults.combsim import CombFaultSimulator
from repro.faults.model import Fault, collapse_faults, full_fault_list
from repro.logic.builder import NetlistBuilder
from repro.rtl.arith import make_addsub
from repro.rtl.multiplier import make_multiplier
from repro.runtime.errors import ConfigError
from tests.test_faults_batched import cone_detection


def and2():
    b = NetlistBuilder("and2")
    a = b.input("a")
    c = b.input("c")
    out = b.and_(a, c, name="y")
    b.output(out)
    b.netlist.add_bus("y", [out])
    return b.finish()


def test_rejects_sequential_netlist():
    b = NetlistBuilder("seq")
    a = b.input("a")
    q = b.dff(a)
    b.output(q)
    with pytest.raises(ValueError):
        CombFaultSimulator(b.finish())


def test_and_gate_detection_patterns():
    nl = and2()
    sim = CombFaultSimulator(nl, collapse_faults(nl, full_fault_list(nl)))
    patterns = {"a": [0, 0, 1, 1], "c": [0, 1, 0, 1]}
    y = nl.net_id("y")
    detections = sim.detect(patterns, faults=[Fault(y, 0), Fault(y, 1)])
    # y sa0 detected only when good y = 1, i.e. pattern 3.
    assert detections[Fault(y, 0)] == 0b1000
    # y sa1 detected whenever good y = 0: patterns 0,1,2.
    assert detections[Fault(y, 1)] == 0b0111


def test_exhaustive_patterns_detect_everything_on_addsub():
    """All input combinations detect every collapsed fault of a small addsub."""
    nl = make_addsub(2)
    sim = CombFaultSimulator(nl)
    a_words, b_words, subs = [], [], []
    for a in range(4):
        for b in range(4):
            for s in (0, 1):
                a_words.append(a)
                b_words.append(b)
                subs.append(s)
    detections = sim.detect({"a": a_words, "b": b_words, "sub": subs})
    undetected = [f for f, m in detections.items() if m == 0]
    assert undetected == []


def test_random_patterns_high_coverage_multiplier():
    nl = make_multiplier(4, 8)
    sim = CombFaultSimulator(nl)
    rng = random.Random(7)
    words_a = [rng.randrange(16) for _ in range(256)]
    words_b = [rng.randrange(16) for _ in range(256)]
    detections = sim.detect({"a": words_a, "b": words_b})
    coverage = sum(1 for m in detections.values() if m) / len(detections)
    assert coverage > 0.95


def test_run_with_dropping_reports_first_pattern():
    nl = and2()
    sim = CombFaultSimulator(nl)
    y = nl.net_id("y")
    blocks = [
        {"a": [0, 0], "c": [0, 1]},
        {"a": [1, 1], "c": [0, 1]},
    ]
    first = sim.run_with_dropping(blocks, faults=[Fault(y, 0), Fault(y, 1)])
    assert first[Fault(y, 1)] == 0  # first pattern with y=0
    assert first[Fault(y, 0)] == 3  # global index of (a=1, c=1)


def test_local_detection_reports_faulty_words():
    nl = and2()
    sim = CombFaultSimulator(nl)
    y = nl.net_id("y")
    assert cone_detection(sim, Fault(y, 1), {"a": [0, 1], "c": [0, 1]},
                          ["y"]) == (0b01, {"y": [1, 1]})


def test_unexcited_fault_not_detected():
    nl = and2()
    sim = CombFaultSimulator(nl)
    y = nl.net_id("y")
    detections = sim.detect({"a": [1], "c": [1]}, faults=[Fault(y, 1)])
    assert detections[Fault(y, 1)] == 0


def test_fault_on_primary_output_input_observable():
    """A fault on a PI that is also a PO must be directly observable."""
    b = NetlistBuilder("wire")
    a = b.input("a")
    out = b.buf(a, name="y")
    b.output(out)
    nl = b.finish()
    sim = CombFaultSimulator(nl)
    detections = sim.detect(
        {"a": [0, 1]}, faults=[Fault(a, 0), Fault(a, 1)]
    )
    assert detections[Fault(a, 0)] == 0b10
    assert detections[Fault(a, 1)] == 0b01


def test_mismatched_pattern_lengths_rejected():
    sim = CombFaultSimulator(and2())
    with pytest.raises(ValueError):
        sim.detect({"a": [0, 1], "c": [0]})


@pytest.mark.parametrize("call, stimulus, offender", [
    pytest.param("dropping", {}, "empty stimulus", id="empty-block"),
    pytest.param("dropping", {"a": [1, 0, 1], "c": [0]}, "equal length",
                 id="ragged-block"),
    pytest.param("dropping", {"a": [1], "c": [1], "bogus": [0]}, "'bogus'",
                 id="unknown-bus"),
    pytest.param("dropping", {"a": [1], "c": [1], "y": [0]}, "'y'",
                 id="output-bus"),
    pytest.param("detect", {"a": [1]}, "'c'", id="undriven-primary-input"),
])
def test_bad_input_raises_one_config_error(call, stimulus, offender):
    nl = and2()
    sim = CombFaultSimulator(nl)
    with pytest.raises(ConfigError, match=offender):
        if call == "detect":
            sim.detect(stimulus)
        else:
            # A valid block first: every block is checked, not just one.
            sim.run_with_dropping([{"a": [1], "c": [0]}, stimulus])
