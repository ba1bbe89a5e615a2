"""Tests for PODEM, time-frame unrolling, and random-resistant targeting."""

import hashlib

import pytest

from repro.atpg.podem import Podem
from repro.atpg.random_resistant import find_random_resistant
from repro.atpg.unroll import unroll
from repro.baselines.atpg_baseline import AtpgBaseline
from repro.faults.combsim import CombFaultSimulator
from repro.faults.hierarchical import DspFaultUniverse
from repro.faults.model import Fault, collapse_faults
from repro.faults.seqsim import SeqFaultSimulator
from repro.logic.builder import NetlistBuilder
from repro.rtl.arith import make_addsub
from repro.rtl.multiplier import make_multiplier
from repro.rtl.saturate import make_limiter


def verify_pattern(netlist, fault, result):
    sim = CombFaultSimulator(netlist)
    words = result.pattern_words(netlist)
    detections = sim.detect({k: [v] for k, v in words.items()},
                            faults=[fault])
    return bool(detections[fault])


@pytest.mark.parametrize("maker", [
    lambda: make_addsub(6),
    lambda: make_limiter(),
])
def test_podem_detects_every_testable_fault(maker):
    nl = maker()
    engine = Podem(nl, backtrack_limit=5000)
    undetected = []
    for fault in collapse_faults(nl).faults:
        result = engine.generate(fault)
        if result.detected:
            assert verify_pattern(nl, fault, result), fault.describe(nl)
        elif result.status == "aborted":
            undetected.append(fault)
        # untestable faults are acceptable: redundancy exists
    assert not undetected, [f.describe(nl) for f in undetected]


def test_podem_counts_decisions_and_backtracks():
    nl = make_addsub(6)
    engine = Podem(nl, backtrack_limit=5000)
    fault = Fault(nl.net_id("a[0]"), 0)
    result = engine.generate(fault)
    assert result.detected
    assert result.decisions > 0
    assert result.backtracks >= 0


def test_podem_rejects_sequential():
    b = NetlistBuilder("seq")
    a = b.input("a")
    q = b.dff(a)
    b.output(q)
    with pytest.raises(ValueError):
        Podem(b.finish())


def test_podem_proves_redundancy():
    """a AND NOT a == 0: the output sa0 is untestable."""
    b = NetlistBuilder("red")
    a = b.input("a")
    out = b.and_(a, b.not_(a))
    b.output(out)
    nl = b.finish()
    result = Podem(nl).generate(Fault(out, 0))
    assert result.status == "untestable"
    result = Podem(nl).generate(Fault(out, 1))
    assert result.detected


def test_pattern_words_requires_detection():
    nl = make_addsub(2)
    engine = Podem(nl)
    result = engine.generate(Fault(nl.net_id("a[0]"), 0))
    assert result.detected
    with pytest.raises(ValueError):
        from repro.atpg.podem import PodemResult
        PodemResult((), None, "aborted", 0).pattern_words(nl)


# ----------------------------------------------------------------------
# Record pin: every decision, backtrack, pattern and status of the search
# ----------------------------------------------------------------------
#: 1-in-N sample of each component's collapsed fault list.
PIN_STRIDE = 4


def record_digest(runs) -> str:
    """Digest of ``(key, PodemResult)`` pairs: status, backtracks,
    decisions and the full PI pattern, in run order."""
    digest = hashlib.sha256()
    for key, result in runs:
        pattern = None if result.pattern is None \
            else sorted(result.pattern.items())
        digest.update(repr((key, result.status, result.backtracks,
                            result.decisions, pattern)).encode())
    return digest.hexdigest()[:16]


def test_podem_records_match_pin_on_every_component():
    """Runs over a stride of every component's collapsed faults
    (detections, redundancy proofs and aborts at 300 backtracks)
    reproduce the pinned search exactly."""
    universe = DspFaultUniverse()
    runs = []
    for name in sorted(universe.comb_simulators):
        netlist = universe.comb_simulators[name].netlist
        faults = collapse_faults(netlist).faults[::PIN_STRIDE]
        engine = Podem(netlist, backtrack_limit=300)
        runs += [((name, f.net, f.stuck_at), engine.generate(f))
                 for f in faults]
    assert len(runs) == 614
    statuses = {result.status for _, result in runs}
    assert statuses == {"detected", "untestable", "aborted"}
    assert record_digest(runs) == "b96ad8f72ff942c4"


def test_podem_records_match_pin_on_unrolled_core():
    """The multi-site time-frame searches behind E5's
    :meth:`AtpgBaseline.attack` records, on the unrolled core, reproduce
    the pinned search exactly."""
    baseline = AtpgBaseline(n_frames=4, backtrack_limit=40, fault_sample=8)
    runs = [((f.net, f.stuck_at), baseline.engine.generate_multi(
                baseline.unrolled.fault_sites(f)))
            for f in baseline.survivors]
    assert len(runs) == 7
    assert record_digest(runs) == "9c8bc680809d7ae5"


# ----------------------------------------------------------------------
# Unrolling
# ----------------------------------------------------------------------
def toggler():
    """1-bit toggle flip-flop with enable."""
    b = NetlistBuilder("toggle")
    en = b.input("en")
    d = b.net("d")
    q = b.dff(d, name="q")
    b.netlist.add_bus("q", [q])
    from repro.logic.gates import GateType
    b.netlist.add_gate(GateType.XOR, d, (q, en))
    b.output(q)
    return b.finish()


def test_unroll_structure():
    nl = toggler()
    unrolled = unroll(nl, 3)
    assert unrolled.netlist.dffs == []
    assert len(unrolled.netlist.inputs) == 3   # en per frame
    assert len(unrolled.netlist.outputs) == 3  # q per frame


def test_unroll_semantics():
    """Unrolled evaluation equals stepping the sequential netlist."""
    from repro.logic.sequential import SequentialSimulator
    from repro.logic.simulator import CombSimulator
    nl = toggler()
    unrolled = unroll(nl, 4)
    comb = CombSimulator(unrolled.netlist)
    for stimulus in ([1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 0, 0]):
        seq = SequentialSimulator(nl)
        expected = seq.run_sequence({"en": stimulus}, output_bus="q")
        inputs = {}
        for frame, bit in enumerate(stimulus):
            inputs[unrolled.frame_bus(frame, "en")[0]] = bit
        values = comb.run(inputs)
        got = [values[unrolled.frame_bus(frame, "q")[0]]
               for frame in range(4)]
        assert got == expected


def test_unroll_validates_frames():
    with pytest.raises(ValueError):
        unroll(toggler(), 0)


def test_sequential_atpg_detects_toggler_fault():
    """A stuck toggle output is found by multi-frame PODEM and confirmed
    by sequential fault simulation."""
    nl = toggler()
    unrolled = unroll(nl, 3)
    engine = Podem(unrolled.netlist)
    fault = Fault(nl.net_id("q"), 0)
    result = engine.generate_multi(unrolled.fault_sites(fault))
    assert result.detected
    stimulus = []
    for frame in range(3):
        net = unrolled.frame_bus(frame, "en")[0]
        stimulus.append(result.pattern.get(net, 0))
    seq_result = SeqFaultSimulator(nl).run_sequence(
        {"en": stimulus}, faults=[fault]
    )
    assert seq_result.first_detect_cycle[fault] is not None


# ----------------------------------------------------------------------
# Random-resistant flow
# ----------------------------------------------------------------------
def test_find_random_resistant_shrinks_with_patterns():
    nl = make_multiplier(8, 18)
    few = find_random_resistant(nl, n_patterns=64)
    many = find_random_resistant(nl, n_patterns=2048)
    assert len(many) <= len(few)


def test_target_random_resistant_statuses():
    nl = make_multiplier(8, 18)
    resistant = find_random_resistant(nl, n_patterns=4096)
    engine = Podem(nl, backtrack_limit=2000)
    for fault in resistant[:6]:
        result = engine.generate(fault)
        assert result.status in ("detected", "untestable", "aborted")
        if result.detected:
            assert verify_pattern(nl, fault, result)
