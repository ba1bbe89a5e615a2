"""Cross-validation of the simulation stack, two ways.

DESIGN.md promises that the Tetramax-substitute (component-local gate-level
detection + behavioural propagation) is validated against exact flat
gate-level sequential fault simulation.  The first half of this module
grades the *same* instruction stream both ways — the flat core
fault-parallel, the hierarchical simulator per component — and compares
coverage per datapath region (the flat core's gates carry region
provenance labels).

The flat grade of that stream is also pinned fault by fault, by a
digest of its per-fault first-detect map, and so is a grade of a
1,000-cycle stream long enough for the grader to repack its lanes.

The second half is a seeded differential sweep over structurally random
netlists (:mod:`repro.logic.random_nets`): the interpreted simulator,
the compiled evaluator, the sequential engine and the compiled forcing
kernel (forcing every site, or only some) must agree bit-for-bit,
pattern-parallel, across hundreds of seeds, and the one-pass
fault-parallel grader must reproduce a serial one-fault-at-a-time
reference exactly, on streams short and long enough to repack.  Any
disagreeing netlist is dumped to ``tests/artifacts/`` as a JSON repro
artifact (re-loadable via ``repro.lint.artifacts.netlist_from_doc``)
before the assertion fires.
"""

import hashlib
import json
import random
from collections import defaultdict
from pathlib import Path

import pytest

from repro import obs
from repro.bist.template import RandomLoad, TemplateArchitecture
from repro.dsp.gatelevel import make_gatelevel_core
from repro.dsp.isa import Instruction, Opcode
from repro.faults.hierarchical import HierarchicalFaultSimulator
from repro.faults.model import full_fault_list
from repro.faults.seqsim import SeqFaultSimulator
from repro.lint.artifacts import netlist_from_doc
from repro.logic.builder import NetlistBuilder
from repro.logic.compiled import CompiledEvaluator, CompiledForcingKernel
from repro.logic.gates import GateType
from repro.logic.random_nets import netlist_to_doc, random_netlist
from repro.logic.sequential import SequentialSimulator
from repro.logic.simulator import CombSimulator

#: Regions compared; others are either too small for rates to be stable
#: (truncater region: 2 flat faults) or differ in fault-model scope.
COMPARED = (
    "multiplier", "shifter", "addsub", "acca", "accb", "regfile",
    "muxa", "muxb", "muxg_shifter", "muxg_limiter", "limiter",
    "mux7", "macreg", "buffer",
)
TOLERANCE = 0.12


def stream(iterations=8):
    program = [
        RandomLoad(0), RandomLoad(1),
        Instruction(Opcode.MPYA, rega=0, regb=1, dest=2),
        Instruction(Opcode.OUT, regb=2),
        Instruction(Opcode.MACB_SUB, rega=0, regb=1, dest=3),
        Instruction(Opcode.OUT, regb=3),
        Instruction(Opcode.SHIFTA, rega=0, dest=4),
        Instruction(Opcode.OUT, regb=4),
        Instruction(Opcode.OUTA),
        Instruction(Opcode.OUTB),
    ]
    return TemplateArchitecture(program).expand(iterations)


#: Full-universe flat grade of :func:`stream`: cycles, faults, detected
#: and the digest of the sorted ``(net, stuck_at, first-detect cycle or
#: None)`` rows.  Recorded with the earlier grader, which simulated 63
#: fault machines per pass through the interpreted simulator.
FLAT_GOLDEN = (80, 4737, 1987, "9fdbbf8f1f50ec9e")
#: The same for ``stream(100)``, 1,000 cycles.  Recorded with the dense
#: grader, which stepped every lane and forced every site to the end.
FLAT_LONG_GOLDEN = (1000, 4737, 3084, "9cbafec91563f52c")


def detect_map_digest(first_detect_cycle):
    rows = sorted((f.net, f.stuck_at, c) for f, c in first_detect_cycle.items())
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def flat_run():
    flat = make_gatelevel_core()
    return flat, SeqFaultSimulator(flat).run_sequence({"instr": stream()})


@pytest.fixture(scope="module")
def both_runs(flat_run):
    words = stream()
    flat, flat_result = flat_run
    flat_by_region = defaultdict(lambda: [0, 0])
    for fault, cycle in flat_result.first_detect_cycle.items():
        region = flat.net_regions.get(fault.net)
        if region is None:
            continue
        flat_by_region[region][1] += 1
        flat_by_region[region][0] += cycle is not None
    hier = HierarchicalFaultSimulator().run(words)
    return flat_by_region, hier.coverage_report().by_component


def test_flat_grade_matches_golden_fault_by_fault(flat_run):
    _, result = flat_run
    got = (result.n_cycles, len(result.first_detect_cycle),
           len(result.detected), detect_map_digest(result.first_detect_cycle))
    assert got == FLAT_GOLDEN


def test_long_flat_grade_repacks_and_matches_golden():
    """Half the lanes are detected well before the end of 1,000 cycles,
    so the grader repacks; the map is still the dense grader's."""
    flat = make_gatelevel_core()
    with obs.enabled_session(trace=False) as session:
        result = SeqFaultSimulator(flat).run_sequence({"instr": stream(100)})
    got = (result.n_cycles, len(result.first_detect_cycle),
           len(result.detected), detect_map_digest(result.first_detect_cycle))
    assert got == FLAT_LONG_GOLDEN
    assert session.registry.counters["sim.seq.repacks"] >= 1


def test_96_cycle_flat_grade_never_repacks(flat_run):
    """96 cycles (``perfbench``'s ``flat_exact`` length) leave too few
    cycles after the first window to pay back a compile, so no repack
    fires even with most lanes detected by then."""
    flat, golden = flat_run
    early = {f: c for f, c in golden.first_detect_cycle.items()
             if c is not None and c < 64}
    never = [f for f, c in golden.first_detect_cycle.items() if c is None]
    faults = list(early) + never[:len(early) // 2]
    with obs.enabled_session(trace=False) as session:
        result = SeqFaultSimulator(flat).run_sequence(
            {"instr": stream(10)[:96]}, faults=faults)
    assert 2 * len(early) >= len(faults)  # the live-lane rule alone holds
    assert "sim.seq.repacks" not in session.registry.counters
    assert session.registry.counters["sim.seq.cycles"] == 96
    assert {f: result.first_detect_cycle[f] for f in early} == early


def test_per_component_coverage_agreement(both_runs):
    flat_by_region, hier_by_component = both_runs
    disagreements = []
    for component in COMPARED:
        flat_detected, flat_total = flat_by_region[component]
        if flat_total < 20:
            continue
        hier_detected, hier_total = hier_by_component[component]
        flat_rate = flat_detected / flat_total
        hier_rate = hier_detected / hier_total
        if abs(flat_rate - hier_rate) > TOLERANCE:
            disagreements.append(
                f"{component}: flat {flat_rate:.1%} vs "
                f"hierarchical {hier_rate:.1%}"
            )
    assert not disagreements, disagreements


def test_major_components_closely_matched(both_runs):
    """The big structures must agree tightly, not just within tolerance."""
    flat_by_region, hier_by_component = both_runs
    for component in ("multiplier", "shifter", "regfile"):
        flat_detected, flat_total = flat_by_region[component]
        hier_detected, hier_total = hier_by_component[component]
        assert abs(flat_detected / flat_total
                   - hier_detected / hier_total) < 0.05, component


def test_flat_universe_carries_region_labels():
    flat = make_gatelevel_core()
    labelled = set(flat.net_regions.values())
    for component in COMPARED:
        assert component in labelled, component


# ----------------------------------------------------------------------
# Seeded differential sweep: interpreted vs compiled vs sequential
# ----------------------------------------------------------------------
N_COMB_CASES = 140
N_SEQ_CASES = 60
N_PATTERNS = 8
ARTIFACT_DIR = Path(__file__).parent / "artifacts"


def _dump_failure(netlist, seed, **extra):
    """Write a failing netlist as a replayable JSON repro artifact."""
    ARTIFACT_DIR.mkdir(exist_ok=True)
    doc = netlist_to_doc(netlist)
    doc["xval"] = {"seed": seed, **extra}
    path = ARTIFACT_DIR / f"xval_{netlist.name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _comb_netlist(seed):
    return random_netlist(seed, n_inputs=4 + seed % 5,
                          n_gates=24 + seed % 33, n_dffs=0)


def _seq_netlist(seed):
    return random_netlist(1000 + seed, n_inputs=3 + seed % 4,
                          n_gates=20 + seed % 21, n_dffs=2 + seed % 4,
                          name=f"randseq{seed}")


def _stimulus(netlist, seed, n_patterns=N_PATTERNS):
    rng = random.Random(("stimulus", seed).__repr__())
    return {net: rng.randrange(1 << n_patterns) for net in netlist.inputs}


@pytest.mark.parametrize("seed", range(N_COMB_CASES))
def test_interpreted_vs_compiled_bit_for_bit(seed):
    """CombSimulator and CompiledEvaluator agree on every net, every bit."""
    netlist = _comb_netlist(seed)
    inputs = _stimulus(netlist, seed)
    interpreted = CombSimulator(netlist).run(inputs, N_PATTERNS)
    compiled = CompiledEvaluator(netlist).run(inputs, N_PATTERNS)
    if interpreted != compiled:
        bad = [netlist.net_names[n] for n in range(netlist.n_nets)
               if interpreted[n] != compiled[n]]
        path = _dump_failure(netlist, seed, engine="compiled",
                             inputs={str(k): v for k, v in inputs.items()},
                             mismatched_nets=bad)
        pytest.fail(f"seed {seed}: {len(bad)} net(s) disagree "
                    f"(first: {bad[:5]}); repro dumped to {path}")


@pytest.mark.parametrize("seed", range(N_SEQ_CASES))
def test_sequential_engine_vs_reference_stepping(seed):
    """The sequential engine and the forcing kernel (with identity
    masks, which force no lane) match manual CombSimulator + DFF-update
    stepping."""
    netlist = _seq_netlist(seed)
    n_cycles = 6
    mask = (1 << N_PATTERNS) - 1
    engine = SequentialSimulator(netlist, n_patterns=N_PATTERNS)
    kernel = CompiledForcingKernel(netlist)
    keep_all = [mask] * netlist.n_nets
    set_none = [0] * netlist.n_nets
    kernel_values = kernel.reset(mask)
    reference = CombSimulator(netlist)
    state = {dff.q: (mask if dff.init else 0) for dff in netlist.dffs}
    per_cycle_inputs = []
    for cycle in range(n_cycles):
        inputs = _stimulus(netlist, (seed, cycle))
        per_cycle_inputs.append({str(k): v for k, v in inputs.items()})
        got = engine.step(inputs)
        for net, value in inputs.items():
            kernel_values[net] = value
        kernel.step(kernel_values, keep_all, set_none, mask)
        want = reference.run(inputs, N_PATTERNS, state=state)
        if got != want or kernel_values != want:
            path = _dump_failure(netlist, seed, engine="sequential",
                                 cycle=cycle, inputs=per_cycle_inputs)
            pytest.fail(f"seed {seed}: divergence at cycle {cycle}; "
                        f"repro dumped to {path}")
        kernel.latch(kernel_values)
        state = {dff.q: want[dff.d] & mask for dff in netlist.dffs}
    assert engine.state == state \
        == {dff.q: kernel_values[dff.q] for dff in netlist.dffs}


@pytest.mark.parametrize("seed", range(0, N_SEQ_CASES, 3))
def test_site_kernel_vs_every_site_kernel(seed):
    """A kernel that forces only some sites steps exactly as the kernel
    that forces every site, under masks that force lanes only there."""
    netlist = _seq_netlist(seed)
    rng = random.Random(("sites", seed).__repr__())
    faults = rng.sample(full_fault_list(netlist), 12)
    sites = defaultdict(set)
    for fault in faults:
        sites[fault.net].add(fault.stuck_at)
    mask = (1 << (len(faults) + 1)) - 1
    keep = [mask] * netlist.n_nets
    set_ = [0] * netlist.n_nets
    for k, fault in enumerate(faults):
        if fault.stuck_at:
            set_[fault.net] |= 2 << k
        else:
            keep[fault.net] &= ~(2 << k)
    dense = CompiledForcingKernel(netlist)
    narrow = CompiledForcingKernel(netlist, sites)
    assert narrow.covers(sites) and dense.covers(narrow.sites)
    other = next(f for f in full_fault_list(netlist) if f not in faults)
    assert not narrow.covers({other.net: {other.stuck_at}})
    want, got = dense.reset(mask), narrow.reset(mask)
    for cycle in range(6):
        inputs = _stimulus(netlist, (seed, cycle), len(faults) + 1)
        for values in (want, got):
            for net, value in inputs.items():
                values[net] = value
        dense.step(want, keep, set_, mask)
        narrow.step(got, keep, set_, mask)
        assert got == want, cycle
        dense.latch(want)
        narrow.latch(got)


def _serial_first_detect(netlist, words, faults):
    """Reference grader: each fault alone, stepped with ``forced`` on the
    sequential engine, compared against the good machine's outputs."""
    bus = netlist.buses["in"]

    def output_trace(forced):
        sim = SequentialSimulator(netlist)
        for word in words:
            values = sim.step({net: (word >> i) & 1
                               for i, net in enumerate(bus)}, forced=forced)
            yield [values[o] for o in netlist.outputs]

    good = list(output_trace(None))
    return {
        fault: next((t for t, outs in enumerate(
            output_trace({fault.net: fault.stuck_at})) if outs != good[t]),
            None)
        for fault in faults
    }


#: Random netlists whose 320-word stream detects half their faults by a
#: window boundary with at least ``REPACK_MIN_CYCLES`` to go.
REPACK_SEQ_CASES = (0, 3, 5)


@pytest.mark.parametrize("seed, n_words", [
    *[pytest.param(seed, 12, id=str(seed)) for seed in range(N_SEQ_CASES)],
    *[pytest.param(seed, 320, id=f"long{seed}") for seed in REPACK_SEQ_CASES],
])
def test_one_pass_grader_vs_serial_reference(seed, n_words):
    """Every fault in one lane set gives the same first-detect map as
    grading each fault on its own; the long streams repack on the way."""
    netlist = _seq_netlist(seed)
    name = "grade" if n_words == 12 else "grade-long"
    rng = random.Random((name, seed).__repr__())
    words = [rng.randrange(1 << len(netlist.inputs)) for _ in range(n_words)]
    faults = full_fault_list(netlist)
    with obs.enabled_session(trace=False) as session:
        got = SeqFaultSimulator(netlist).run_sequence(
            {"in": words}, faults=faults).first_detect_cycle
    repacks = session.registry.counters.get("sim.seq.repacks")
    assert (repacks is not None) == (n_words > 12)
    want = _serial_first_detect(netlist, words, faults)
    if got != want:
        bad = [f"{f.describe(netlist)}: {got[f]} vs {want[f]}"
               for f in faults if got[f] != want[f]]
        path = _dump_failure(netlist, seed, engine="seqsim", words=words,
                             mismatched_faults=bad)
        pytest.fail(f"seed {seed}: {len(bad)} fault(s) disagree "
                    f"(first: {bad[:5]}); repro dumped to {path}")


def _counter(bits, observed):
    """A ``bits``-bit counter that counts while ``in`` is 1 and shows only
    the ``observed`` bits: a fault below them corrupts the count long
    before an output shows it."""
    b = NetlistBuilder(f"counter{bits}")
    (carry,) = b.input_bus("in", 1)
    d = [b.net(f"d{i}") for i in range(bits)]
    q = [b.dff(d[i], name=f"q[{i}]") for i in range(bits)]
    for i in range(bits):
        b.netlist.add_gate(GateType.XOR, d[i], (q[i], carry))
        carry = b.and_(q[i], carry)
    for i in observed:
        b.netlist.add_output(q[i])
    return b.finish()


def test_repeated_repacks_vs_serial_reference():
    """Two repacks, each carrying survivors whose flip-flops already
    hold a corrupted count, still give the serial reference's map."""
    netlist = _counter(8, observed=(5, 7))
    rng = random.Random("counter")
    words = [int(rng.random() < 0.75) for _ in range(600)]
    faults = full_fault_list(netlist)
    with obs.enabled_session(trace=False) as session:
        got = SeqFaultSimulator(netlist).run_sequence(
            {"in": words}, faults=faults).first_detect_cycle
    assert session.registry.counters["sim.seq.repacks"] == 2
    assert got == _serial_first_detect(netlist, words, faults)


@pytest.mark.parametrize("seed", [0, 3, 7, 11])
def test_repro_artifact_round_trip(seed):
    """netlist_to_doc → netlist_from_doc reproduces the simulation."""
    netlist = _seq_netlist(seed)
    clone = netlist_from_doc(netlist_to_doc(netlist))
    clone.validate()
    inputs = _stimulus(netlist, seed)
    clone_inputs = {clone.net_id(netlist.net_names[n]): v
                    for n, v in inputs.items()}
    original = SequentialSimulator(netlist, n_patterns=N_PATTERNS)
    replayed = SequentialSimulator(clone, n_patterns=N_PATTERNS)
    for _ in range(4):
        want = original.step(inputs)
        got = replayed.step(clone_inputs)
        assert [want[n] for n in netlist.outputs] == \
            [got[clone.net_id(netlist.net_names[n])] for n in netlist.outputs]
