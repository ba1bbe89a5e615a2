"""Cross-core differential fleet: the family generator vs itself.

Twenty seeded design points (16 sampled + the paper core + three
hand-picked extremes) each get three independent checks:

* gate-level netlist vs behavioural simulator on a seeded random program;
* the fault simulator vs a brute-force reference on the point's ``mux7``;
* Phase 2's dynamic mode-reachability vs the lint ISA rule's static one.

A failing point dumps its :meth:`CoreSpec.to_doc` (plus the seed and the
exact instruction words) as a replayable JSON artifact under
``tests/artifacts/`` — same idiom as the random-netlist cross-validation
fleet in ``test_cross_validation.py``.
"""

import json
import random
import zlib
from pathlib import Path

import pytest

from repro.dsp.core import DspCore
from repro.dsp.family import CoreBuild, CoreSpec
from repro.dsp.isa import Instruction, Opcode, encode
from repro.faults.hierarchical import (
    DspFaultUniverse,
    HierarchicalFaultSimulator,
)
from repro.harness.sweeps import sampled_specs
from repro.lint.modes import mode_reachability_crosscheck
from repro.logic.sequential import SequentialSimulator
from repro.metrics.table import build_metrics_table
from tests.test_faults_batched import (
    cone_detection,
    first_detect,
    reference_detection,
)

FLEET_SEED = 77
N_SAMPLED = 16
PROGRAM_LENGTH = 48

ARTIFACT_DIR = Path(__file__).parent / "artifacts"

#: Hand-picked extremes: the paper core, the smallest legal machine,
#: the deepest pipeline, and a wide-accumulator no-limiter point.
_EXTREMES = [
    CoreSpec.paper(),
    CoreSpec(n_registers=4, operand_width=4, acc_width=10,
             pipeline_depth=3, shifter="dedicated", adder="carry-select",
             has_truncater=False, has_limiter=False),
    CoreSpec(n_registers=8, operand_width=6, acc_width=14,
             pipeline_depth=5, shifter="barrel", adder="ripple"),
    CoreSpec(n_registers=16, operand_width=8, acc_width=24,
             pipeline_depth=4, shifter="dedicated", adder="carry-select",
             has_limiter=False),
]


def _fleet_specs():
    specs = list(_EXTREMES)
    seen = set(specs)
    for spec in sampled_specs(N_SAMPLED, seed=FLEET_SEED):
        if spec not in seen:
            seen.add(spec)
            specs.append(spec)
    return specs


FLEET = _fleet_specs()
FLEET_IDS = [spec.label() for spec in FLEET]


def _dump_failure(spec, seed, **extra):
    """Write a failing design point as a replayable JSON repro artifact."""
    ARTIFACT_DIR.mkdir(exist_ok=True)
    doc = {"spec": spec.to_doc(), "family": {"seed": seed, **extra}}
    path = ARTIFACT_DIR / f"family_{spec.label()}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _random_program(spec, seed, length=PROGRAM_LENGTH):
    """A seeded random instruction stream exercising every format."""
    rng = random.Random(seed)
    n = spec.n_registers
    opcodes = list(Opcode)
    words = []
    # Prime a few registers so the MAC family sees non-zero operands.
    for reg in range(min(4, n)):
        words.append(encode(Instruction(
            Opcode.LDI, imm=rng.randrange(256), dest=reg)))
    for _ in range(length):
        op = rng.choice(opcodes)
        words.append(encode(Instruction(
            op,
            rega=rng.randrange(n),
            regb=rng.randrange(n),
            dest=rng.randrange(n),
            imm=rng.randrange(256),
        )))
    words.extend(encode(Instruction(Opcode.OUT, regb=rng.randrange(n)))
                 for _ in range(3))
    return words


@pytest.fixture(params=FLEET, ids=FLEET_IDS)
def point(request):
    spec = request.param
    return spec, CoreBuild.get(spec)


def test_fleet_shape():
    assert len(FLEET) == len(_EXTREMES) + N_SAMPLED
    assert len(set(s.label() for s in FLEET)) == len(FLEET)
    for spec in FLEET:
        spec.validate()


def test_gate_vs_behavioral(point):
    """The netlist and the ISS agree cycle-for-cycle on a random program."""
    spec, build = point
    seed = FLEET_SEED ^ zlib.crc32(spec.label().encode()) & 0xFFFF
    words = _random_program(spec, seed)
    words += [encode(Instruction(Opcode.NOP))] * build.drain_length
    behav = build.make_core()
    gate = SequentialSimulator(build.netlist)
    for cycle, word in enumerate(words):
        r = behav.step(word)
        g = gate.step_bus({"instr": word})
        got = (bool(g["out_valid"]), g["out"])
        want = (r.out_valid, r.port)
        if got != want:
            path = _dump_failure(spec, seed, check="gate_vs_behavioral",
                                 cycle=cycle, words=words,
                                 behavioral=list(want), gate=list(got))
            pytest.fail(f"{spec.label()} diverges at cycle {cycle}: "
                        f"gate={got} behavioral={want} "
                        f"(repro artifact: {path})")


def test_fault_sim_engine_parity(point):
    """The fault simulator's cone walk matches the brute-force
    per-pattern reference on the point's ``mux7``, stimulated by the
    inputs a random program drives into it, block by block."""
    spec, build = point
    seed = 0x5EED ^ zlib.crc32(spec.label().encode()) & 0xFFFF
    words = _random_program(spec, seed, length=24)
    universe = DspFaultUniverse(components=["mux7"], include_regfile=False,
                                build=build)
    ctx = HierarchicalFaultSimulator(
        universe=universe, block_size=16,
    ).prepare(words)
    records = [ctx.block_records[start]["mux7"] for start in ctx.block_starts]
    blocks = [rec["inputs"] for rec in records if rec["cycles"]]
    stream = {port: [w for block in blocks for w in block[port]]
              for port in blocks[0]}
    sim = universe.comb_simulators["mux7"]
    output_bus = universe.spec("mux7").output_bus
    first = sim.run_with_dropping(blocks)
    mismatched = []
    for fault in sim.fault_list.faults:
        expect_mask, expect_words = reference_detection(
            sim.netlist, fault, stream, [output_bus])
        mask, words = cone_detection(sim, fault, stream, [output_bus])
        if (mask, words, first[fault]) \
                != (expect_mask, expect_words, first_detect(expect_mask)):
            mismatched.append(fault.describe(sim.netlist))
    if mismatched:
        path = _dump_failure(spec, seed, check="walk_vs_reference",
                             words=words, mismatched=mismatched[:10])
        pytest.fail(f"{spec.label()}: {len(mismatched)} fault(s) disagree "
                    f"with the reference (repro artifact: {path})")


def test_mode_reachability_static_vs_dynamic(point):
    """Phase 2's dynamic discard and the lint ISA rule name the same
    unreachable columns on every family point."""
    spec, build = point
    table = build_metrics_table(n_controllability_samples=3,
                                n_observability_good=1,
                                seed=FLEET_SEED,
                                build=build)
    dynamic_only, static_only = mode_reachability_crosscheck(
        table, build=build)
    if dynamic_only or static_only:
        path = _dump_failure(
            spec, FLEET_SEED, check="mode_reachability",
            dynamic_only=[list(c) for c in dynamic_only],
            static_only=[list(c) for c in static_only])
        pytest.fail(f"{spec.label()} reachability disagreement: "
                    f"dynamic_only={dynamic_only} static_only={static_only} "
                    f"(repro artifact: {path})")


def test_paper_point_is_paper_singletons():
    """The paper spec's build makes the same core as ``DspCore()``, so
    the fleet's first point is literally the paper core."""
    build = CoreBuild.get(CoreSpec.paper())
    assert build.spec.is_paper
    core = build.make_core()
    assert isinstance(core, DspCore)
    paper = DspCore()
    rng = random.Random(3)
    for _ in range(20):
        word = rng.randrange(1 << 17)
        assert core.step(word) == paper.step(word)
