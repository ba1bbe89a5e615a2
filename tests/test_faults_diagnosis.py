"""Tests for effect-cause fault diagnosis."""

from dataclasses import replace

import pytest

from repro.bist.template import RandomLoad, TemplateArchitecture
from repro.dsp.corespec import CoreSpec
from repro.dsp.family import CoreBuild
from repro.dsp.isa import Instruction, Opcode
from repro.faults.diagnosis import FaultDiagnoser
from repro.faults.hierarchical import (
    ComponentFault,
    DspFaultUniverse,
    StorageFault,
    storage_fault_core,
)

COMPONENTS = ["mux7", "macreg", "limiter", "acca"]


def stream():
    program = [
        RandomLoad(0), RandomLoad(1),
        Instruction(Opcode.MPYA, rega=0, regb=1, dest=2),
        Instruction(Opcode.OUT, regb=2),
        Instruction(Opcode.MACB_ADD, rega=0, regb=1, dest=3),
        Instruction(Opcode.OUT, regb=3),
        Instruction(Opcode.OUTA),
        Instruction(Opcode.OUTB),
    ]
    return TemplateArchitecture(program).expand(12)


@pytest.fixture(scope="module")
def diagnoser():
    universe = DspFaultUniverse(components=COMPONENTS, include_regfile=False)
    return FaultDiagnoser(stream(), universe=universe)


def test_clean_response_yields_no_candidates(diagnoser):
    assert diagnoser.diagnose(diagnoser.golden) == []


def test_storage_fault_diagnosed_top1(diagnoser):
    fault = StorageFault(("macreg",), "q", 3, 1)
    observed = diagnoser.faulty_response(fault)
    assert observed != diagnoser.golden
    ranked = diagnoser.diagnose(observed)
    assert ranked, "no candidates returned"
    assert ranked[0].score == 1.0
    # The top candidate predicts the observation exactly; it is the fault
    # itself or an equivalent one.
    assert diagnoser.faulty_response(ranked[0].fault) == observed


def test_component_fault_diagnosed(diagnoser):
    detected = [f for f in diagnoser.dictionary.detected
                if isinstance(f, ComponentFault)
                and f.component == "limiter"]
    fault = detected[0]
    observed = diagnoser.faulty_response(fault)
    ranked = diagnoser.diagnose(observed)
    assert ranked and ranked[0].score == 1.0
    assert diagnoser.faulty_response(ranked[0].fault) == observed


def test_diagnosis_scores_ordered(diagnoser):
    fault = StorageFault(("acca",), "q", 9, 1)
    observed = diagnoser.faulty_response(fault)
    if observed == diagnoser.golden:
        pytest.skip("fault not excited by this stream")
    ranked = diagnoser.diagnose(observed, top_k=8)
    scores = [c.score for c in ranked]
    assert scores == sorted(scores, reverse=True)


def test_out_of_model_defect_ranks_low(diagnoser):
    """Corrupting one random cycle matches no modelled fault exactly."""
    observed = list(diagnoser.golden)
    # flip a bit at an observed (non-zero) cycle
    idx = next(i for i, v in enumerate(observed) if v)
    observed[idx] ^= 0x01
    ranked = diagnoser.diagnose(observed)
    assert all(c.score < 1.0 for c in ranked)


def test_length_mismatch_rejected(diagnoser):
    with pytest.raises(ValueError):
        diagnoser.diagnose([0, 1, 2])


def test_candidate_describe(diagnoser):
    fault = StorageFault(("macreg",), "q", 0, 0)
    observed = diagnoser.faulty_response(fault)
    ranked = diagnoser.diagnose(observed)
    if ranked:
        text = ranked[0].describe()
        assert "%" in text


@pytest.mark.parametrize("depth", [3, 5])
def test_diagnosis_simulates_the_simulators_build(depth):
    """Responses are simulated on the universe's family point, not on
    the paper core: a clean response of a 3- or 5-deep core yields no
    candidates, and an in-model fault diagnoses with score 1.0."""
    build = CoreBuild.get(replace(CoreSpec.paper(), pipeline_depth=depth))
    words = stream()
    universe = DspFaultUniverse(components=COMPONENTS,
                                include_regfile=False, build=build)
    diagnoser = FaultDiagnoser(words, universe=universe)

    def response(core):
        return [core.step(word).port for word in words]

    assert diagnoser.diagnose(response(build.make_core())) == []
    fault = StorageFault(("macreg",), "q", 3, 1)
    observed = response(storage_fault_core(fault, build=build))
    assert diagnoser.faulty_response(fault) == observed
    ranked = diagnoser.diagnose(observed)
    assert ranked and ranked[0].score == 1.0
