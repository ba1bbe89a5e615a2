"""Tests for the controllability/observability engines on the DSP core.

These assert the *structural* properties the paper's Table 2 exhibits —
which columns appear for which rows, the 0-vs-R sensitivity, the key
observability patterns — using small sample counts for speed.
"""

import random

import pytest

from repro.dsp.isa import Opcode
from repro.metrics.controllability import (
    ControllabilityEngine,
    InstructionVariant,
    component_cycle,
    default_variants,
    trace_variant,
)
from repro.metrics.observability import ObservabilityEngine, observation_wrapper
from repro.metrics.table import MetricsCell, MetricsTable, build_metrics_table


@pytest.fixture(scope="module")
def c_engine():
    return ControllabilityEngine(n_samples=80, seed=5)


@pytest.fixture(scope="module")
def o_engine():
    return ObservabilityEngine(n_good=4, seed=6)


def c_of(c_engine, op, state):
    return c_engine.measure(InstructionVariant(op, state))


def test_variant_validation_and_labels():
    with pytest.raises(ValueError):
        InstructionVariant(Opcode.MPYA, "X")
    assert InstructionVariant(Opcode.MACA_ADD, "R").label == "MacA+R"
    assert InstructionVariant(Opcode.LDI, "0").label == "load"


def test_default_variants_cover_paper_rows():
    labels = {v.label for v in default_variants()}
    for expected in ("load", "loadR", "MpyA", "MpyAR", "MacA+", "MacA+R",
                     "MactB-R", "ShiftA", "MpyshiftmacB", "Out", "OutrA"):
        assert expected in labels


def test_shifter_controllability_depends_on_acc_state(c_engine):
    """The paper's signature 0.18 -> 0.99 jump between load and loadR."""
    zero = c_of(c_engine, Opcode.LDI, "0")[("shifter", 0)]
    rand = c_of(c_engine, Opcode.LDI, "R")[("shifter", 0)]
    assert zero < 0.3
    assert rand > 0.9


def test_multiplier_always_well_controlled(c_engine):
    for op in (Opcode.LDI, Opcode.MPYA, Opcode.MACB_SUB):
        c = c_of(c_engine, op, "0")[("multiplier", 0)]
        assert c > 0.9, op


def test_shift_modes_2_3_never_measured(c_engine):
    for op in (Opcode.MPYA, Opcode.SHIFTA, Opcode.LDI):
        for state in ("0", "R"):
            measured = c_of(c_engine, op, state)
            assert ("shifter", 2) not in measured
            assert ("shifter", 3) not in measured


def test_shift_instruction_uses_mode_1(c_engine):
    measured = c_of(c_engine, Opcode.SHIFTA, "R")
    assert ("shifter", 1) in measured
    assert measured[("shifter", 1)] > 0.9


def test_addsub_mode_follows_instruction(c_engine):
    add = c_of(c_engine, Opcode.MACA_ADD, "R")
    sub = c_of(c_engine, Opcode.MACA_SUB, "R")
    assert ("addsub", 0) in add and ("addsub", 1) not in add
    assert ("addsub", 1) in sub and ("addsub", 0) not in sub


def test_observability_zero_without_propagation(o_engine):
    """Non-writing instructions propagate nothing from the MAC path."""
    o = o_engine.measure(InstructionVariant(Opcode.LDI, "R"))
    assert o[("multiplier", 0)] == 0.0
    assert o[("shifter", 0)] == 0.0


def test_observability_mpy_propagates_multiplier(o_engine):
    o = o_engine.measure(InstructionVariant(Opcode.MPYA, "0"))
    assert o[("multiplier", 0)] > 0.3
    assert o[("macreg", 0)] > 0.9


def test_accumulator_observability_is_zero_per_instruction(o_engine):
    """The paper's AccA column: O = 0.00 on every single-instruction row;
    accumulator errors need a follow-up observation sequence (Phase 2)."""
    for op in (Opcode.MPYA, Opcode.MACA_ADD, Opcode.LDI):
        o = o_engine.measure(InstructionVariant(op, "0"))
        assert o[("acca", 0)] == 0.0, op


def test_accumulator_observable_with_extra_wrapper(o_engine):
    """Adding 'outa' (Phase 2's observation sequence) exposes AccA."""
    from repro.dsp.isa import Instruction
    o = o_engine.measure(
        InstructionVariant(Opcode.MPYA, "0"),
        extra_wrapper=[Instruction(Opcode.OUTA)],
    )
    assert o[("acca", 0)] > 0.5


def test_buffer_observable_via_load(o_engine):
    o = o_engine.measure(InstructionVariant(Opcode.LDI, "0"))
    assert o[("buffer", 0)] > 0.9


def test_component_cycle_pipeline_stages():
    """The ID/EX/WB assignment mirrors the core's 4-stage pipeline: the
    cycle offsets after fetch are 1, 2 and 3."""
    for name in ("decoder", "regread_a", "regread_b"):
        assert component_cycle(name) == 1
    assert component_cycle("mux7") == 3
    for name in ("multiplier", "shifter", "addsub", "limiter",
                 "acca", "accb", "macreg", "buffer"):
        assert component_cycle(name) == 2


def test_component_cycle_matches_trace_activity():
    """Each component's activity really appears at its declared cycle."""
    from repro.dsp.components import COMPONENTS
    traces = trace_variant(InstructionVariant(Opcode.MPYA, "R"),
                           random.Random(11))
    seen = 0
    for spec in COMPONENTS:
        activity = traces[component_cycle(spec.name)].get(spec.name)
        if activity is not None:
            seen += 1
    # MPYA exercises the full MAC path plus the ID-stage components.
    assert seen >= 5


class _ZeroRandom(random.Random):
    """Degenerate stream: every draw is 0 — zero-entropy operands."""

    def randrange(self, *args, **kwargs):
        return 0


def test_zero_entropy_operands_give_zero_controllability():
    """With constant operands the entropy estimator must report C=0
    rather than crashing or emitting NaN."""
    engine = ControllabilityEngine(
        n_samples=8, seed=1, rng_factory=lambda label: _ZeroRandom(),
    )
    measured = engine.measure(InstructionVariant(Opcode.MPYA, "0"))
    assert measured, "MPYA must still exercise the MAC path"
    for key, c in measured.items():
        assert c == pytest.approx(0.0), key


def test_observation_wrapper_for_register_writers():
    """Register-writing rows get the 3x 'out dest' propagation tail
    (bypass, temp register, register file)."""
    wrapper = observation_wrapper(InstructionVariant(Opcode.LDI, "0"))
    assert len(wrapper) == 3
    assert all(i.opcode is Opcode.OUT for i in wrapper)
    assert len({i.regb for i in wrapper}) == 1


def test_observation_wrapper_empty_for_out_family():
    """The out family (including the accumulator-only OUTA/OUTB rows)
    needs no wrapper: the instruction *is* the propagation.  The NOP
    row writes nothing, so it gets none either."""
    for op in (Opcode.OUT, Opcode.OUTA, Opcode.OUTB, Opcode.NOP):
        variant = InstructionVariant(op, "0")
        assert observation_wrapper(variant) == [], op
    # MAC-family rows write their destination register and therefore do
    # get the propagation tail.
    assert observation_wrapper(InstructionVariant(Opcode.MACA_ADD, "0"))


def test_metrics_table_assembly():
    variants = [InstructionVariant(Opcode.MPYA, "0"),
                InstructionVariant(Opcode.MPYA, "R")]
    table = build_metrics_table(
        variants=variants,
        n_controllability_samples=40,
        n_observability_good=2,
    )
    assert table.rows == variants
    assert table.fault_counts["multiplier"] > 500
    cell = table.cell(variants[0], ("multiplier", 0))
    assert cell is not None
    assert 0.0 <= cell.c <= 1.0 and 0.0 <= cell.o <= 1.0
    rendered = table.render(max_columns=5)
    assert "multiplier" in rendered
    assert "#faults" in rendered


def test_metrics_table_threshold_view():
    table = MetricsTable(rows=[], columns=[("multiplier", 0)])
    strict = table.with_thresholds(0.9, 0.9)
    assert strict.c_theta == 0.9
    assert strict.columns == table.columns
    cell = MetricsCell(c=0.8, o=0.6)
    assert cell.covered(0.7, 0.5)
    assert not cell.covered(0.9, 0.5)


def test_metrics_table_cell_guard():
    table = MetricsTable(rows=[], columns=[("multiplier", 0)])
    with pytest.raises(KeyError):
        table.set_cell(InstructionVariant(Opcode.MPYA, "0"),
                       ("bogus", 9), MetricsCell(1, 1))
