"""Property tests over :class:`CoreSpec` validation and the family builder.

Two invariants:

* every *legal* spec builds a netlist that passes structural validation
  and carries no ERROR-level lint findings;
* every *illegal* spec (one axis pushed off its legal range) raises
  :class:`ConfigError` from ``validate()`` and never reaches the builder.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dsp.family import (
    CoreBuild,
    CoreSpec,
    N_REGISTERS_CHOICES,
    OPERAND_WIDTH_CHOICES,
    PIPELINE_DEPTH_CHOICES,
    SHIFTER_STYLES,
)
from repro.lint.findings import Severity
from repro.lint.netlist_rules import lint_netlist
from repro.rtl.arith import ADDER_STYLES
from repro.runtime.errors import ConfigError


@st.composite
def legal_specs(draw):
    width = draw(st.sampled_from(OPERAND_WIDTH_CHOICES))
    min_acc = 2 * width + 2
    return CoreSpec(
        n_registers=draw(st.sampled_from(N_REGISTERS_CHOICES)),
        operand_width=width,
        acc_width=draw(st.integers(min_acc, 32)),
        pipeline_depth=draw(st.sampled_from(PIPELINE_DEPTH_CHOICES)),
        shifter=draw(st.sampled_from(SHIFTER_STYLES)),
        adder=draw(st.sampled_from(ADDER_STYLES)),
        has_truncater=draw(st.booleans()),
        has_limiter=draw(st.booleans()),
    )


@st.composite
def illegal_specs(draw):
    """A legal spec with exactly one axis pushed off its legal range."""
    spec = draw(legal_specs())
    corruption = draw(st.sampled_from([
        "n_registers", "operand_width", "acc_narrow", "acc_wide",
        "pipeline_depth", "shifter", "adder",
    ]))
    if corruption == "n_registers":
        bad = {"n_registers": draw(st.sampled_from([0, 3, 5, 32]))}
    elif corruption == "operand_width":
        bad = {"operand_width": draw(st.sampled_from([0, 3, 7, 16]))}
    elif corruption == "acc_narrow":
        # Narrower than the sign-extended MAC product plus guard bits.
        min_acc = 2 * spec.operand_width + 2
        bad = {"acc_width": draw(st.integers(0, min_acc - 1))}
    elif corruption == "acc_wide":
        bad = {"acc_width": draw(st.integers(33, 64))}
    elif corruption == "pipeline_depth":
        bad = {"pipeline_depth": draw(st.sampled_from([0, 2, 6]))}
    elif corruption == "shifter":
        bad = {"shifter": draw(st.sampled_from(["funnel", "", "BARREL"]))}
    else:
        bad = {"adder": draw(st.sampled_from(["kogge-stone", "", "Ripple"]))}
    return CoreSpec(**{**spec.to_doc(), **bad})


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(legal_specs())
def test_legal_specs_build_clean_netlists(spec):
    build = CoreBuild.get(spec.validate())
    netlist = build.netlist
    netlist.validate()          # raises on structural defects
    report = lint_netlist(netlist, min_severity=Severity.ERROR)
    errors = [f for f in report if f.severity >= Severity.ERROR]
    assert not errors, \
        f"{spec.label()}: {[f.rule for f in errors]}"
    # The ISA surface is the same across the family: every opcode must
    # decode, and the netlist must expose the architectural buses.
    assert "out" in netlist.buses and "out_valid" in netlist.buses
    assert build.area > 0


@settings(max_examples=80, deadline=None)
@given(illegal_specs())
def test_illegal_specs_never_build(spec):
    with pytest.raises(ConfigError):
        spec.validate()
    with pytest.raises(ConfigError):
        CoreBuild(spec)


def test_validate_returns_self():
    spec = CoreSpec.paper()
    assert spec.validate() is spec


def test_bool_axes_rejected_when_not_bool():
    doc = CoreSpec.paper().to_doc()
    doc["has_truncater"] = 1
    with pytest.raises(ConfigError):
        CoreSpec(**doc).validate()
