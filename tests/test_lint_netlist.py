"""Tests for the netlist-domain lint rules (NET000..NET011)."""

import warnings
import weakref

import pytest

from repro.lint.findings import Severity
from repro.lint.netlist_rules import (
    LintWarning,
    lint_netlist,
    warn_on_netlist,
)
from repro.logic.gates import GateType
from repro.logic.netlist import Gate, Netlist


def rules_fired(report):
    return {f.rule for f in report}


def clean_netlist():
    """sum = a XOR b, carry = a AND b, one registered copy of sum."""
    nl = Netlist("clean")
    a = nl.add_net("a")
    b = nl.add_net("b")
    s = nl.add_net("sum")
    c = nl.add_net("carry")
    q = nl.add_net("q")
    nl.add_input(a)
    nl.add_input(b)
    nl.add_gate(GateType.XOR, s, (a, b))
    nl.add_gate(GateType.AND, c, (a, b))
    nl.add_dff(q, s, init=0)
    nl.add_output(s)
    nl.add_output(c)
    nl.add_output(q)
    return nl


def append_gate(nl, kind, output, inputs):
    """Append a gate bypassing add_gate's guard (a buggy generator)."""
    if output not in nl.driver:
        nl.driver[output] = len(nl.gates)
    nl.gates.append(Gate(kind=kind, output=output, inputs=tuple(inputs)))
    nl._topo_cache = None


def test_clean_netlist_has_no_findings():
    assert lint_netlist(clean_netlist()).findings == []


def test_net001_multi_driven_net():
    nl = clean_netlist()
    append_gate(nl, GateType.OR, nl.net_id("sum"),
                (nl.net_id("a"), nl.net_id("b")))
    report = lint_netlist(nl)
    fired = rules_fired(report)
    assert "NET001" in fired
    assert "NET000" in fired  # validate() now counts drivers too
    finding = next(f for f in report if f.rule == "NET001")
    assert "'sum'" in finding.location
    assert "2 sources" in finding.message
    assert report.exit_code() == 1


def test_net002_dead_gate_and_dff():
    nl = clean_netlist()
    dead = nl.add_net("dead")
    nl.add_gate(GateType.NOT, dead, (nl.net_id("a"),))
    dq = nl.add_net("dead_q")
    nl.add_dff(dq, nl.net_id("carry"))
    report = lint_netlist(nl)
    locations = {f.location for f in report if f.rule == "NET002"}
    assert any("'dead'" in loc for loc in locations)
    assert any("'dead_q'" in loc for loc in locations)
    # Dead logic is a warning, not an error: campaigns still run.
    assert report.exit_code() == 0


def test_net002_crosses_dff_boundaries():
    """A gate feeding an observed DFF is useful, not dead."""
    nl = Netlist("seq")
    a = nl.add_net("a")
    d = nl.add_net("d")
    q = nl.add_net("q")
    nl.add_input(a)
    nl.add_gate(GateType.NOT, d, (a,))
    nl.add_dff(q, d)
    nl.add_output(q)
    assert "NET002" not in rules_fired(lint_netlist(nl))


def test_net003_constant_net():
    nl = clean_netlist()
    zero = nl.add_net("zero")
    stuck = nl.add_net("stuck")
    o = nl.add_net("o")
    nl.add_gate(GateType.CONST0, zero, ())
    nl.add_gate(GateType.AND, stuck, (nl.net_id("a"), zero))
    nl.add_gate(GateType.OR, o, (stuck, nl.net_id("b")))
    nl.add_output(o)
    report = lint_netlist(nl)
    net003 = [f for f in report if f.rule == "NET003"]
    assert any("'stuck'" in f.location for f in net003)
    # The CONST0 gate itself is a deliberate tie-off, never flagged.
    assert not any("'zero'" in f.location for f in net003)


def test_net004_uninitialised_dff_reaching_output():
    nl = Netlist("powerup")
    d = nl.add_net("d")
    q = nl.add_net("q")
    o = nl.add_net("o")
    nl.add_input(d)
    nl.add_dff(q, d, init=None)
    nl.add_gate(GateType.BUF, o, (q,))
    nl.add_output(o)
    report = lint_netlist(nl)
    net004 = [f for f in report if f.rule == "NET004"]
    assert len(net004) == 1
    assert "'o'" in net004[0].location


def test_net004_quiet_when_dffs_are_reset():
    assert "NET004" not in rules_fired(lint_netlist(clean_netlist()))


def test_net005_floating_bus_bit():
    nl = clean_netlist()
    floating = nl.add_net("f0")
    nl.add_bus("fbus", [nl.net_id("sum"), floating])
    report = lint_netlist(nl)
    net005 = [f for f in report if f.rule == "NET005"]
    assert len(net005) == 1
    assert "'fbus'" in net005[0].location
    assert "f0" in net005[0].message


def test_net006_fanout_outlier():
    nl = Netlist("fan")
    a = nl.add_net("a")
    nl.add_input(a)
    # One net driving 50 gates against a backdrop of fanout-1 chains.
    for i in range(50):
        o = nl.add_net(f"o{i}")
        nl.add_gate(GateType.BUF, o, (a,))
        nl.add_output(o)
    prev = nl.net_id("o0")
    for i in range(60):
        n = nl.add_net(f"c{i}")
        nl.add_gate(GateType.NOT, n, (prev,))
        prev = n
    nl.add_output(prev)
    report = lint_netlist(nl)
    net006 = [f for f in report if f.rule == "NET006"]
    assert any("'a'" in f.location for f in net006)


def test_net007_depth_outlier():
    nl = Netlist("deep")
    a = nl.add_net("a")
    nl.add_input(a)
    prev = a
    for i in range(30):
        n = nl.add_net(f"d{i}")
        nl.add_gate(GateType.NOT, n, (prev,))
        prev = n
    nl.add_output(prev)
    for i in range(20):
        o = nl.add_net(f"s{i}")
        nl.add_gate(GateType.BUF, o, (a,))
        nl.add_output(o)
    report = lint_netlist(nl)
    net007 = [f for f in report if f.rule == "NET007"]
    assert any("'d29'" in f.location for f in net007)


def test_min_severity_filters_warnings():
    nl = clean_netlist()
    dead = nl.add_net("dead")
    nl.add_gate(GateType.NOT, dead, (nl.net_id("a"),))
    assert "NET002" in rules_fired(lint_netlist(nl))
    assert rules_fired(lint_netlist(nl, Severity.ERROR)) == set()


@pytest.fixture(scope="module")
def paper_full_reports():
    """Every paper component netlist and the flat core, each with its
    report from every netlist rule."""
    from repro.dsp.components import COMPONENTS
    from repro.dsp.gatelevel import make_gatelevel_core
    netlists = [spec.netlist() for spec in COMPONENTS
                if spec.factory is not None]
    netlists.append(make_gatelevel_core())
    return [(nl, lint_netlist(nl, Severity.INFO)) for nl in netlists]


@pytest.mark.parametrize("severity", list(Severity),
                         ids=[s.label for s in Severity])
def test_min_severity_prefilter_equals_filtering_the_full_report(
        paper_full_reports, severity):
    """Running only the rules at ``severity`` or above keeps exactly the
    findings of the full run at that severity, in the same order."""
    from repro.lint.findings import REGISTRY
    assert len(paper_full_reports) == 12
    seen = {f.severity for _, full in paper_full_reports for f in full}
    assert {Severity.WARNING, Severity.INFO} <= seen
    for nl, full in paper_full_reports:
        assert all(f.severity is REGISTRY[f.rule].severity for f in full)
        expected = [f for f in full if f.severity >= severity]
        assert lint_netlist(nl, severity).findings == expected, nl.name


# ----------------------------------------------------------------------
# NET008..NET011 — structural testability rules
# ----------------------------------------------------------------------
def make_cliff_netlist():
    """A backdrop of shallow logic plus one deep AND chain: the chain's
    tail is a controllability/observability outlier past the percentile
    cliff (needs >= TESTABILITY_MIN_NETS nets to arm the rule)."""
    nl = Netlist("cliff")
    ins = []
    for i in range(40):
        a = nl.add_net(f"a{i}")
        nl.add_input(a)
        ins.append(a)
        o = nl.add_net(f"e{i}")
        nl.add_gate(GateType.NOT, o, (a,))
        nl.add_output(o)
    prev = ins[0]
    for i in range(40):
        n = nl.add_net(f"h{i}")
        nl.add_gate(GateType.AND, n, (prev, ins[i % 40]))
        prev = n
    nl.add_output(prev)
    return nl


def test_net008_net009_flag_testability_cliff():
    report = lint_netlist(make_cliff_netlist())
    fired = rules_fired(report)
    assert "NET008" in fired
    assert "NET009" in fired
    hard = [f for f in report if f.rule == "NET008"]
    # The chain's tail is the hardest-to-control net.
    assert any("'h39'" in f.location for f in hard)
    # INFO severity: never fails a lint run on its own.
    assert all(f.severity == Severity.INFO
               for f in report if f.rule in ("NET008", "NET009"))


def test_net008_skips_small_netlists():
    """Percentile cliffs are meaningless on a handful of nets."""
    fired = rules_fired(lint_netlist(clean_netlist()))
    assert "NET008" not in fired
    assert "NET009" not in fired


def test_net010_flags_random_resistant_cone():
    nl = Netlist("wide")
    ins = []
    for i in range(32):
        a = nl.add_net(f"x{i}")
        nl.add_input(a)
        ins.append(a)
    y = nl.add_net("y")
    nl.add_gate(GateType.AND, y, tuple(ins))
    nl.add_output(y)
    report = lint_netlist(nl)
    net010 = [f for f in report if f.rule == "NET010"]
    # y sa0 needs all 32 inputs high: p = 2^-32 < the 1e-8 floor.
    assert any("'y' sa0" in f.location for f in net010)
    assert all(f.severity == Severity.WARNING for f in net010)
    assert report.exit_code() == 0
    assert report.exit_code(strict=True) == 1


def test_net011_flags_statically_untestable():
    nl = Netlist("tied")
    a = nl.add_net("a")
    b = nl.add_net("b")
    tie = nl.add_net("tie")
    gated = nl.add_net("gated")
    y = nl.add_net("y")
    nl.add_input(a)
    nl.add_input(b)
    nl.add_gate(GateType.CONST0, tie, ())
    nl.add_gate(GateType.AND, gated, (a, tie))
    nl.add_gate(GateType.OR, y, (gated, b))
    nl.add_output(y)
    report = lint_netlist(nl)
    net011 = [f for f in report if f.rule == "NET011"]
    assert any("'gated' sa0" in f.location for f in net011)
    # Statically untestable sites are NET011's, not NET010's.
    net010_locs = {f.location for f in report if f.rule == "NET010"}
    assert not any("'gated' sa0" in loc for loc in net011
                   if loc in net010_locs)


def test_detect_floor_matches_analysis_default():
    """The lint floor and the `repro testability` CLI default agree."""
    from repro.analysis.testability import DEFAULT_DETECT_FLOOR
    from repro.lint.netlist_rules import DETECT_PROB_FLOOR
    assert DETECT_PROB_FLOOR == DEFAULT_DETECT_FLOOR


def test_testability_rules_quiet_on_clean_logic():
    fired = rules_fired(lint_netlist(clean_netlist()))
    assert "NET010" not in fired
    assert "NET011" not in fired


@pytest.mark.parametrize("artifact,expected_rule", [
    ("examples/lint/untestable_netlist.json", "NET011"),
    ("examples/lint/random_resistant_netlist.json", "NET010"),
])
def test_seeded_defect_artifacts_fire(artifact, expected_rule):
    from pathlib import Path

    from repro.lint.artifacts import load_artifact
    path = Path(__file__).parent.parent / artifact
    report = lint_netlist(load_artifact(str(path)))
    assert expected_rule in rules_fired(report)
    assert report.exit_code(strict=True) == 1


# ----------------------------------------------------------------------
# warn_on_netlist — the campaign construction hook
# ----------------------------------------------------------------------
def broken_netlist():
    nl = clean_netlist()
    append_gate(nl, GateType.OR, nl.net_id("sum"),
                (nl.net_id("a"), nl.net_id("b")))
    return nl


@pytest.fixture
def unscreened(monkeypatch):
    """Forget every netlist already screened in this process."""
    import repro.lint.netlist_rules as netlist_rules
    monkeypatch.setattr(netlist_rules, "_screened", weakref.WeakSet())


def test_warn_on_netlist_warns_once_per_instance(unscreened):
    nl = broken_netlist()
    with pytest.warns(LintWarning, match="NET001"):
        report = warn_on_netlist(nl, context="unit test")
    assert report is not None and report.errors
    # The second screening of the same instance is a no-op.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert warn_on_netlist(nl) is None


def test_warn_on_netlist_silent_on_clean_netlist(unscreened):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = warn_on_netlist(clean_netlist())
    assert report is not None and not report.findings


def test_fault_universe_construction_is_screened(unscreened):
    """DspFaultUniverse screens its component netlists (warn-only)."""
    from repro.faults.hierarchical import DspFaultUniverse
    with warnings.catch_warnings():
        warnings.simplefilter("error", LintWarning)
        DspFaultUniverse()  # clean paper-core netlists: no warnings
