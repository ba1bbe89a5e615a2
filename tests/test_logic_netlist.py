"""Unit tests for the Netlist container: construction, levelisation, validation."""

import pytest

from repro.logic.gates import GateType
from repro.logic.netlist import Netlist


def small_netlist():
    """c = a AND b; d = NOT c; one DFF q <- d."""
    nl = Netlist("small")
    a = nl.add_net("a")
    b = nl.add_net("b")
    c = nl.add_net("c")
    d = nl.add_net("d")
    q = nl.add_net("q")
    nl.add_input(a)
    nl.add_input(b)
    nl.add_gate(GateType.AND, c, (a, b))
    nl.add_gate(GateType.NOT, d, (c,))
    nl.add_dff(q, d, init=1)
    nl.add_output(d)
    return nl


def test_net_lookup():
    nl = small_netlist()
    assert nl.net_id("a") == 0
    assert nl.net_names[nl.net_id("d")] == "d"


def test_duplicate_net_name_rejected():
    nl = Netlist()
    nl.add_net("x")
    with pytest.raises(ValueError):
        nl.add_net("x")


def test_double_driver_rejected():
    nl = Netlist()
    a = nl.add_net("a")
    c = nl.add_net("c")
    nl.add_input(a)
    nl.add_gate(GateType.BUF, c, (a,))
    with pytest.raises(ValueError):
        nl.add_gate(GateType.NOT, c, (a,))


def test_gate_cannot_drive_dff_q():
    nl = Netlist()
    a = nl.add_net("a")
    q = nl.add_net("q")
    nl.add_input(a)
    nl.add_dff(q, a)
    with pytest.raises(ValueError):
        nl.add_gate(GateType.BUF, q, (a,))


def test_levelize_orders_dependencies():
    nl = small_netlist()
    order = nl.levelize()
    names = [nl.net_names[g.output] for g in order]
    assert names.index("c") < names.index("d")


def test_levelize_detects_loop():
    nl = Netlist()
    a = nl.add_net("a")
    b = nl.add_net("b")
    c = nl.add_net("c")
    nl.add_input(a)
    nl.add_gate(GateType.AND, b, (a, c))
    nl.add_gate(GateType.BUF, c, (b,))
    with pytest.raises(ValueError, match="loop|undriven"):
        nl.levelize()


def test_dff_breaks_loop():
    """Feedback through a DFF is sequential, not a combinational loop."""
    nl = Netlist()
    a = nl.add_net("a")
    d = nl.add_net("d")
    q = nl.add_net("q")
    nl.add_input(a)
    nl.add_dff(q, d)
    nl.add_gate(GateType.XOR, d, (a, q))
    nl.add_output(q)
    nl.validate()


def test_validate_catches_undriven():
    nl = Netlist()
    a = nl.add_net("a")
    floating = nl.add_net("floating")
    c = nl.add_net("c")
    nl.add_input(a)
    nl.add_gate(GateType.AND, c, (a, floating))
    nl.add_output(c)
    with pytest.raises(ValueError, match="undriven"):
        nl.validate()


def test_stats():
    stats = small_netlist().stats()
    assert stats.n_gates == 2
    assert stats.n_dffs == 1
    assert stats.n_inputs == 2
    assert stats.n_outputs == 1
    assert "small" in str(stats)


def test_fanout_map():
    nl = small_netlist()
    fanout = nl.fanout_map()
    c = nl.net_id("c")
    assert len(fanout[c]) == 1
    assert nl.gates[fanout[c][0]].kind is GateType.NOT


def test_transitive_fanout():
    nl = small_netlist()
    cone = nl.transitive_fanout_gates(nl.net_id("a"))
    outputs = {nl.net_names[g.output] for g in cone}
    assert outputs == {"c", "d"}


def test_is_state_net():
    nl = small_netlist()
    assert nl.is_state_net(nl.net_id("q"))
    assert not nl.is_state_net(nl.net_id("c"))


def test_bus_registration():
    nl = Netlist()
    nets = [nl.add_net(f"v[{i}]") for i in range(4)]
    nl.add_bus("v", nets)
    assert nl.buses["v"] == nets
    with pytest.raises(ValueError):
        nl.add_bus("v", nets)


def test_construction_errors_are_config_errors():
    """Rejections carry ConfigError (still a ValueError for back-compat)."""
    from repro.runtime.errors import ConfigError
    nl = Netlist()
    a = nl.add_net("a")
    c = nl.add_net("c")
    nl.add_input(a)
    nl.add_gate(GateType.BUF, c, (a,))
    with pytest.raises(ConfigError):
        nl.add_gate(GateType.NOT, c, (a,))
    with pytest.raises(ConfigError):
        nl.add_net("a")
    nl.add_bus("v", [a])
    with pytest.raises(ConfigError):
        nl.add_bus("v", [a])


def test_validate_counts_duplicate_drivers():
    """validate() catches multi-driven nets even when gates were appended
    directly (bypassing add_gate's incremental guard)."""
    from repro.logic.netlist import Gate
    from repro.runtime.errors import ConfigError
    nl = Netlist()
    a = nl.add_net("a")
    b = nl.add_net("b")
    y = nl.add_net("y")
    nl.add_input(a)
    nl.add_input(b)
    nl.add_gate(GateType.AND, y, (a, b))
    nl.gates.append(Gate(kind=GateType.OR, output=y, inputs=(a, b)))
    nl._topo_cache = None
    nl.add_output(y)
    with pytest.raises(ConfigError, match="2 drivers"):
        nl.validate()


def test_dff_init_none_is_preserved():
    """init=None models unknown power-up state (exported as 1'bx)."""
    nl = Netlist()
    d = nl.add_net("d")
    q = nl.add_net("q")
    nl.add_input(d)
    nl.add_dff(q, d, init=None)
    nl.add_output(q)
    assert nl.dffs[0].init is None
    nl.validate()  # structurally fine; NET004 is the linter's concern
    from repro.logic.export import to_verilog
    assert "1'bx" in to_verilog(nl, "power_up")
