"""Tests for the stuck-at fault universe and equivalence collapsing."""

import hashlib
import json

from repro.dsp.components import COMPONENTS
from repro.dsp.gatelevel import make_gatelevel_core
from repro.faults.model import Fault, collapse_faults, full_fault_list
from repro.logic.builder import NetlistBuilder
from repro.rtl.arith import make_addsub
from repro.rtl.multiplier import make_multiplier


def inverter_chain(n):
    b = NetlistBuilder(f"invchain{n}")
    net = b.input("a")
    for _ in range(n):
        net = b.not_(net)
    b.output(net)
    return b.finish()


def test_full_fault_list_counts():
    nl = inverter_chain(3)
    faults = full_fault_list(nl)
    # 1 PI + 3 gate outputs, two polarities each.
    assert len(faults) == 8


def test_collapse_inverter_chain():
    """A chain of single-fanout inverters collapses to one class per polarity."""
    nl = inverter_chain(4)
    collapsed = collapse_faults(nl)
    assert collapsed.n_collapsed == 2
    assert collapsed.n_uncollapsed == 10


def test_collapse_keeps_fanout_stems():
    b = NetlistBuilder("stem")
    a = b.input("a")
    x = b.not_(a)
    b.output(b.not_(x))
    b.output(b.buf(x))
    nl = b.finish()
    collapsed = collapse_faults(nl)
    # x has fanout 2, so a's faults collapse into x's but x's faults do not
    # collapse into either branch.
    nets_with_faults = {f.net for f in collapsed.faults}
    assert nl.net_id("a") not in nets_with_faults


def test_and_gate_collapse():
    b = NetlistBuilder("and2")
    a = b.input("a")
    c = b.input("c")
    b.output(b.and_(a, c))
    collapsed = collapse_faults(b.finish())
    # Uncollapsed: 6.  a-sa0, c-sa0 and out-sa0 are equivalent: 4 classes.
    assert collapsed.n_collapsed == 4
    assert collapsed.n_uncollapsed == 6


def test_const_nets_untestable_polarity_dropped():
    b = NetlistBuilder("constdrop")
    a = b.input("a")
    zero = b.const0()
    b.output(b.or_(a, zero))
    collapsed = collapse_faults(b.finish())
    assert Fault(zero, 0) not in collapsed.faults
    # const0 stuck-at-1 is a real (testable) fault and must be kept.
    roots = set(collapsed.faults)
    assert any(f.net == zero and f.stuck_at == 1 for f in roots) or \
        any(f.stuck_at == 1 for f in roots)


def test_fault_describe():
    nl = inverter_chain(1)
    fault = Fault(nl.net_id("a"), 1)
    assert fault.describe(nl) == "a sa1"


def test_multiplier_fault_universe_magnitude():
    """Order-of-magnitude check against the paper's 2162 multiplier faults."""
    collapsed = collapse_faults(make_multiplier(8, 18))
    assert 800 <= collapsed.n_collapsed <= 4000


def test_addsub_fault_universe_magnitude():
    """Paper: 700 faults on the 18-bit adder/subtracter."""
    collapsed = collapse_faults(make_addsub(18))
    assert 200 <= collapsed.n_collapsed <= 1500


def test_collapsed_is_subset_of_full():
    nl = make_addsub(4)
    full = set(full_fault_list(nl))
    collapsed = collapse_faults(nl)
    assert set(collapsed.faults) <= full
    assert collapsed.n_collapsed < len(full)


#: Netlists and digest of every paper component's and the flat core's
#: collapsed universe: each representative in list order, with its class
#: size.  Recorded with the collapse that ran its union-find over
#: ``Fault`` objects rather than integer keys.
COLLAPSE_PIN = (12, "04335bbb0a778423")


def test_collapse_matches_pin_on_paper_netlists():
    netlists = [spec.netlist() for spec in COMPONENTS
                if spec.factory is not None]
    netlists.append(make_gatelevel_core())
    doc = []
    for nl in netlists:
        collapsed = collapse_faults(nl)
        assert set(collapsed.class_sizes) == set(collapsed.faults), nl.name
        doc.append([nl.name, [[f.net, f.stuck_at, collapsed.class_sizes[f]]
                              for f in collapsed.faults]])
    text = json.dumps(doc, separators=(",", ":"))
    assert (len(netlists), hashlib.sha256(text.encode()).hexdigest()[:16]) \
        == COLLAPSE_PIN
    # An explicit uncollapsed universe collapses to the same list.
    explicit = collapse_faults(nl, full_fault_list(nl))
    assert explicit.faults == collapsed.faults
    assert explicit.class_sizes == collapsed.class_sizes
