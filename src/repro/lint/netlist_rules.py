"""Netlist-domain lint rules.

These turn the structural assumptions the simulators rely on into
machine-checked invariants:

* ``NET000`` — structural sanity (undriven nets, combinational loops),
  the findings form of :meth:`repro.logic.netlist.Netlist.validate`;
* ``NET001`` — multi-driven nets (two gates, a gate and a DFF, or a gate
  and a primary input contending for one net);
* ``NET002`` — dead logic: gates/DFFs with no structural path to any
  primary output (through any number of state boundaries);
* ``NET003`` — constant-propagation-provable stuck nets (a gate output
  that can never toggle, excluding intentional CONST gates);
* ``NET004`` — unknown power-up state (``Dff.init is None``) that can
  propagate to a primary output;
* ``NET005`` — floating buses: bus metadata naming undriven or unknown
  nets;
* ``NET006``/``NET007`` — fanout and depth outliers, the structural
  predictors of slow random-pattern coverage (info only).

``lint_netlist`` runs every registered netlist rule; ``warn_on_netlist``
is the warn-only hook the campaign adapters call when they construct a
fault universe.
"""

from __future__ import annotations

import warnings
import weakref
from typing import Dict, Iterator, List, Optional, Set

from repro.lint.findings import (
    Finding,
    LintReport,
    Severity,
    finding,
    rule,
    run_rules,
)
from repro.logic.gates import GateType
from repro.logic.netlist import Netlist

#: Three-valued constant lattice: 0, 1, or None (= unknown / toggling).
MaybeBit = Optional[int]


def _loc(netlist: Netlist, what: str) -> str:
    return f"netlist:{netlist.name}:{what}"


def _net_name(netlist: Netlist, net: int) -> str:
    if 0 <= net < len(netlist.net_names):
        return netlist.net_names[net]
    return f"<net#{net}>"


def _try_levelize(netlist: Netlist):
    """The topological order, or ``None`` when the structure is broken."""
    try:
        return netlist.levelize()
    except ValueError:
        return None


# ----------------------------------------------------------------------
# NET000 — structural sanity
# ----------------------------------------------------------------------
@rule("NET000", "netlist", Severity.ERROR,
      "structural validation failed (undriven nets, combinational loops)")
def check_structure(netlist: Netlist) -> Iterator[Finding]:
    try:
        netlist.validate()
    except ValueError as exc:
        yield finding(
            "NET000", _loc(netlist, "structure"), str(exc),
            hint="fix the netlist construction; downstream simulators "
                 "reject this netlist outright",
        )


# ----------------------------------------------------------------------
# NET001 — multi-driven nets
# ----------------------------------------------------------------------
@rule("NET001", "netlist", Severity.ERROR,
      "net has more than one driver (gate/gate, gate/DFF or gate/PI)")
def check_multi_driven(netlist: Netlist) -> Iterator[Finding]:
    drivers: Dict[int, List[str]] = {}
    for idx, gate in enumerate(netlist.gates):
        drivers.setdefault(gate.output, []).append(
            f"{gate.kind.value} gate #{idx}"
        )
    for dff in netlist.dffs:
        drivers.setdefault(dff.q, []).append("DFF Q")
    for net in netlist.inputs:
        drivers.setdefault(net, []).append("primary input")
    for net, sources in sorted(drivers.items()):
        if len(sources) > 1:
            yield finding(
                "NET001",
                _loc(netlist, f"net {_net_name(netlist, net)!r}"),
                f"driven by {len(sources)} sources: {', '.join(sources)}",
                hint="remove all but one driver; simulation results are "
                     "order-dependent otherwise",
            )


# ----------------------------------------------------------------------
# NET002 — dead logic
# ----------------------------------------------------------------------
def _useful_nets(netlist: Netlist) -> Set[int]:
    """Nets with a structural path to some primary output.

    Computed as a reverse fixpoint that crosses state boundaries: a net
    is useful if it is a PO, feeds a gate with a useful output, or is the
    D input of a DFF whose Q is useful.
    """
    useful: Set[int] = set(netlist.outputs)
    changed = True
    while changed:
        changed = False
        for gate in netlist.gates:
            if gate.output in useful:
                for net in gate.inputs:
                    if net not in useful:
                        useful.add(net)
                        changed = True
        for dff in netlist.dffs:
            if dff.q in useful and dff.d not in useful:
                useful.add(dff.d)
                changed = True
    return useful


@rule("NET002", "netlist", Severity.WARNING,
      "dead logic: no structural path from this gate/DFF to any output")
def check_dead_logic(netlist: Netlist) -> Iterator[Finding]:
    if not netlist.outputs:
        return  # everything would be "dead"; NET000 territory instead
    useful = _useful_nets(netlist)
    for gate in netlist.gates:
        if gate.output not in useful:
            yield finding(
                "NET002",
                _loc(netlist, f"net {_net_name(netlist, gate.output)!r}"),
                f"{gate.kind.value} gate output never reaches a primary "
                "output",
                hint="dead logic is untestable: every fault on it is "
                     "undetectable and drags coverage down",
            )
    for dff in netlist.dffs:
        if dff.q not in useful:
            yield finding(
                "NET002",
                _loc(netlist, f"net {_net_name(netlist, dff.q)!r}"),
                "DFF output never reaches a primary output",
                hint="dead state element; remove it or observe it",
            )


# ----------------------------------------------------------------------
# NET003 — constant (stuck) nets
# ----------------------------------------------------------------------
def _propagate_constants(netlist: Netlist) -> Dict[int, MaybeBit]:
    """Three-valued forward constant propagation.

    PIs and DFF Qs are unknown (DFFs toggle across cycles); constants
    flow through gates using dominance (AND with a 0 leg is 0, OR with a
    1 leg is 1, ...).  Returns net -> 0/1 for provably constant nets.
    """
    values: Dict[int, MaybeBit] = {}
    order = _try_levelize(netlist)
    if order is None:
        return values
    for gate in order:
        ins = [values.get(net) for net in gate.inputs]
        known = [v for v in ins if v is not None]
        out: MaybeBit = None
        kind = gate.kind
        if kind is GateType.CONST0:
            out = 0
        elif kind is GateType.CONST1:
            out = 1
        elif kind is GateType.BUF:
            out = ins[0]
        elif kind is GateType.NOT:
            out = None if ins[0] is None else 1 - ins[0]
        elif kind in (GateType.AND, GateType.NAND):
            if 0 in known:
                out = 0
            elif len(known) == len(ins) and all(v == 1 for v in known):
                out = 1
            if out is not None and kind is GateType.NAND:
                out = 1 - out
        elif kind in (GateType.OR, GateType.NOR):
            if 1 in known:
                out = 1
            elif len(known) == len(ins) and all(v == 0 for v in known):
                out = 0
            if out is not None and kind is GateType.NOR:
                out = 1 - out
        elif kind in (GateType.XOR, GateType.XNOR):
            if len(known) == len(ins):
                out = ins[0] ^ ins[1]  # type: ignore[operator]
                if kind is GateType.XNOR:
                    out = 1 - out
        if out is not None:
            values[gate.output] = out
    return values


@rule("NET003", "netlist", Severity.WARNING,
      "net is provably stuck at a constant (excluding intentional CONSTs)")
def check_constant_nets(netlist: Netlist) -> Iterator[Finding]:
    constants = _propagate_constants(netlist)
    const_gate_outputs = {
        g.output for g in netlist.gates
        if g.kind in (GateType.CONST0, GateType.CONST1)
    }
    fanout = netlist.fanout_map()
    observed = set(netlist.outputs) | {d.d for d in netlist.dffs}
    for net, value in sorted(constants.items()):
        if net in const_gate_outputs:
            continue  # a deliberate tie-off
        if not fanout.get(net) and net not in observed:
            continue  # NET002's problem, not a stuck net anyone reads
        yield finding(
            "NET003",
            _loc(netlist, f"net {_net_name(netlist, net)!r}"),
            f"always evaluates to {value}; the stuck-at-{value} fault "
            "here is undetectable",
            hint="a constant-fed gate usually means a wiring bug or "
                 "over-tied control input",
        )


# ----------------------------------------------------------------------
# NET004 — unknown power-up state reaching outputs
# ----------------------------------------------------------------------
@rule("NET004", "netlist", Severity.WARNING,
      "uninitialised DFF state (init=None) can propagate to an output")
def check_uninitialised_state(netlist: Netlist) -> Iterator[Finding]:
    sources = [d for d in netlist.dffs if d.init is None]
    if not sources:
        return
    constants = _propagate_constants(netlist)
    tainted: Set[int] = {d.q for d in sources}
    order = _try_levelize(netlist)
    if order is None:
        return
    changed = True
    while changed:
        changed = False
        for gate in order:
            if gate.output in tainted or gate.output in constants:
                continue  # constants block X propagation
            if any(net in tainted for net in gate.inputs):
                tainted.add(gate.output)
                changed = True
        for dff in netlist.dffs:
            if dff.d in tainted and dff.q not in tainted:
                tainted.add(dff.q)
                changed = True
    names = ", ".join(_net_name(netlist, d.q) for d in sources[:4])
    for net in netlist.outputs:
        if net in tainted:
            yield finding(
                "NET004",
                _loc(netlist, f"output {_net_name(netlist, net)!r}"),
                "can observe the unknown power-up value of "
                f"uninitialised DFF(s) [{names}{'...' if len(sources) > 4 else ''}]",
                hint="give the DFF a reset value or mask the output until "
                     "initialisation; golden signatures are irreproducible "
                     "otherwise",
            )


# ----------------------------------------------------------------------
# NET005 — floating buses
# ----------------------------------------------------------------------
@rule("NET005", "netlist", Severity.ERROR,
      "bus metadata names undriven or unknown nets")
def check_floating_buses(netlist: Netlist) -> Iterator[Finding]:
    driven = set(netlist.driver)
    driven.update(d.q for d in netlist.dffs)
    driven.update(netlist.inputs)
    for name, nets in sorted(netlist.buses.items()):
        unknown = [n for n in nets if not 0 <= n < netlist.n_nets]
        floating = [n for n in nets
                    if 0 <= n < netlist.n_nets and n not in driven]
        if unknown:
            yield finding(
                "NET005", _loc(netlist, f"bus {name!r}"),
                f"references {len(unknown)} unknown net id(s): "
                f"{unknown[:8]}",
                hint="the bus was registered against a different netlist",
            )
        if floating:
            pretty = ", ".join(_net_name(netlist, n) for n in floating[:8])
            yield finding(
                "NET005", _loc(netlist, f"bus {name!r}"),
                f"bit(s) [{pretty}] are undriven (floating)",
                hint="word-level adapters read every bus bit; a floating "
                     "bit makes packed values undefined",
            )


# ----------------------------------------------------------------------
# NET006 / NET007 — structural outliers (coverage predictors)
# ----------------------------------------------------------------------
#: A net is a fanout outlier when it drives more than ``max(abs, ratio *
#: mean-fanout)`` gate inputs; a sink is a depth outlier when its cone is
#: deeper than ``max(abs, ratio * mean-sink-depth)`` levels.
FANOUT_ABS, FANOUT_RATIO = 48, 12.0
DEPTH_ABS, DEPTH_RATIO = 24, 3.0


@rule("NET006", "netlist", Severity.INFO,
      "extreme-fanout net (random-pattern coverage predictor)")
def check_fanout_outliers(netlist: Netlist) -> Iterator[Finding]:
    counts: Dict[int, int] = {}
    for gate in netlist.gates:
        for net in gate.inputs:
            counts[net] = counts.get(net, 0) + 1
    for dff in netlist.dffs:
        counts[dff.d] = counts.get(dff.d, 0) + 1
    if not counts:
        return
    mean = sum(counts.values()) / len(counts)
    threshold = max(FANOUT_ABS, FANOUT_RATIO * mean)
    for net, fanout in sorted(counts.items()):
        if fanout > threshold:
            yield finding(
                "NET006",
                _loc(netlist, f"net {_net_name(netlist, net)!r}"),
                f"fanout {fanout} (mean {mean:.1f}); faults here need "
                "many patterns to propagate uniquely",
            )


@rule("NET007", "netlist", Severity.INFO,
      "extreme-depth cone (random-pattern coverage predictor)")
def check_depth_outliers(netlist: Netlist) -> Iterator[Finding]:
    if _try_levelize(netlist) is None:
        return
    from repro.logic.analysis import logic_depth
    report = logic_depth(netlist)
    if not report.depth_by_output:
        return
    threshold = max(DEPTH_ABS, DEPTH_RATIO * report.mean_output_depth)
    for net, depth in sorted(report.depth_by_output.items()):
        if depth > threshold:
            yield finding(
                "NET007",
                _loc(netlist, f"sink {_net_name(netlist, net)!r}"),
                f"logic depth {depth} (mean sink depth "
                f"{report.mean_output_depth:.1f}); long chains correlate "
                "with slow fault coverage",
            )


# ----------------------------------------------------------------------
# NET008–NET011 — static testability (SCOAP/COP, repro.analysis)
# ----------------------------------------------------------------------
#: NET008/NET009 flag nets whose SCOAP controllability/observability sits
#: strictly above this percentile of the netlist's finite values.  The
#: cliff is relative, so a small clean netlist — where the worst net IS
#: the percentile — produces no findings; only designs with a long
#: testability tail (like the flat core) do.
TESTABILITY_PERCENTILE = 99.0
#: Below this size the percentile cliff is statistically meaningless.
TESTABILITY_MIN_NETS = 64
#: NET010: a fault site whose COP detection probability is below this
#: floor is predicted random-resistant — random patterns are expected to
#: need more than ~1/floor vectors to hit it.  Kept equal to
#: ``repro.analysis.testability.DEFAULT_DETECT_FLOOR`` so the lint rule
#: and the ``repro testability`` CLI agree by default (a test pins it).
DETECT_PROB_FLOOR = 1e-8

#: One SCOAP/COP analysis per netlist instance per process: four rules
#: share it, and the campaign warn hook may lint the same core the CLI
#: just did.
_testability_cache: "weakref.WeakKeyDictionary[Netlist, object]" = \
    weakref.WeakKeyDictionary()


def _testability(netlist: Netlist):
    """The cached :class:`TestabilityAnalysis`, or ``None`` if broken."""
    if netlist in _testability_cache:
        return _testability_cache[netlist]
    from repro.analysis.testability import analyze_testability
    try:
        analysis = analyze_testability(netlist)
    except ValueError:
        analysis = None  # structurally broken: NET000's findings apply
    _testability_cache[netlist] = analysis
    return analysis


@rule("NET008", "netlist", Severity.INFO,
      "hard-to-control net (SCOAP controllability above percentile cliff)")
def check_hard_to_control(netlist: Netlist) -> Iterator[Finding]:
    analysis = _testability(netlist)
    if analysis is None or netlist.n_nets < TESTABILITY_MIN_NETS:
        return
    from repro.analysis.testability import finite, percentile
    difficulty = [analysis.difficulty(net) for net in range(netlist.n_nets)]
    cliff = percentile(finite(difficulty), TESTABILITY_PERCENTILE)
    for net, cost in enumerate(difficulty):
        if cliff < cost < float("inf"):
            yield finding(
                "NET008",
                _loc(netlist, f"net {_net_name(netlist, net)!r}"),
                f"SCOAP controllability {cost:.0f} exceeds the p"
                f"{TESTABILITY_PERCENTILE:g} cliff ({cliff:.0f})",
                hint="justifying a value here costs a long input "
                     "sequence; consider a control/test point",
            )


@rule("NET009", "netlist", Severity.INFO,
      "hard-to-observe net (SCOAP observability above percentile cliff)")
def check_hard_to_observe(netlist: Netlist) -> Iterator[Finding]:
    analysis = _testability(netlist)
    if analysis is None or netlist.n_nets < TESTABILITY_MIN_NETS:
        return
    from repro.analysis.testability import finite, percentile
    cliff = percentile(finite(analysis.co), TESTABILITY_PERCENTILE)
    for net, cost in enumerate(analysis.co):
        if cliff < cost < float("inf"):
            yield finding(
                "NET009",
                _loc(netlist, f"net {_net_name(netlist, net)!r}"),
                f"SCOAP observability {cost:.0f} exceeds the p"
                f"{TESTABILITY_PERCENTILE:g} cliff ({cliff:.0f})",
                hint="propagating a fault effect from here to an output "
                     "is expensive; consider an observation point",
            )


@rule("NET010", "netlist", Severity.WARNING,
      "predicted random-resistant fault site (COP detection probability "
      "below floor)")
def check_random_resistant_sites(netlist: Netlist) -> Iterator[Finding]:
    analysis = _testability(netlist)
    if analysis is None:
        return
    from repro.faults.model import collapse_faults
    for fault in collapse_faults(netlist).faults:
        score = analysis.score(fault)
        if score.statically_untestable:
            continue  # NET011's finding, not a probability problem
        prob = score.detection_probability
        if prob < DETECT_PROB_FLOOR:
            name = _net_name(netlist, fault.net)
            yield finding(
                "NET010",
                _loc(netlist, f"fault {name!r} sa{fault.stuck_at}"),
                f"COP detection probability {prob:.2e} is below the "
                f"{DETECT_PROB_FLOOR:.0e} floor",
                hint="random patterns are not expected to catch this "
                     "fault; schedule it for deterministic ATPG "
                     "(repro.atpg.Podem)",
            )


@rule("NET011", "netlist", Severity.WARNING,
      "statically untestable candidate (unbounded SCOAP excitation or "
      "observation cost)")
def check_statically_untestable(netlist: Netlist) -> Iterator[Finding]:
    analysis = _testability(netlist)
    if analysis is None:
        return
    from repro.faults.model import collapse_faults
    for fault in collapse_faults(netlist).faults:
        score = analysis.score(fault)
        if not score.statically_untestable:
            continue
        name = _net_name(netlist, fault.net)
        reasons = []
        if score.excite_cost == float("inf"):
            reasons.append(
                f"no input sequence drives it to {fault.stuck_at ^ 1}"
            )
        if score.observe_cost == float("inf"):
            reasons.append("no path propagates it to an output")
        yield finding(
            "NET011",
            _loc(netlist, f"fault {name!r} sa{fault.stuck_at}"),
            "statically untestable: " + " and ".join(reasons),
            hint="dead or constant logic (see NET002/NET003); faults "
                 "here cap achievable coverage",
        )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def lint_netlist(netlist: Netlist,
                 min_severity: Severity = Severity.INFO) -> LintReport:
    """Run the netlist rules of ``min_severity`` or above."""
    return run_rules("netlist", netlist, min_severity)


class LintWarning(UserWarning):
    """Category used by the warn-only campaign construction hook."""


#: Netlists already screened by :func:`warn_on_netlist` this process.
_screened: "weakref.WeakSet[Netlist]" = weakref.WeakSet()


def warn_on_netlist(netlist: Netlist, context: str = "",
                    min_severity: Severity = Severity.ERROR,
                    ) -> Optional[LintReport]:
    """Warn-only netlist screening for fault-universe construction.

    Campaign adapters call this when they build a fault universe: the
    netlist rules run once per netlist instance per process, and any
    findings at ``min_severity`` or above surface as a single
    :class:`LintWarning` (never an exception — campaigns must keep
    working on imperfect netlists).  The default threshold is ERROR:
    the paper core's netlists legitimately carry warning-level findings
    (dead tie-off gates, outliers), and a hook that cries wolf on clean
    inputs trains everyone to ignore it.  Only the rules at the threshold
    run, so the costly testability rules stay out of construction.
    Returns the report, or ``None`` when the instance was already
    screened.
    """
    if netlist in _screened:
        return None
    _screened.add(netlist)
    report = lint_netlist(netlist, min_severity=min_severity)
    if report.findings:
        worst = report.findings[:3]
        summary = "; ".join(f"{f.rule} {f.message}" for f in worst)
        more = len(report.findings) - len(worst)
        if more > 0:
            summary += f" (+{more} more)"
        warnings.warn(
            f"lint: netlist {netlist.name!r}"
            + (f" ({context})" if context else "")
            + f" has {len(report.findings)} finding(s): {summary} — "
            "run `python -m repro lint` for the full report",
            LintWarning,
            stacklevel=2,
        )
    return report
