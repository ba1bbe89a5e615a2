"""SCOAP / COP static testability analysis.

One :func:`analyze_testability` sweep over a :class:`~repro.logic.netlist.Netlist`
computes, per net:

* **SCOAP controllability** ``CC0``/``CC1`` — the classic additive cost of
  justifying a 0/1 on the net (primary inputs cost 1, every gate level
  adds 1, AND-style gates sum their non-controlling side costs).  A
  forward pass in topological order; flip-flop boundaries add a
  configurable *sequential depth increment* (``seq_cost``) per crossed
  frame, and the whole system is iterated to a fixpoint so feedback
  through registers settles (costs only ever decrease, so the iteration
  is monotone and terminates).
* **SCOAP observability** ``CO`` — the cost of propagating the net's
  value to a primary output: a reverse pass over the cached fanout map,
  adding the side-input justification costs at every gate crossed, again
  iterated across flip-flop boundaries.
* **COP signal probability** ``p1`` and **COP observability** ``obs`` —
  the probability that a uniformly random input vector sets the net to 1
  and the probability that a change on the net reaches an output.  The
  product gives per-fault *detection probabilities*: a stuck-at-0 on a
  net is detected by a random vector with probability ``p1 * obs``.

``UNBOUNDED`` (``math.inf``) marks values no input sequence can justify
or propagate — e.g. the output of a ``CONST0`` can never be driven to 1.
A fault site whose excitation *and* observation are both unbounded is a
*statically untestable candidate* (lint rule NET011).

The analysis is deliberately structural: it never simulates a pattern.
Its predictions are pinned differentially against the fault
simulator's empirical first-detect indices (see
``tests/test_analysis_testability.py``) via :func:`rank_correlation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs as obs_mod
from repro.faults.model import Fault
from repro.logic.gates import GateType
from repro.logic.netlist import Gate, Netlist

#: Sentinel cost for "no input sequence can achieve this".
UNBOUNDED: float = math.inf

#: Default SCOAP cost of crossing one flip-flop boundary (one extra
#: time frame).  Deliberately larger than a gate level so sequential
#: depth dominates combinational depth, as in classic SCOAP's
#: sequential variant.
DEFAULT_SEQ_COST: float = 10.0

#: Fixpoint iteration safety caps.  SCOAP costs are monotone
#: non-increasing and COP observabilities monotone non-decreasing, so
#: each sweep past the first can only refine values that feed back
#: through registers; the caps bound pathological register chains.
#: The forward COP pass contracts slowly through hold-loops (an
#: accumulator that mostly keeps its value has a near-1 damping
#: factor), so it gets a fixed sweep budget rather than a tight
#: tolerance — the result is a deterministic approximation, which is
#: all the ranking consumers need.
_MAX_SCOAP_SWEEPS = 64
_MAX_COP_FORWARD_SWEEPS = 48
_MAX_COP_REVERSE_SWEEPS = 64
_COP_TOLERANCE = 1e-6


def _and_style(kind: GateType) -> bool:
    return kind is GateType.AND or kind is GateType.NAND


def _or_style(kind: GateType) -> bool:
    return kind is GateType.OR or kind is GateType.NOR


def _xor_style(kind: GateType) -> bool:
    return kind is GateType.XOR or kind is GateType.XNOR


@dataclass(frozen=True)
class FaultScore:
    """Static testability scores for one stuck-at fault site.

    ``excite_cost`` is the SCOAP cost of driving the net to the opposite
    of its stuck value; ``observe_cost`` is the SCOAP CO of the net;
    ``detection_probability`` is the COP probability that one uniformly
    random vector both excites and observes the fault.
    """

    fault: Fault
    excite_cost: float
    observe_cost: float
    detection_probability: float

    @property
    def statically_untestable(self) -> bool:
        """Neither excitation nor observation has a bounded SCOAP cost."""
        return math.isinf(self.excite_cost) or math.isinf(self.observe_cost)


class TestabilityAnalysis:
    """Per-net SCOAP and COP numbers for one netlist.

    Index every array with a net id.  Instances are produced by
    :func:`analyze_testability`; consumers (lint, CLI) read the arrays
    directly.
    """

    def __init__(self, netlist: Netlist, seq_cost: float,
                 cc0: List[float], cc1: List[float], co: List[float],
                 p1: List[float], obs: List[float],
                 scoap_sweeps: int, cop_sweeps: int):
        self.netlist = netlist
        self.seq_cost = seq_cost
        self.cc0 = cc0
        self.cc1 = cc1
        self.co = co
        self.p1 = p1
        self.obs = obs
        self.scoap_sweeps = scoap_sweeps
        self.cop_sweeps = cop_sweeps

    # -- SCOAP ---------------------------------------------------------
    def cc(self, net: int, value: int) -> float:
        """SCOAP cost of justifying ``value`` on ``net``."""
        return self.cc1[net] if value else self.cc0[net]

    def difficulty(self, net: int) -> float:
        """Worst-case controllability of ``net`` (max of CC0/CC1)."""
        return max(self.cc0[net], self.cc1[net])

    # -- COP -----------------------------------------------------------
    def detection_probability(self, fault: Fault) -> float:
        """COP probability a uniformly random vector detects ``fault``."""
        signal = self.p1[fault.net]
        excite = (1.0 - signal) if fault.stuck_at else signal
        return excite * self.obs[fault.net]

    def score(self, fault: Fault) -> FaultScore:
        return FaultScore(
            fault=fault,
            excite_cost=self.cc(fault.net, fault.stuck_at ^ 1),
            observe_cost=self.co[fault.net],
            detection_probability=self.detection_probability(fault),
        )

    def score_faults(self, faults: Iterable[Fault]) -> List[FaultScore]:
        return [self.score(f) for f in faults]


def analyze_testability(netlist: Netlist,
                        seq_cost: float = DEFAULT_SEQ_COST
                        ) -> TestabilityAnalysis:
    """Run the full SCOAP + COP analysis over ``netlist``."""
    with obs_mod.section("analysis.testability.analyze"):
        order = netlist.levelize()
        cc0, cc1, scoap_fwd = _scoap_controllability(netlist, order, seq_cost)
        co, scoap_rev = _scoap_observability(netlist, order, cc0, cc1,
                                             seq_cost)
        p1, cop_fwd = _cop_probabilities(netlist, order)
        obs, cop_rev = _cop_observability(netlist, order, p1)
    obs_mod.incr("analysis.testability.analyses")
    obs_mod.incr("analysis.testability.nets", netlist.n_nets)
    obs_mod.incr("analysis.testability.scoap_sweeps", scoap_fwd + scoap_rev)
    obs_mod.incr("analysis.testability.cop_sweeps", cop_fwd + cop_rev)
    return TestabilityAnalysis(
        netlist=netlist, seq_cost=seq_cost,
        cc0=cc0, cc1=cc1, co=co, p1=p1, obs=obs,
        scoap_sweeps=scoap_fwd + scoap_rev, cop_sweeps=cop_fwd + cop_rev,
    )


# ----------------------------------------------------------------------
# SCOAP forward pass (controllability)
# ----------------------------------------------------------------------
def _scoap_gate_cc(kind: GateType, ins: Sequence[int],
                   cc0: List[float], cc1: List[float]
                   ) -> Tuple[float, float]:
    """(CC0, CC1) of a gate output from its input costs."""
    if kind is GateType.CONST0:
        return 1.0, UNBOUNDED
    if kind is GateType.CONST1:
        return UNBOUNDED, 1.0
    if kind is GateType.BUF:
        return cc0[ins[0]] + 1.0, cc1[ins[0]] + 1.0
    if kind is GateType.NOT:
        return cc1[ins[0]] + 1.0, cc0[ins[0]] + 1.0
    if _and_style(kind):
        all_one = sum(cc1[i] for i in ins) + 1.0
        any_zero = min(cc0[i] for i in ins) + 1.0
        return (any_zero, all_one) if kind is GateType.AND \
            else (all_one, any_zero)
    if _or_style(kind):
        all_zero = sum(cc0[i] for i in ins) + 1.0
        any_one = min(cc1[i] for i in ins) + 1.0
        return (all_zero, any_one) if kind is GateType.OR \
            else (any_one, all_zero)
    # XOR / XNOR (arity 2 by construction)
    a, b = ins[0], ins[1]
    differ = min(cc1[a] + cc0[b], cc0[a] + cc1[b]) + 1.0
    agree = min(cc0[a] + cc0[b], cc1[a] + cc1[b]) + 1.0
    return (agree, differ) if kind is GateType.XOR else (differ, agree)


def _scoap_controllability(netlist: Netlist, order: Sequence[Gate],
                           seq_cost: float
                           ) -> Tuple[List[float], List[float], int]:
    n = netlist.n_nets
    cc0 = [UNBOUNDED] * n
    cc1 = [UNBOUNDED] * n
    for pi in netlist.inputs:
        cc0[pi] = cc1[pi] = 1.0
    # Reset supplies the init value for one cost unit.
    for dff in netlist.dffs:
        if dff.init is not None:
            if dff.init:
                cc1[dff.q] = 1.0
            else:
                cc0[dff.q] = 1.0
    sweeps = 0
    changed = True
    while changed and sweeps < _MAX_SCOAP_SWEEPS:
        changed = False
        sweeps += 1
        for gate in order:
            out = gate.output
            new0, new1 = _scoap_gate_cc(gate.kind, gate.inputs, cc0, cc1)
            if new0 < cc0[out]:
                cc0[out] = new0
                changed = True
            if new1 < cc1[out]:
                cc1[out] = new1
                changed = True
        for dff in netlist.dffs:
            thru0 = cc0[dff.d] + seq_cost
            thru1 = cc1[dff.d] + seq_cost
            if thru0 < cc0[dff.q]:
                cc0[dff.q] = thru0
                changed = True
            if thru1 < cc1[dff.q]:
                cc1[dff.q] = thru1
                changed = True
    return cc0, cc1, sweeps


# ----------------------------------------------------------------------
# SCOAP reverse pass (observability)
# ----------------------------------------------------------------------
def _scoap_side_cost(kind: GateType, ins: Sequence[int], position: int,
                     cc0: List[float], cc1: List[float]) -> float:
    """Cost of setting every side input of one gate to non-masking."""
    total = 0.0
    for j, other in enumerate(ins):
        if j == position:
            continue
        if _and_style(kind):
            total += cc1[other]
        elif _or_style(kind):
            total += cc0[other]
        elif _xor_style(kind):
            total += min(cc0[other], cc1[other])
        # NOT/BUF have no side inputs; constants have no inputs.
    return total


def _scoap_observability(netlist: Netlist, order: Sequence[Gate],
                         cc0: List[float], cc1: List[float],
                         seq_cost: float) -> Tuple[List[float], int]:
    n = netlist.n_nets
    co = [UNBOUNDED] * n
    for po in netlist.outputs:
        co[po] = 0.0
    reverse = list(order)
    reverse.reverse()
    sweeps = 0
    changed = True
    while changed and sweeps < _MAX_SCOAP_SWEEPS:
        changed = False
        sweeps += 1
        for dff in netlist.dffs:
            thru = co[dff.q] + seq_cost
            if thru < co[dff.d]:
                co[dff.d] = thru
                changed = True
        for gate in reverse:
            out = gate.output
            kind = gate.kind
            ins = gate.inputs
            base = co[out]
            if math.isinf(base):
                continue
            for position, net in enumerate(ins):
                side = _scoap_side_cost(kind, ins, position, cc0, cc1)
                through = base + side + 1.0
                if through < co[net]:
                    co[net] = through
                    changed = True
    return co, sweeps


# ----------------------------------------------------------------------
# COP signal probabilities (forward) and observabilities (reverse)
# ----------------------------------------------------------------------
def _cop_gate_p1(kind: GateType, ins: Sequence[int],
                 p1: List[float]) -> float:
    if kind is GateType.CONST0:
        return 0.0
    if kind is GateType.CONST1:
        return 1.0
    if kind is GateType.BUF:
        return p1[ins[0]]
    if kind is GateType.NOT:
        return 1.0 - p1[ins[0]]
    if _and_style(kind):
        prod = 1.0
        for i in ins:
            prod *= p1[i]
        return prod if kind is GateType.AND else 1.0 - prod
    if _or_style(kind):
        prod = 1.0
        for i in ins:
            prod *= 1.0 - p1[i]
        return 1.0 - prod if kind is GateType.OR else prod
    a, b = p1[ins[0]], p1[ins[1]]
    differ = a * (1.0 - b) + (1.0 - a) * b
    return differ if kind is GateType.XOR else 1.0 - differ


def _cop_probabilities(netlist: Netlist, order: Sequence[Gate]
                       ) -> Tuple[List[float], int]:
    n = netlist.n_nets
    p1 = [0.5] * n
    for dff in netlist.dffs:
        if dff.init is not None:
            p1[dff.q] = float(dff.init)
    sweeps = 0
    delta = 1.0
    while delta > _COP_TOLERANCE and sweeps < _MAX_COP_FORWARD_SWEEPS:
        delta = 0.0
        sweeps += 1
        for gate in order:
            out = gate.output
            new = _cop_gate_p1(gate.kind, gate.inputs, p1)
            delta = max(delta, abs(new - p1[out]))
            p1[out] = new
        for dff in netlist.dffs:
            # Damped frame update: the steady-state probability of a
            # register blends its reset value with what its D input
            # settles to, and damping keeps feedback loops (toggles,
            # counters) from oscillating between sweeps.
            new = 0.5 * (p1[dff.q] + p1[dff.d])
            delta = max(delta, abs(new - p1[dff.q]))
            p1[dff.q] = new
    return p1, sweeps


def _cop_observability(netlist: Netlist, order: Sequence[Gate],
                       p1: List[float]) -> Tuple[List[float], int]:
    n = netlist.n_nets
    obs = [0.0] * n
    for po in netlist.outputs:
        obs[po] = 1.0
    reverse = list(order)
    reverse.reverse()
    sweeps = 0
    changed = True
    while changed and sweeps < _MAX_COP_REVERSE_SWEEPS:
        changed = False
        sweeps += 1
        for dff in netlist.dffs:
            if obs[dff.q] > obs[dff.d]:
                obs[dff.d] = obs[dff.q]
                changed = True
        for gate in reverse:
            out = gate.output
            kind = gate.kind
            ins = gate.inputs
            base = obs[out]
            if base <= 0.0:
                continue
            for position, net in enumerate(ins):
                through = base
                for j, other in enumerate(ins):
                    if j == position:
                        continue
                    if _and_style(kind):
                        through *= p1[other]
                    elif _or_style(kind):
                        through *= 1.0 - p1[other]
                    # XOR-style side inputs never mask a change.
                # Relative improvement test: tiny observabilities are
                # meaningful (they classify random-resistant cones), so
                # an absolute epsilon would freeze them; a relative one
                # still cuts off the geometric feedback tail.
                if through > obs[net] * (1.0 + _COP_TOLERANCE):
                    obs[net] = through
                    changed = True
    return obs, sweeps


# ----------------------------------------------------------------------
# Summaries and statistics helpers
# ----------------------------------------------------------------------
def finite(values: Iterable[float]) -> List[float]:
    """Drop :data:`UNBOUNDED` entries."""
    return [v for v in values if not math.isinf(v)]


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(math.ceil(pct / 100.0 * len(ordered))) - 1))
    return ordered[rank]


def _median(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def rank_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties.

    Hand-rolled (no scipy in the environment); returns 0.0 when either
    side is constant, which reads as "no evidence" for the gates built
    on top of it.
    """
    if len(xs) != len(ys):
        raise ValueError("rank_correlation needs equal-length sequences")
    if len(xs) < 2:
        return 0.0
    rx = _ranks(xs)
    ry = _ranks(ys)
    mean_x = sum(rx) / len(rx)
    mean_y = sum(ry) / len(ry)
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    var_x = sum((a - mean_x) ** 2 for a in rx)
    var_y = sum((b - mean_y) ** 2 for b in ry)
    if var_x <= 0.0 or var_y <= 0.0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


def _ranks(values: Sequence[float]) -> List[float]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


@dataclass(frozen=True)
class NetlistTestabilitySummary:
    """Aggregate testability report row for one netlist / component."""

    name: str
    n_nets: int
    n_gates: int
    n_dffs: int
    n_faults: int
    max_cc: float          # largest finite controllability difficulty
    median_cc: float
    max_co: float          # largest finite observability cost
    median_co: float
    median_detect: float   # median COP detection probability
    min_detect: float
    n_below_floor: int     # predicted random-resistant fault sites
    n_unbounded: int       # statically untestable candidates
    floor: float

    def to_json(self) -> Dict[str, object]:
        def _num(v: float) -> object:
            return "unbounded" if math.isinf(v) else round(v, 6)
        return {
            "name": self.name,
            "n_nets": self.n_nets,
            "n_gates": self.n_gates,
            "n_dffs": self.n_dffs,
            "n_faults": self.n_faults,
            "max_cc": _num(self.max_cc),
            "median_cc": _num(self.median_cc),
            "max_co": _num(self.max_co),
            "median_co": _num(self.median_co),
            "median_detect": _num(self.median_detect),
            "min_detect": _num(self.min_detect),
            "n_below_floor": self.n_below_floor,
            "n_unbounded": self.n_unbounded,
            "floor": self.floor,
        }

    def to_row(self) -> List[str]:
        return [
            self.name,
            str(self.n_faults),
            f"{self.max_cc:.0f}",
            f"{self.median_cc:.1f}",
            f"{self.max_co:.0f}",
            f"{self.median_co:.1f}",
            f"{self.median_detect:.4f}",
            f"{self.min_detect:.2e}",
            str(self.n_below_floor),
            str(self.n_unbounded),
        ]


#: Default COP detection-probability floor below which a fault site is
#: predicted random-resistant (matches the lint NET010 floor,
#: ``repro.lint.netlist_rules.DETECT_PROB_FLOOR``).
DEFAULT_DETECT_FLOOR: float = 1e-8


def summarize_testability(name: str, netlist: Netlist,
                          faults: Sequence[Fault],
                          analysis: Optional[TestabilityAnalysis] = None,
                          floor: float = DEFAULT_DETECT_FLOOR
                          ) -> NetlistTestabilitySummary:
    """Aggregate per-fault scores into one report row."""
    if analysis is None:
        analysis = analyze_testability(netlist)
    scores = analysis.score_faults(faults)
    cc = [max(analysis.cc0[n], analysis.cc1[n])
          for n in range(netlist.n_nets)]
    finite_cc = finite(cc)
    finite_co = finite(analysis.co)
    detect = [s.detection_probability for s in scores]
    stats = netlist.stats()
    return NetlistTestabilitySummary(
        name=name,
        n_nets=stats.n_nets,
        n_gates=stats.n_gates,
        n_dffs=stats.n_dffs,
        n_faults=len(scores),
        max_cc=max(finite_cc) if finite_cc else 0.0,
        median_cc=_median(finite_cc),
        max_co=max(finite_co) if finite_co else 0.0,
        median_co=_median(finite_co),
        median_detect=_median(detect),
        min_detect=min(detect) if detect else 0.0,
        n_below_floor=sum(1 for d in detect if d < floor),
        n_unbounded=sum(1 for s in scores if s.statically_untestable),
        floor=floor,
    )
