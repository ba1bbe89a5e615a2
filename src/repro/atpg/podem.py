"""PODEM combinational ATPG.

Classic PODEM over the project's netlist model, engineered for pure-Python
speed:

* the **good machine** is re-implied with a compiled three-valued
  (bitplane) evaluator (:class:`~repro.logic.compiled.CompiledEvaluator3`);
* the **faulty machine** is a second pair of bitplanes: each implication
  copies the good planes, forces the fault sites in the copy and
  re-evaluates only the sites' transitive fanout cone, in level order,
  with the same evaluator's cone kernel (compiled once per netlist; a
  per-net flag list selects the target's cone).  A net carries a D or
  D-bar exactly when ``(g1[n] & f0[n]) | (g0[n] & f1[n])`` is set, which
  is how detection and the D-frontier (collected over the cone) test it;
* decisions are PI-only with objective/backtrace and a backtrack limit.

Multiple fault sites with individual polarities are supported so one
*physical* fault replicated across time frames (sequential ATPG via
:mod:`repro.atpg.unroll`) can be targeted as a unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.faults.model import Fault
from repro.logic.gates import GateType
from repro.logic.netlist import Gate, Netlist

#: Controlling value per gate type (None = no controlling value).
_CONTROLLING = {
    GateType.AND: 0, GateType.NAND: 0,
    GateType.OR: 1, GateType.NOR: 1,
}
#: Gate types whose output inverts the underlying function.
_INVERTING = {
    GateType.NAND, GateType.NOR, GateType.XNOR, GateType.NOT,
}
#: Good and faulty bitplanes ``(g1, g0, f1, f0)``: per net, is-one and
#: is-zero flags of each machine (neither flag set = X).
_Planes = Tuple[List[int], List[int], List[int], List[int]]


@dataclass
class PodemResult:
    """Outcome of one PODEM run.

    ``backtracks`` counts decision reversals and ``decisions`` counts PI
    assignments tried; together they measure the search effort (E5's
    attack records carry both).
    """

    fault_sites: Tuple[Fault, ...]
    pattern: Optional[Dict[int, int]]  # PI net -> value (when detected)
    status: str                        # "detected" | "untestable" | "aborted"
    backtracks: int
    decisions: int = 0

    @property
    def detected(self) -> bool:
        return self.status == "detected"

    def pattern_words(self, netlist: Netlist) -> Dict[str, int]:
        """The pattern as words per input bus (unassigned bits are 0)."""
        if self.pattern is None:
            raise ValueError("no pattern (fault not detected)")
        words: Dict[str, int] = {}
        pi_set = set(netlist.inputs)
        for name, nets in netlist.buses.items():
            if not all(n in pi_set for n in nets):
                continue
            word = 0
            for i, net in enumerate(nets):
                if self.pattern.get(net):
                    word |= 1 << i
            words[name] = word
        return words


class Podem:
    """PODEM test generation for stuck-at faults on a combinational netlist.

    Objective and backtrace use the classic first-X heuristics: excite
    the first unassigned site, drive the first X side input of the first
    D-frontier gate, and justify through the first X gate input.
    """

    def __init__(self, netlist: Netlist, backtrack_limit: int = 2000):
        if netlist.dffs:
            raise ValueError(
                "PODEM needs a combinational netlist; unroll sequential "
                "designs first (repro.atpg.unroll)"
            )
        self.netlist = netlist
        self.order = netlist.levelize()
        self.backtrack_limit = backtrack_limit
        from repro.runtime.cache import compiled_evaluator3
        self._eval3 = compiled_evaluator3(netlist)
        self._driver_gate: Dict[int, Gate] = {
            g.output: g for g in netlist.gates
        }
        self._pi_set = set(netlist.inputs)
        self._po_set = set(netlist.outputs)

    # ------------------------------------------------------------------
    def generate(self, fault: Fault) -> PodemResult:
        """Generate a pattern for a single stuck-at fault."""
        return self.generate_multi((fault,))

    def generate_multi(self, faults: Sequence[Fault]) -> PodemResult:
        """Generate a pattern for one fault replicated at several sites."""
        sites = {f.net: f.stuck_at for f in faults}
        cone = self._site_cone(frozenset(sites))
        cone_pos = [n for n in (set(g.output for g in cone) | set(sites))
                    if n in self._po_set]
        # Site outputs stay forced, so the cone kernel never re-derives them.
        live = [False] * self.netlist.n_nets
        for gate in cone:
            live[gate.output] = gate.output not in sites

        assignments: Dict[int, int] = {}
        decisions: List[Tuple[int, int, bool]] = []
        backtracks = 0
        n_decisions = 0

        planes = self._imply(assignments, sites, live)
        while True:
            if self._detected(planes, cone_pos):
                return PodemResult(
                    fault_sites=tuple(faults),
                    pattern=dict(assignments),
                    status="detected",
                    backtracks=backtracks,
                    decisions=n_decisions,
                )
            objective = self._objective(planes, sites, cone)
            pi: Optional[Tuple[int, int]] = None
            if objective is not None:
                pi = self._backtrace(*objective, planes[0], planes[1])
            if pi is None:
                backtracked = False
                while decisions:
                    net, value, flipped = decisions.pop()
                    del assignments[net]
                    if not flipped:
                        backtracks += 1
                        if backtracks > self.backtrack_limit:
                            return PodemResult(tuple(faults), None,
                                               "aborted", backtracks,
                                               n_decisions)
                        decisions.append((net, value ^ 1, True))
                        assignments[net] = value ^ 1
                        backtracked = True
                        break
                if not backtracked:
                    return PodemResult(tuple(faults), None, "untestable",
                                       backtracks, n_decisions)
            else:
                net, value = pi
                assignments[net] = value
                decisions.append((net, value, False))
                n_decisions += 1
            planes = self._imply(assignments, sites, live)

    # ------------------------------------------------------------------
    def _site_cone(self, sites: FrozenSet[int]) -> List[Gate]:
        """Gates in the transitive fanout of any site, topological order."""
        tainted = set(sites)
        cone: List[Gate] = []
        for gate in self.order:
            if any(i in tainted for i in gate.inputs):
                tainted.add(gate.output)
                cone.append(gate)
        return cone

    def _imply(self, assignments: Dict[int, int], sites: Dict[int, int],
               live: List[bool]) -> _Planes:
        """Both machines as bitplanes ``(g1, g0, f1, f0)``.

        The good machine is a full compiled evaluation.  The faulty one
        starts as a copy of it, takes the stuck values at the sites and
        re-evaluates the gates that ``live`` flags (the sites' fanout
        cone): every other net is the same in both machines.
        """
        g1, g0 = self._eval3.run(assignments)
        f1, f0 = g1[:], g0[:]
        for net, stuck in sites.items():
            f1[net] = stuck
            f0[net] = stuck ^ 1
        self._eval3.cone(f1, f0, live)
        return g1, g0, f1, f0

    def _detected(self, planes: _Planes, cone_pos: Sequence[int]) -> bool:
        g1, g0, f1, f0 = planes
        return any((g1[po] & f0[po]) | (g0[po] & f1[po]) for po in cone_pos)

    def _objective(self, planes: _Planes, sites: Dict[int, int],
                   cone: List[Gate]) -> Optional[Tuple[int, int]]:
        """Next (net, value) goal, or ``None`` on conflict."""
        g1, g0, f1, f0 = planes
        # 1. Excitation: at least one site must carry the opposite of its
        # stuck value in the good machine.
        excited = any(g0[n] if s else g1[n] for n, s in sites.items())
        if not excited:
            for net, stuck in sites.items():
                if not (g1[net] | g0[net]):
                    return net, stuck ^ 1
            return None  # every site is pinned at its stuck value
        # 2. Propagation: an X side-input of a D-frontier gate (all
        # D-frontier gates lie inside the cone by construction).  A side
        # input is X in both machines: a site is never X in the faulty one.
        for gate in cone:
            out = gate.output
            if (g1[out] | g0[out]) and (f1[out] | f0[out]):
                continue  # fully determined (either D already or masked)
            for i in gate.inputs:
                if (g1[i] & f0[i]) | (g0[i] & f1[i]):
                    break
            else:
                continue  # no D on any input
            control = _CONTROLLING.get(gate.kind)
            non_controlling = (control ^ 1) if control is not None else 0
            for i in gate.inputs:
                if not (g1[i] | g0[i] | f1[i] | f0[i]):
                    return i, non_controlling
        return None

    def _backtrace(self, net: int, value: int, g1: List[int],
                   g0: List[int]) -> Optional[Tuple[int, int]]:
        """Map an internal objective to a PI assignment."""
        current, target = net, value
        for _ in range(self.netlist.n_nets + 1):
            if current in self._pi_set:
                if g1[current] | g0[current]:
                    return None
                return current, target
            gate = self._driver_gate.get(current)
            if gate is None or not gate.inputs:
                return None  # constant or undriven: cannot justify
            if gate.kind in _INVERTING:
                target ^= 1
            x_inputs = [i for i in gate.inputs if not (g1[i] | g0[i])]
            if not x_inputs:
                return None
            # Justify through the first X input.  An AND/OR-type input
            # takes the de-inverted target as it is: the controlling value
            # one input can set, or the non-controlling value every input
            # must take.  A parity gate folds in a known input.
            current = x_inputs[0]
            if gate.kind in (GateType.XOR, GateType.XNOR):
                other = [i for i in gate.inputs if g1[i] | g0[i]]
                target ^= g1[other[0]] if other else 0
        return None
