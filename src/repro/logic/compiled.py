"""Code-generated netlist evaluation.

Interpreted gate-by-gate evaluation pays Python's per-gate dispatch cost on
every call.  For hot paths (fault-simulation good machines, mixed-level
propagation, fault-parallel sequential grading) this module compiles a
netlist's levelised gate list into straight-line Python functions of array
assignments — typically 5–10× faster — with results bit-identical to
:class:`CombSimulator`.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence,
)

from repro.logic.gates import GateType
from repro.logic.netlist import Gate, Netlist

#: Most statements one generated function may hold.  ``exec`` keeps a
#: whole source's syntax tree and compiler state alive at once, so one
#: function per netlist makes compile memory grow with the netlist.
#: Grading the flat core's full universe, which forces 3,615 of its
#: 3,686 nets, peaks a process that also compiles the core's evaluator
#: at ~55 MB unsplit, against ~34 MB in chunks of this size; a kernel
#: for a 1-in-4 fault sample (1,185 forced nets) peaks at ~45 MB
#: against ~31 MB.  Every component netlist (the largest, the shifter,
#: has 565 gates) still compiles its two-valued evaluator to a single
#: function.
MAX_STATEMENTS = 1000


def compile_statements(params: str, statements: Sequence[str],
                       width: int = 1) -> Callable:
    """Compile straight-line ``statements`` into one function of ``params``.

    Statements communicate only through the parameters (array slots), so
    they may be split into chunks of at most :data:`MAX_STATEMENTS`, each
    compiled on its own; a short generated function calls them in order.
    ``width`` is how many statements each entry of ``statements`` holds
    on its one line.  A body that fits one chunk compiles to that chunk
    alone.
    """
    size = max(1, MAX_STATEMENTS // width)
    chunks = [statements[i:i + size]
              for i in range(0, len(statements), size)] or [[]]
    namespace: Dict = {}
    for k, chunk in enumerate(chunks):
        body = "\n    ".join(chunk) if chunk else "pass"
        exec(f"def _c{k}({params}):\n    {body}",  # noqa: S102 - trusted codegen
             namespace)
    if len(chunks) == 1:
        return namespace["_c0"]
    calls = "\n    ".join(f"_c{k}({params})" for k in range(len(chunks)))
    exec(f"def _run({params}):\n    {calls}", namespace)  # noqa: S102
    return namespace["_run"]


def _gate_expression(kind: GateType, operands: List[str]) -> str:
    if kind is GateType.AND:
        return " & ".join(operands)
    if kind is GateType.OR:
        return " | ".join(operands)
    if kind is GateType.NAND:
        return f"({' & '.join(operands)}) ^ m"
    if kind is GateType.NOR:
        return f"({' | '.join(operands)}) ^ m"
    if kind is GateType.XOR:
        return " ^ ".join(operands)
    if kind is GateType.XNOR:
        return f"({' ^ '.join(operands)}) ^ m"
    if kind is GateType.NOT:
        return f"{operands[0]} ^ m"
    if kind is GateType.BUF:
        return operands[0]
    if kind is GateType.CONST0:
        return "0"
    if kind is GateType.CONST1:
        return "m"
    raise ValueError(f"unknown gate type {kind!r}")


class CompiledEvaluator:
    """A compiled combinational evaluator for one netlist.

    :meth:`eval_into` fills a pre-populated value list in place: the caller
    sets primary-input (and DFF Q) slots, the compiled body computes every
    gate output.  Forcing/fault injection is layered on top by the caller
    (cone re-evaluation), exactly as with the interpreted simulator.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        statements = []
        for gate in netlist.levelize():
            operands = [f"v[{i}]" for i in gate.inputs]
            statements.append(
                f"v[{gate.output}] = {_gate_expression(gate.kind, operands)}"
            )
        self._eval = compile_statements("v, m", statements)

    def run(self, inputs: Dict[int, int], n_patterns: int = 1,
            state: Optional[Dict[int, int]] = None) -> List[int]:
        """Drop-in equivalent of :meth:`CombSimulator.run` (no forcing)."""
        width_mask = (1 << n_patterns) - 1
        values = [0] * self.netlist.n_nets
        for net in self.netlist.inputs:
            values[net] = inputs[net] & width_mask
        for dff in self.netlist.dffs:
            if state is not None and dff.q in state:
                values[dff.q] = state[dff.q] & width_mask
            else:
                values[dff.q] = width_mask if dff.init else 0
        self._eval(values, width_mask)
        return values


class CompiledForcingKernel:
    """One clock cycle of a sequential netlist with per-lane forcing.

    Values pack one independent machine per bit (a *lane*), as in
    :class:`~repro.logic.sequential.SequentialSimulator`.  ``sites`` maps
    each net the kernel forces to the stuck-at polarities it carries
    there: a stuck-at-0 site is pinned as ``x & A[n]`` and a stuck-at-1
    site as ``x | O[n]``, from the per-net mask lists ``A`` and ``O``; a
    stuck-at-0 lane clears its bit of ``A[net]``, a stuck-at-1 lane sets
    its bit of ``O[net]``, and a lane forced nowhere on a site keeps
    ``A[n] = m`` and ``O[n] = 0`` there.  Every other net compiles to its
    plain gate expression and reads no mask.  ``sites=None`` forces every
    fault site — primary input, gate output and DFF Q — in both
    polarities, so that one kernel serves any set of stuck-at faults.
    DFF Qs are pinned at the start of every cycle, so a stuck state bit
    stays stuck across clock edges.

    The caller owns the value list (one slot per net, from
    :meth:`reset`): it loads the primary inputs, calls ``step(v, A, O,
    m)``, reads any net, then calls ``latch(v)`` to clock every DFF.
    """

    def __init__(self, netlist: Netlist,
                 sites: Optional[Mapping[int, Iterable[int]]] = None):
        self.netlist = netlist
        sources = list(netlist.inputs) + [dff.q for dff in netlist.dffs]
        gates = netlist.levelize()
        if sites is None:
            both = (0, 1)
            sites = {n: both for n in sources + [g.output for g in gates]}
        #: net -> the stuck-at polarities this kernel can force there.
        self.sites: Dict[int, FrozenSet[int]] = {
            n: frozenset(polarities) for n, polarities in sites.items()}

        def force(n: int) -> str:
            polarities = self.sites.get(n, ())
            return ((f" & A[{n}]" if 0 in polarities else "")
                    + (f" | O[{n}]" if 1 in polarities else ""))

        statements = []
        for n in sources:
            pin = force(n)
            if pin:
                statements.append(f"v[{n}] = v[{n}]{pin}")
        for gate in gates:
            expr = _gate_expression(gate.kind, [f"v[{i}]" for i in gate.inputs])
            out = gate.output
            pin = force(out)
            statements.append(f"v[{out}] = ({expr}){pin}" if pin
                              else f"v[{out}] = {expr}")
        self.step = compile_statements("v, A, O, m", statements)
        # One tuple assignment: every D is read before any Q is written.
        latch = []
        if netlist.dffs:
            qs = "".join(f"v[{dff.q}], " for dff in netlist.dffs)
            ds = "".join(f"v[{dff.d}], " for dff in netlist.dffs)
            latch.append(f"{qs}= {ds}")
        self.latch = compile_statements("v", latch)

    def covers(self, sites: Mapping[int, Iterable[int]]) -> bool:
        """Whether this kernel forces every polarity of every net in
        ``sites``."""
        none: FrozenSet[int] = frozenset()
        return all(self.sites.get(n, none).issuperset(polarities)
                   for n, polarities in sites.items())

    def reset(self, width_mask: int) -> List[int]:
        """A fresh value list with every DFF at its ``init`` value."""
        values = [0] * self.netlist.n_nets
        for dff in self.netlist.dffs:
            values[dff.q] = width_mask if dff.init else 0
        return values


def _gate_expression3(kind: GateType, one: List[str],
                      zero: List[str]) -> tuple:
    """(is-one expr, is-zero expr) for three-valued bitplane evaluation."""
    if kind is GateType.AND:
        return " & ".join(one), " | ".join(zero)
    if kind is GateType.OR:
        return " | ".join(one), " & ".join(zero)
    if kind is GateType.NAND:
        return " | ".join(zero), " & ".join(one)
    if kind is GateType.NOR:
        return " & ".join(zero), " | ".join(one)
    if kind is GateType.XOR:
        a1, b1 = one
        a0, b0 = zero
        return (f"({a1} & {b0}) | ({a0} & {b1})",
                f"({a1} & {b1}) | ({a0} & {b0})")
    if kind is GateType.XNOR:
        a1, b1 = one
        a0, b0 = zero
        return (f"({a1} & {b1}) | ({a0} & {b0})",
                f"({a1} & {b0}) | ({a0} & {b1})")
    if kind is GateType.NOT:
        return zero[0], one[0]
    if kind is GateType.BUF:
        return one[0], zero[0]
    if kind is GateType.CONST0:
        return "0", "1"
    if kind is GateType.CONST1:
        return "1", "0"
    raise ValueError(f"unknown gate type {kind!r}")


def _compile_eval3(gates: Sequence[Gate], guarded: bool = False) -> Callable:
    """Straight-line three-valued evaluation of ``gates``, in the given
    order, over the bitplanes ``(v1, v0)`` (see :class:`CompiledEvaluator3`).

    ``guarded`` adds a third parameter ``c``, one flag per net: a gate
    whose output flag is false is skipped and keeps its planes' values.
    """
    statements = []
    for gate in gates:
        e1, e0 = _gate_expression3(gate.kind,
                                   [f"v1[{i}]" for i in gate.inputs],
                                   [f"v0[{i}]" for i in gate.inputs])
        out = gate.output
        body = f"v1[{out}] = {e1}; v0[{out}] = {e0}"
        statements.append(f"if c[{out}]: {body}" if guarded else body)
    if guarded:
        return compile_statements("v1, v0, c", statements, width=3)
    return compile_statements("v1, v0", statements, width=2)


class CompiledEvaluator3:
    """Compiled three-valued (0/1/X) evaluation over two bitplanes.

    A net's value is represented by two flags: *is-one* and *is-zero*
    (neither set = X).  Used by PODEM's implication, where the good machine
    must be fully re-evaluated on every decision.
    """

    def __init__(self, netlist: Netlist):
        if netlist.dffs:
            raise ValueError("three-valued evaluation is combinational only")
        self.netlist = netlist
        order = netlist.levelize()
        self._eval3 = _compile_eval3(order)
        #: ``cone(v1, v0, c)`` re-evaluates, in level order, only the
        #: gates whose output flag ``c[net]`` is set.
        self.cone = _compile_eval3(order, guarded=True)

    def run(self, assignments: Dict[int, int]) -> tuple:
        """Evaluate with partially assigned PIs; returns ``(is1, is0)``."""
        n = self.netlist.n_nets
        is1 = [0] * n
        is0 = [0] * n
        for net in self.netlist.inputs:
            value = assignments.get(net)
            if value == 1:
                is1[net] = 1
            elif value == 0:
                is0[net] = 1
        self._eval3(is1, is0)
        return is1, is0
