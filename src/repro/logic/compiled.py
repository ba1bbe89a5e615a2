"""Code-generated netlist evaluation.

Interpreted gate-by-gate evaluation pays Python's per-gate dispatch cost on
every call.  For hot paths (fault-simulation good machines, mixed-level
propagation, fault-parallel sequential grading) this module compiles a
netlist's levelised gate list into straight-line Python functions of array
assignments — typically 5–10× faster — with results bit-identical to
:class:`CombSimulator`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.logic.gates import GateType
from repro.logic.netlist import Netlist

#: Most statements one generated function may hold.  ``exec`` keeps a
#: whole source's syntax tree and compiler state alive at once, so one
#: function per netlist makes compile memory grow with the netlist:
#: compiling the flat core's evaluator and forcing kernel unsplit peaks
#: a grading process at ~56 MB, against ~34 MB in chunks of this size.
#: Every component netlist (the largest, the shifter, has 565 gates)
#: still compiles to a single function.
MAX_STATEMENTS = 1000


def compile_statements(params: str, statements: Sequence[str]) -> Callable:
    """Compile straight-line ``statements`` into one function of ``params``.

    Statements communicate only through the parameters (array slots), so
    they may be split into chunks of at most :data:`MAX_STATEMENTS`, each
    compiled on its own; a short generated function calls them in order.
    A body that fits one chunk compiles to that chunk alone.
    """
    chunks = [statements[i:i + MAX_STATEMENTS]
              for i in range(0, len(statements), MAX_STATEMENTS)] or [[]]
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
    :class:`~repro.logic.sequential.SequentialSimulator`.  Every fault
    site — primary input, gate output and DFF Q — is pinned as
    ``(x & A[n]) | O[n]`` from the per-net mask lists ``A`` and ``O``, so
    one compiled kernel serves any set of stuck-at faults: a stuck-at-0
    lane clears its bit of ``A[net]``, a stuck-at-1 lane sets its bit of
    ``O[net]``, and an unforced net has ``A[n] = m`` and ``O[n] = 0``.
    DFF Qs are pinned at the start of every cycle, so a stuck state bit
    stays stuck across clock edges.

    The caller owns the value list (one slot per net, from
    :meth:`reset`): it loads the primary inputs, calls ``step(v, A, O,
    m)``, reads any net, then calls ``latch(v)`` to clock every DFF.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        sources = list(netlist.inputs) + [dff.q for dff in netlist.dffs]
        statements = [f"v[{n}] = v[{n}] & A[{n}] | O[{n}]" for n in sources]
        for gate in netlist.levelize():
            expr = _gate_expression(gate.kind, [f"v[{i}]" for i in gate.inputs])
            out = gate.output
            statements.append(f"v[{out}] = ({expr}) & A[{out}] | O[{out}]")
        self.step = compile_statements("v, A, O, m", statements)
        # One tuple assignment: every D is read before any Q is written.
        latch = []
        if netlist.dffs:
            qs = "".join(f"v[{dff.q}], " for dff in netlist.dffs)
            ds = "".join(f"v[{dff.d}], " for dff in netlist.dffs)
            latch.append(f"{qs}= {ds}")
        self.latch = compile_statements("v", latch)

    def reset(self, width_mask: int) -> List[int]:
        """A fresh value list with every DFF at its ``init`` value."""
        values = [0] * self.netlist.n_nets
        for dff in self.netlist.dffs:
            values[dff.q] = width_mask if dff.init else 0
        return values


class CompiledConeEvaluator:
    """Compiled fault-propagation kernels for one fault site.

    Fault simulation spends almost all of its time re-evaluating a
    fault's fanout cone on top of cached good-machine values — once per
    fault per pattern block, and per *cycle* in mixed-level continuous
    injection.  The interpreted walk pays a dict lookup per operand and
    an :func:`eval_gate` dispatch per gate; here the cone is code-
    generated once into straight-line local-variable assignments, giving
    the same 5–10× win :class:`CompiledEvaluator` gives the good
    machine.  Both stuck-at polarities of a site share one kernel (the
    stuck word is a parameter), and kernels are shared across
    structurally identical netlists via
    :func:`repro.runtime.cache.compiled_cone`.

    Two entry points are generated from a single codegen pass:

    * :meth:`detect` — the packed detected-pattern mask only (the
      fault-dropping hot path allocates nothing but ints);
    * :meth:`propagate` — ``(mask, changed)`` exactly as
      :meth:`repro.faults.combsim.CombFaultSimulator.simulate_fault`
      returns it, for callers that need the faulty net values.

    Callers are responsible for the excitation early-exit
    (``good[net] == stuck``), mirroring the interpreted engine.
    """

    def __init__(self, netlist: Netlist, net: int):
        self.netlist = netlist
        self.net = net
        cone = netlist.transitive_fanout_gates(net)
        touched = {net} | {g.output for g in cone}
        #: Primary outputs reachable from the fault site (fault effects
        #: anywhere else are unobservable in this netlist).
        self.cone_outputs = [o for o in netlist.outputs if o in touched]
        self.n_cone_gates = len(cone)
        self._cone_nets = [g.output for g in cone]
        local: Dict[int, str] = {net: "s"}
        body: List[str] = []
        for gate in cone:
            operands = [local.get(i, f"v[{i}]") for i in gate.inputs]
            name = f"t{gate.output}"
            body.append(f"    {name} = {_gate_expression(gate.kind, operands)}")
            local[gate.output] = name
        terms = [f"({local[o]} ^ v[{o}])" for o in self.cone_outputs]
        self._body = body or ["    pass"]
        self._detect_expr = " | ".join(terms) if terms else "0"
        self._values_expr = ", ".join(local[n] for n in self._cone_nets) \
            + ("," if len(self._cone_nets) == 1 else "")
        # Only the mask-only kernel is compiled eagerly: fault dropping
        # calls nothing else, and compile time is the batched engine's
        # main fixed cost.  The value-returning kernel (needed only once
        # a fault is detected, or for faulty-word extraction) compiles
        # lazily on first use.
        self.detect = self._exec(
            "def _k(v, s, m):\n" + "\n".join(self._body)
            + f"\n    return {self._detect_expr}"
        )
        self._propagate = None

    @staticmethod
    def _exec(source: str):
        namespace: Dict = {}
        exec(source, namespace)  # noqa: S102 - trusted codegen
        return namespace["_k"]

    def propagate(self, good: List[int], stuck: int,
                  width_mask: int) -> tuple:
        """``(detected_mask, changed)`` — bit-identical to the
        interpreted cone walk: ``changed`` holds the stuck site plus
        every cone net whose packed value differs from the good value."""
        if self._propagate is None:
            self._propagate = self._exec(
                "def _k(v, s, m):\n" + "\n".join(self._body)
                + f"\n    return {self._detect_expr}, "
                  f"({self._values_expr})"
            )
        detected, values = self._propagate(good, stuck, width_mask)
        changed = {self.net: stuck}
        for net, value in zip(self._cone_nets, values):
            if value != good[net]:
                changed[net] = value
        return detected, changed


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
        lines = ["def _eval3(v1, v0):"]
        order = netlist.levelize()
        if not order:
            lines.append("    pass")
        for gate in order:
            one = [f"v1[{i}]" for i in gate.inputs]
            zero = [f"v0[{i}]" for i in gate.inputs]
            e1, e0 = _gate_expression3(gate.kind, one, zero)
            lines.append(f"    v1[{gate.output}] = {e1}")
            lines.append(f"    v0[{gate.output}] = {e0}")
        namespace: Dict = {}
        exec("\n".join(lines), namespace)  # noqa: S102 - trusted codegen
        self._eval3 = namespace["_eval3"]

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
