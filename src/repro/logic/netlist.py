"""The structural netlist container.

A :class:`Netlist` is a flat graph of primitive gates over integer net ids.
Net names are kept in a side table for debugging and for addressing nets
from tests; all simulation works on the integer ids.  Sequential elements
are positive-edge D flip-flops whose Q nets act as pseudo-primary-inputs for
combinational analysis and whose D nets act as pseudo-primary-outputs.

Buses (ordered lists of nets, LSB first) are pure metadata: they let the RTL
layer and the fault-simulation layer talk about multi-bit ports without the
netlist itself knowing about words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.gates import GateType, check_arity


def _config_error(message: str) -> ValueError:
    """A :class:`~repro.runtime.errors.ConfigError`, imported lazily.

    ``repro.runtime``'s package init imports the cache layer, which
    imports this module — a top-level import here would be circular.
    ``ConfigError`` subclasses ``ValueError``, so callers written against
    the historical bare ``ValueError`` keep working.
    """
    from repro.runtime.errors import ConfigError
    return ConfigError(message)


@dataclass(frozen=True)
class Gate:
    """One primitive gate: ``output = kind(inputs)``."""

    kind: GateType
    output: int
    inputs: Tuple[int, ...]


@dataclass(frozen=True)
class Dff:
    """A positive-edge D flip-flop with reset value ``init``.

    ``init=None`` models a flop with no reset: its power-up value is
    unknown.  Simulators treat an unknown init as 0 (they test the field
    for truthiness); the lint pass flags any path from such a flop to an
    observable output (rule NET004).
    """

    q: int
    d: int
    init: Optional[int] = 0


@dataclass(frozen=True)
class NetlistStats:
    """Size summary of a netlist, used in reports and benchmarks."""

    name: str
    n_nets: int
    n_gates: int
    n_dffs: int
    n_inputs: int
    n_outputs: int

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.n_gates} gates, {self.n_dffs} DFFs, "
            f"{self.n_nets} nets, {self.n_inputs} PIs, {self.n_outputs} POs"
        )


class Netlist:
    """A flat gate-level netlist.

    Attributes of interest to callers:

    * ``inputs`` / ``outputs`` — primary input / output net ids, in
      declaration order.
    * ``gates`` — list of :class:`Gate`; each net has at most one driver.
    * ``dffs`` — list of :class:`Dff`.
    * ``buses`` — name → list of net ids (LSB first), pure metadata.
    """

    def __init__(self, name: str = "netlist"):
        self.name = name
        self.net_names: List[str] = []
        self._ids_by_name: Dict[str, int] = {}
        self.gates: List[Gate] = []
        self.driver: Dict[int, int] = {}  # net id -> index into self.gates
        self.inputs: List[int] = []
        self.outputs: List[int] = []
        self.dffs: List[Dff] = []
        self._dff_q: Dict[int, Dff] = {}
        self.buses: Dict[str, List[int]] = {}
        #: optional provenance: driven net id -> region label (set by the
        #: builder's ``region`` context; used for per-component analyses
        #: of flat assemblies).
        self.net_regions: Dict[int, str] = {}
        self._topo: Optional[List[Gate]] = None
        self._fanout: Optional[Dict[int, List[int]]] = None
        self._topo_pos: Optional[List[int]] = None

    @property
    def _topo_cache(self) -> Optional[List[Gate]]:
        return self._topo

    @_topo_cache.setter
    def _topo_cache(self, value: Optional[List[Gate]]) -> None:
        # Invalidating the topological order (structural mutation) must
        # also drop the derived fanout map and topo-position caches;
        # routing the write through a setter keeps callers that assign
        # ``_topo_cache = None`` directly (artifact loading, tests)
        # correct.
        self._topo = value
        if value is None:
            self._fanout = None
            self._topo_pos = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_net(self, name: str) -> int:
        """Create a net named ``name`` and return its id."""
        if name in self._ids_by_name:
            raise _config_error(f"duplicate net name {name!r}")
        net_id = len(self.net_names)
        self.net_names.append(name)
        self._ids_by_name[name] = net_id
        return net_id

    def net_id(self, name: str) -> int:
        """Look up a net id by name."""
        return self._ids_by_name[name]

    def add_input(self, net: int) -> int:
        self.inputs.append(net)
        return net

    def add_output(self, net: int) -> int:
        self.outputs.append(net)
        return net

    def add_gate(self, kind: GateType, output: int, inputs: Sequence[int]) -> Gate:
        """Attach a gate driving ``output``; each net may have one driver."""
        check_arity(kind, len(inputs))
        if output in self.driver:
            raise _config_error(
                f"net {self.net_names[output]!r} already has a driver"
            )
        if output in self._dff_q:
            raise _config_error(
                f"net {self.net_names[output]!r} is a DFF output"
            )
        gate = Gate(kind, output, tuple(inputs))
        self.driver[output] = len(self.gates)
        self.gates.append(gate)
        self._topo_cache = None
        return gate

    def add_dff(self, q: int, d: int, init: Optional[int] = 0) -> Dff:
        if q in self.driver or q in self._dff_q:
            raise _config_error(f"net {self.net_names[q]!r} already driven")
        dff = Dff(q, d, None if init is None else init & 1)
        self.dffs.append(dff)
        self._dff_q[q] = dff
        self._topo_cache = None
        return dff

    def add_bus(self, name: str, nets: Sequence[int]) -> List[int]:
        """Register ``nets`` (LSB first) as a named bus and return them."""
        if name in self.buses:
            raise _config_error(f"duplicate bus name {name!r}")
        self.buses[name] = list(nets)
        return self.buses[name]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_nets(self) -> int:
        return len(self.net_names)

    def is_state_net(self, net: int) -> bool:
        """True if ``net`` is a DFF Q output."""
        return net in self._dff_q

    def stats(self) -> NetlistStats:
        return NetlistStats(
            name=self.name,
            n_nets=self.n_nets,
            n_gates=len(self.gates),
            n_dffs=len(self.dffs),
            n_inputs=len(self.inputs),
            n_outputs=len(self.outputs),
        )

    def levelize(self) -> List[Gate]:
        """Return the gates in topological order.

        DFF Q nets and primary inputs are treated as sources.  Raises
        ``ValueError`` on combinational loops or undriven internal nets.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        ready = set(self.inputs)
        ready.update(d.q for d in self.dffs)
        remaining_inputs = {}
        consumers: Dict[int, List[int]] = {}
        for idx, gate in enumerate(self.gates):
            pending = [n for n in gate.inputs if n not in ready]
            remaining_inputs[idx] = len(pending)
            for n in pending:
                consumers.setdefault(n, []).append(idx)
        order: List[Gate] = []
        frontier = [i for i, cnt in remaining_inputs.items() if cnt == 0]
        while frontier:
            next_frontier: List[int] = []
            for idx in frontier:
                gate = self.gates[idx]
                order.append(gate)
                for consumer in consumers.get(gate.output, ()):
                    remaining_inputs[consumer] -= 1
                    if remaining_inputs[consumer] == 0:
                        next_frontier.append(consumer)
            frontier = next_frontier
        if len(order) != len(self.gates):
            stuck = [
                self.net_names[self.gates[i].output]
                for i, cnt in remaining_inputs.items()
                if cnt > 0
            ]
            raise _config_error(
                f"netlist {self.name!r} has a combinational loop or "
                f"undriven nets feeding: {stuck[:10]}"
            )
        self._topo_cache = order
        return order

    def fanout_map(self) -> Dict[int, List[int]]:
        """Map net id → indices of gates that read it (cached until the
        next structural mutation)."""
        if self._fanout is None:
            fanout: Dict[int, List[int]] = {}
            for idx, gate in enumerate(self.gates):
                for n in gate.inputs:
                    fanout.setdefault(n, []).append(idx)
            self._fanout = fanout
        return self._fanout

    def _topo_positions(self) -> List[int]:
        """Gate-list index → position in topological order (cached)."""
        if self._topo_pos is None:
            by_id = {id(g): p for p, g in enumerate(self.levelize())}
            self._topo_pos = [by_id[id(g)] for g in self.gates]
        return self._topo_pos

    def transitive_fanout_gates(self, net: int) -> List[Gate]:
        """Gates in the transitive fanout of ``net``, in topological order.

        The cone stops at DFF D inputs (state boundaries); used by the
        combinational fault simulator for per-fault cone re-evaluation.
        A worklist closure over the cached fanout map, so the cost
        scales with the cone, not the netlist — fault simulation builds
        one cone per fault site, which at whole-netlist scan cost was
        quadratic per netlist.
        """
        fanout = self.fanout_map()
        seen = set()
        work = list(fanout.get(net, ()))
        while work:
            idx = work.pop()
            if idx not in seen:
                seen.add(idx)
                work.extend(fanout.get(self.gates[idx].output, ()))
        pos = self._topo_positions()
        return [self.gates[i] for i in sorted(seen, key=pos.__getitem__)]

    def validate(self) -> None:
        """Check structural sanity.

        Raises :class:`~repro.runtime.errors.ConfigError` (a
        ``ValueError`` subclass) on undriven nets, multi-driven nets, or
        combinational loops.  The multi-driven check scans the gate list
        itself, so it also catches gates appended directly to ``gates``
        (bypassing :meth:`add_gate`'s incremental guard).
        """
        sources: Dict[int, int] = {}
        for gate in self.gates:
            sources[gate.output] = sources.get(gate.output, 0) + 1
        for dff in self.dffs:
            sources[dff.q] = sources.get(dff.q, 0) + 1
        for net in self.inputs:
            sources[net] = sources.get(net, 0) + 1
        for net, count in sources.items():
            if count > 1:
                raise _config_error(
                    f"net {self.net_names[net]!r} has {count} drivers"
                )
        driven = set(sources)
        for gate in self.gates:
            for n in gate.inputs:
                if n not in driven:
                    raise _config_error(
                        f"gate input net {self.net_names[n]!r} is undriven"
                    )
        for out in self.outputs:
            if out not in driven:
                raise _config_error(
                    f"primary output {self.net_names[out]!r} is undriven"
                )
        for dff in self.dffs:
            if dff.d not in driven:
                raise _config_error(
                    f"DFF D input {self.net_names[dff.d]!r} is undriven"
                )
        self.levelize()  # raises on combinational loops
