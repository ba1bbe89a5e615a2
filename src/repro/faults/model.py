"""Single stuck-at fault universe and equivalence collapsing.

Faults live on *nets* (every primary input, gate output and flip-flop
output), in both polarities.  Classic structural equivalence collapsing is
applied: a fault on the single-fanout input of a BUF/NOT merges with the
corresponding output fault, and the controlling-value input faults of
AND/OR/NAND/NOR gates merge with the gate's output fault.  Collapsing only
changes which fault *represents* an equivalence class; coverage is always
reported over the collapsed universe, like commercial tools do by default.

:func:`check_stimulus` is the one validation of the bus stimulus every
fault simulator takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.logic.gates import GateType
from repro.logic.netlist import Netlist
from repro.runtime.errors import ConfigError


@dataclass(frozen=True, order=True)
class Fault:
    """A single stuck-at fault: ``net`` stuck at ``stuck_at`` (0 or 1)."""

    net: int
    stuck_at: int

    def describe(self, netlist: Netlist) -> str:
        return f"{netlist.net_names[self.net]} sa{self.stuck_at}"


@dataclass
class FaultList:
    """A collapsed fault universe.

    ``faults`` holds one representative per equivalence class;
    ``class_sizes`` maps each representative to the size of its class, so
    reports can also quote uncollapsed totals.
    """

    netlist: Netlist
    faults: List[Fault]
    class_sizes: Dict[Fault, int] = field(default_factory=dict)

    @property
    def n_collapsed(self) -> int:
        return len(self.faults)

    @property
    def n_uncollapsed(self) -> int:
        return sum(self.class_sizes.get(f, 1) for f in self.faults)

    def describe(self, fault: Fault) -> str:
        return fault.describe(self.netlist)


def _fault_sites(netlist: Netlist) -> List[int]:
    """Nets that carry faults: PIs, gate outputs and DFF Qs."""
    sites = list(netlist.inputs)
    sites.extend(g.output for g in netlist.gates)
    sites.extend(d.q for d in netlist.dffs)
    return sites


def check_stimulus(netlist: Netlist,
                   bus_words: Mapping[str, Sequence[int]]) -> int:
    """Validate one block of bus stimulus; returns its length in words.

    The stimulus must name at least one bus, give every bus the same
    number of words, use only buses made of primary inputs, and drive
    every primary input.
    """
    if not bus_words:
        raise ConfigError(
            f"empty stimulus for netlist {netlist.name!r}: "
            f"no pattern buses given"
        )
    lengths = {len(words) for words in bus_words.values()}
    if len(lengths) != 1:
        raise ConfigError("all pattern buses must have equal length")
    primary_inputs = set(netlist.inputs)
    driven = set()
    for name in bus_words:
        nets = netlist.buses.get(name)
        if nets is None:
            raise ConfigError(
                f"unknown bus {name!r} in netlist {netlist.name!r}")
        for net in nets:
            if net not in primary_inputs:
                raise ConfigError(
                    f"bus {name!r} is not made of primary inputs: "
                    f"net {netlist.net_names[net]!r} is not one"
                )
        driven.update(nets)
    for net in netlist.inputs:
        if net not in driven:
            raise ConfigError(
                f"primary input {netlist.net_names[net]!r} of netlist "
                f"{netlist.name!r} is driven by no bus"
            )
    return lengths.pop()


def full_fault_list(netlist: Netlist) -> List[Fault]:
    """Both polarities on every fault site, uncollapsed."""
    faults: List[Fault] = []
    for net in _fault_sites(netlist):
        faults.append(Fault(net, 0))
        faults.append(Fault(net, 1))
    return faults


#: For each collapsible gate type: (input fault polarity, output fault
#: polarity) pairs that are structurally equivalent.
_EQUIVALENCES = {
    GateType.BUF: ((0, 0), (1, 1)),
    GateType.NOT: ((0, 1), (1, 0)),
    GateType.AND: ((0, 0),),
    GateType.NAND: ((0, 1),),
    GateType.OR: ((1, 1),),
    GateType.NOR: ((1, 0),),
}


def collapse_faults(netlist: Netlist,
                    faults: Optional[Sequence[Fault]] = None) -> FaultList:
    """Equivalence-collapse a fault universe.

    Uses union-find over the equivalence pairs of :data:`_EQUIVALENCES`,
    restricted to gate inputs with fanout 1 (a fanout stem fault is not
    equivalent to any single branch fault).  Constant-generator outputs
    stuck at their own value are dropped as untestable-by-construction.

    The union-find runs on integer keys ``2 * net + stuck_at``, which
    sort as :class:`Fault` does; a ``Fault`` is built only for each
    class representative.
    """
    if faults is None:
        universe = [2 * net + p for net in _fault_sites(netlist)
                    for p in (0, 1)]
    else:
        universe = [2 * f.net + f.stuck_at for f in faults]
    fanout_counts: Dict[int, int] = {}
    for gate in netlist.gates:
        for n in gate.inputs:
            fanout_counts[n] = fanout_counts.get(n, 0) + 1
    for dff in netlist.dffs:
        fanout_counts[dff.d] = fanout_counts.get(dff.d, 0) + 1

    parent: Dict[int, int] = {}

    def find(f: int) -> int:
        root = f
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(f, f) != f:
            parent[f], f = root, parent[f]
        return root

    in_universe: Set[int] = set(universe)
    for gate in netlist.gates:
        pairs = _EQUIVALENCES.get(gate.kind)
        if not pairs:
            continue
        for in_pol, out_pol in pairs:
            out_fault = 2 * gate.output + out_pol
            if out_fault not in in_universe:
                continue
            for in_net in gate.inputs:
                if fanout_counts.get(in_net, 0) != 1:
                    continue
                in_fault = 2 * in_net + in_pol
                if in_fault in in_universe:
                    ra, rb = find(in_fault), find(out_fault)
                    if ra != rb:
                        # Keep the fault closer to the outputs as
                        # representative: the gate output fault wins.
                        parent[ra] = rb

    untestable: Set[int] = set()
    for gate in netlist.gates:
        if gate.kind is GateType.CONST0:
            untestable.add(2 * gate.output)
        elif gate.kind is GateType.CONST1:
            untestable.add(2 * gate.output + 1)

    sizes: Dict[int, int] = {}
    for f in universe:
        root = find(f)
        if root in untestable or f in untestable:
            continue
        sizes[root] = sizes.get(root, 0) + 1
    reps = {key: Fault(key >> 1, key & 1) for key in sorted(sizes)}
    return FaultList(netlist=netlist, faults=list(reps.values()),
                     class_sizes={reps[key]: n for key, n in sizes.items()})
