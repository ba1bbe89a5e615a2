"""Structural analysis of netlists: depth, fanout, region inventories.

Synthesis reports quote logic depth (a timing proxy), fanout distribution
and per-block size; these helpers compute the same quantities for this
project's netlists and feed the Fig. 5/6 structure benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.logic.netlist import Netlist


@dataclass(frozen=True)
class DepthReport:
    """Combinational depth analysis (unit gate delay)."""

    max_depth: int
    mean_output_depth: float
    depth_by_output: Dict[int, int]


def logic_depth(netlist: Netlist) -> DepthReport:
    """Longest gate chain from any source to each output/DFF input.

    Sources (PIs, DFF Qs, constants) have depth 0; each gate adds one
    unit.  The maximum over POs and DFF D inputs is the classic levelised
    depth a synthesis tool would report before technology mapping.
    """
    depth: Dict[int, int] = {net: 0 for net in netlist.inputs}
    for dff in netlist.dffs:
        depth[dff.q] = 0
    for gate in netlist.levelize():
        if gate.inputs:
            depth[gate.output] = 1 + max(depth[i] for i in gate.inputs)
        else:
            depth[gate.output] = 0
    sinks = list(netlist.outputs) + [dff.d for dff in netlist.dffs]
    depth_by_output = {net: depth.get(net, 0) for net in sinks}
    values = list(depth_by_output.values()) or [0]
    return DepthReport(
        max_depth=max(values),
        mean_output_depth=sum(values) / len(values),
        depth_by_output=depth_by_output,
    )


def fanout_histogram(netlist: Netlist, buckets: Tuple[int, ...] = (1, 2, 4, 8)
                     ) -> Dict[str, int]:
    """Histogram of net fanouts, bucketed (`<=1`, `<=2`, ..., `>last`).

    With ``buckets=()`` every loaded net lands in a single ``>0``
    overflow bucket.  A netlist with no gates and no DFFs yields a
    histogram whose counts are all zero.
    """
    counts: Dict[int, int] = {}
    for gate in netlist.gates:
        for net in gate.inputs:
            counts[net] = counts.get(net, 0) + 1
    for dff in netlist.dffs:
        counts[dff.d] = counts.get(dff.d, 0) + 1
    overflow = f">{buckets[-1]}" if buckets else ">0"
    histogram: Dict[str, int] = {f"<={b}": 0 for b in buckets}
    histogram[overflow] = 0
    for fanout in counts.values():
        for bucket in buckets:
            if fanout <= bucket:
                histogram[f"<={bucket}"] += 1
                break
        else:
            histogram[overflow] += 1
    return histogram


def region_inventory(netlist: Netlist) -> Dict[str, int]:
    """Gate count per provenance region (see ``NetlistBuilder.region``).

    Gates whose output net carries no region label are grouped under
    ``"(glue)"`` — pipeline latches, forwarding comparators and the like.
    """
    inventory: Dict[str, int] = {}
    for gate in netlist.gates:
        region = netlist.net_regions.get(gate.output, "(glue)")
        inventory[region] = inventory.get(region, 0) + 1
    return inventory
