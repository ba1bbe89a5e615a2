"""Fault-parallel sequential fault simulation.

Grades every target fault in one pass: each net value packs one machine
per bit (a *lane*) — bit 0 is the fault-free machine, bit ``k + 1`` the
machine carrying target fault *k*.  All lanes step through the input
sequence together on one compiled forcing kernel
(:class:`~repro.logic.compiled.CompiledForcingKernel`) whose per-net
masks pin each stuck net in its own lane, so faulty state evolves
naturally through the flip-flops.  A fault is detected the first cycle
any primary output bit of its lane differs from the good machine's.

This is the exact flat grader: the simple Fig. 1 datapath, individual
components, the whole gate-level DSP core, and the cross-validation of
the hierarchical core simulator all run through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro import obs
from repro.logic.compiled import CompiledForcingKernel
from repro.logic.netlist import Netlist
from repro.faults.model import (
    Fault, FaultList, _fault_sites, check_stimulus, collapse_faults,
)
from repro.runtime.errors import ConfigError


@dataclass
class SeqFaultResult:
    """Outcome of a sequential fault-simulation run."""

    first_detect_cycle: Dict[Fault, Optional[int]]
    n_cycles: int

    @property
    def detected(self) -> List[Fault]:
        return [f for f, c in self.first_detect_cycle.items() if c is not None]

    @property
    def undetected(self) -> List[Fault]:
        return [f for f, c in self.first_detect_cycle.items() if c is None]


class SeqFaultSimulator:
    """Grades stuck-at faults of a sequential netlist against a stimulus.

    The forcing kernel compiles on the first :meth:`run_sequence`, not at
    construction, and later calls on the same instance reuse it (E5's
    random phase re-grades a shrinking survivor set this way).
    """

    def __init__(self, netlist: Netlist,
                 fault_list: Optional[FaultList] = None):
        self.netlist = netlist
        self.fault_list = fault_list or collapse_faults(netlist)
        self._kernel: Optional[CompiledForcingKernel] = None

    def _check_faults(self, targets: Sequence[Fault]) -> None:
        netlist = self.netlist
        sites = set(_fault_sites(netlist))
        for fault in targets:
            if fault.net not in sites:
                name = netlist.net_names[fault.net] \
                    if 0 <= fault.net < netlist.n_nets else f"#{fault.net}"
                raise ConfigError(
                    f"fault {name!r} sa{fault.stuck_at} is not on a primary "
                    f"input, gate output or DFF Q of netlist {netlist.name!r}"
                )

    def run_sequence(
        self,
        bus_sequences: Mapping[str, Sequence[int]],
        faults: Optional[Sequence[Fault]] = None,
        stop_when_all_detected: bool = True,
    ) -> SeqFaultResult:
        """Apply per-cycle word stimulus and grade ``faults`` against it.

        ``bus_sequences`` maps input bus names to one word per cycle; the
        buses must consist of primary inputs and together drive all of
        them.  ``faults`` defaults to the simulator's fault list.
        """
        netlist = self.netlist
        targets = list(faults if faults is not None else self.fault_list.faults)
        n_cycles = check_stimulus(netlist, bus_sequences)
        self._check_faults(targets)
        first_detect: Dict[Fault, Optional[int]] = {f: None for f in targets}
        if not targets:
            return SeqFaultResult(first_detect_cycle=first_detect,
                                  n_cycles=n_cycles)
        if self._kernel is None:
            with obs.section("sim.seq.compile"):
                self._kernel = CompiledForcingKernel(netlist)
        kernel = self._kernel

        cycles = 0
        with obs.section("sim.seq.grade"):
            full = (1 << (len(targets) + 1)) - 1
            and_masks = [full] * netlist.n_nets
            or_masks = [0] * netlist.n_nets
            for k, fault in enumerate(targets):
                lane = 2 << k  # bit 0 is the good machine
                if fault.stuck_at:
                    or_masks[fault.net] |= lane
                else:
                    and_masks[fault.net] &= ~lane
            inputs = [(seq, list(enumerate(netlist.buses[name])))
                      for name, seq in bus_sequences.items()]
            values = kernel.reset(full)
            all_lanes = full & ~1
            detected = 0
            for t in range(n_cycles):
                for seq, nets in inputs:
                    word = seq[t]
                    for i, net in nets:
                        values[net] = full if (word >> i) & 1 else 0
                kernel.step(values, and_masks, or_masks, full)
                cycles += 1
                diff = 0
                for out in netlist.outputs:
                    v = values[out]
                    diff |= v ^ (full if v & 1 else 0)
                new = diff & ~detected
                if new:
                    detected |= new
                    while new:
                        low = new & -new
                        first_detect[targets[low.bit_length() - 2]] = t
                        new ^= low
                    if stop_when_all_detected and detected == all_lanes:
                        break
                kernel.latch(values)
        obs.incr("sim.seq.faults_graded", len(targets))
        obs.incr("sim.seq.cycles", cycles)
        return SeqFaultResult(first_detect_cycle=first_detect, n_cycles=n_cycles)
