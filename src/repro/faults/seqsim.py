"""Fault-parallel sequential fault simulation.

Grades every target fault in one pass: each net value packs one machine
per bit (a *lane*) — bit 0 is the fault-free machine, bit ``k + 1`` the
machine carrying target fault *k*.  All lanes step through the input
sequence together on one compiled forcing kernel
(:class:`~repro.logic.compiled.CompiledForcingKernel`) that forces only
the targets' sites, and whose per-net masks pin each stuck net in its own
lane, so faulty state evolves naturally through the flip-flops.  A fault
is detected the first cycle any primary output bit of its lane differs
from the good machine's.

Detected lanes are dropped as the stream goes on: every
:data:`WINDOW` cycles the grader counts its live lanes, and once at most
half are live, with at least :data:`REPACK_MIN_CYCLES` cycles still to
go, it *repacks* — it gathers the good lane and the survivors' DFF Q
lanes into a narrower lane set and compiles a kernel that forces the
survivors' sites only.  Only the flip-flops carry state from one cycle
to the next, so the repacked machines continue exactly where they were.

This is the exact flat grader: the simple Fig. 1 datapath, individual
components, the whole gate-level DSP core, and the cross-validation of
the hierarchical core simulator all run through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro import obs
from repro.logic.compiled import CompiledForcingKernel
from repro.logic.netlist import Netlist
from repro.faults.model import (
    Fault, FaultList, _fault_sites, check_stimulus, collapse_faults,
)
from repro.runtime.errors import ConfigError

#: Cycles stepped between two counts of the live lanes.
WINDOW = 64
#: Fewest cycles that must remain at a window boundary for a repack: the
#: narrower kernel must step long enough to pay back its compile.  On
#: the flat core a kernel compiles in 80-150 ms, and halving its full
#: universe (4,737 to 2,368 lanes) saves 1.4 ms a cycle, so that repack
#: pays back in ~90 cycles; later, narrower ones save less per cycle.
REPACK_MIN_CYCLES = 256


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


def _sites(faults: Sequence[Fault]) -> Dict[int, Set[int]]:
    """net -> the stuck-at polarities ``faults`` put on it."""
    sites: Dict[int, Set[int]] = {}
    for fault in faults:
        sites.setdefault(fault.net, set()).add(fault.stuck_at)
    return sites


def _masks(n_nets: int, lanes: Sequence[Fault],
           full: int) -> Tuple[List[int], List[int]]:
    """The forcing kernel's ``A`` and ``O`` lists for one lane set."""
    and_masks = [full] * n_nets
    or_masks = [0] * n_nets
    for k, fault in enumerate(lanes):
        lane = 2 << k  # bit 0 is the good machine
        if fault.stuck_at:
            or_masks[fault.net] |= lane
        else:
            and_masks[fault.net] &= ~lane
    return and_masks, or_masks


class SeqFaultSimulator:
    """Grades stuck-at faults of a sequential netlist against a stimulus.

    The forcing kernel compiles on the first :meth:`run_sequence`, not at
    construction, for that call's fault sites.  A later call on the same
    instance reuses it whenever its sites cover the new targets (E5's
    random phase re-grades a shrinking survivor set this way); the
    narrower kernels of a repack live only for the call that made them.
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
    ) -> SeqFaultResult:
        """Apply per-cycle word stimulus and grade ``faults`` against it.

        ``bus_sequences`` maps input bus names to one word per cycle; the
        buses must consist of primary inputs and together drive all of
        them.  ``faults`` defaults to the simulator's fault list.  The run
        stops early once every fault is detected.
        """
        netlist = self.netlist
        targets = list(faults if faults is not None else self.fault_list.faults)
        n_cycles = check_stimulus(netlist, bus_sequences)
        self._check_faults(targets)
        first_detect: Dict[Fault, Optional[int]] = {f: None for f in targets}
        if not targets:
            return SeqFaultResult(first_detect_cycle=first_detect,
                                  n_cycles=n_cycles)
        sites = _sites(targets)
        if self._kernel is None or not self._kernel.covers(sites):
            with obs.section("sim.seq.compile"):
                self._kernel = CompiledForcingKernel(netlist, sites)
        kernel = self._kernel

        cycles = 0
        with obs.section("sim.seq.grade"):
            lanes = targets  # lanes[k] is the fault in lane k + 1
            full = (1 << (len(lanes) + 1)) - 1
            and_masks, or_masks = _masks(netlist.n_nets, lanes, full)
            inputs = [(seq, list(enumerate(netlist.buses[name])))
                      for name, seq in bus_sequences.items()]
            values = kernel.reset(full)
            detected = 0
            for t in range(n_cycles):
                # At most half the lanes live, and time left to pay back.
                if t % WINDOW == 0 and n_cycles - t >= REPACK_MIN_CYCLES \
                        and 2 * bin(detected).count("1") >= len(lanes):
                    with obs.section("sim.seq.repack"):
                        keep = [0] + [k + 1 for k in range(len(lanes))
                                      if not detected >> (k + 1) & 1]
                        values = self._repack(values, keep, len(lanes) + 1)
                        lanes = [lanes[lane - 1] for lane in keep[1:]]
                        full = (1 << (len(lanes) + 1)) - 1
                        and_masks, or_masks = _masks(netlist.n_nets, lanes,
                                                     full)
                        kernel = CompiledForcingKernel(netlist, _sites(lanes))
                        detected = 0
                    obs.incr("sim.seq.repacks")
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
                        first_detect[lanes[low.bit_length() - 2]] = t
                        new ^= low
                    if detected == full & ~1:
                        break
                kernel.latch(values)
        obs.incr("sim.seq.faults_graded", len(targets))
        obs.incr("sim.seq.cycles", cycles)
        return SeqFaultResult(first_detect_cycle=first_detect, n_cycles=n_cycles)

    def _repack(self, values: List[int], keep: Sequence[int],
                width: int) -> List[int]:
        """A value list over the lanes ``keep`` (ascending, the good lane
        0 first) of a ``width``-lane value list, renumbered from 0.

        Only the DFF Qs carry over: every other net is loaded or
        recomputed before it is next read.
        """
        # A binary string lists the highest lane first.
        pick = itemgetter(*[width - 1 - lane for lane in reversed(keep)])
        narrow = [0] * len(values)
        for dff in self.netlist.dffs:
            v = values[dff.q]
            if v:
                narrow[dff.q] = int("".join(pick(format(v, f"0{width}b"))), 2)
        return narrow
