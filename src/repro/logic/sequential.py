"""Cycle-based sequential simulation.

Drives a netlist's combinational logic once per clock cycle and then
advances every D flip-flop.  Values are pattern-parallel like the
combinational simulator, which lets callers run several *independent
sequences* side by side (one per packed bit).  The fault-parallel grader in
:mod:`repro.faults.seqsim` packs its fault machines the same way but steps
them through :class:`~repro.logic.compiled.CompiledForcingKernel`; the
``forced`` path here is its one-fault-at-a-time test reference.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.logic.netlist import Netlist
from repro.logic.simulator import CombSimulator, unpack_output
from repro.runtime.errors import ConfigError


class SequentialSimulator:
    """Steps a sequential netlist cycle by cycle.

    The flip-flop state lives inside the simulator; :meth:`reset` returns it
    to each DFF's declared ``init`` value.
    """

    def __init__(self, netlist: Netlist, n_patterns: int = 1):
        from repro.runtime.cache import compiled_evaluator
        self.netlist = netlist
        self.comb = CombSimulator(netlist)
        # Unforced cycles run through the shared compiled evaluator
        # (fetched from the structural-hash cache, so many simulator
        # instances over identical netlists compile once); forcing falls
        # back to the interpreted simulator, which pins nets mid-graph.
        self._compiled = compiled_evaluator(netlist)
        self.n_patterns = n_patterns
        self._mask = (1 << n_patterns) - 1
        self.state: Dict[int, int] = {}
        self.reset()

    def reset(self) -> None:
        """Load every DFF with its ``init`` value (replicated per pattern)."""
        self.state = {
            dff.q: (self._mask if dff.init else 0) for dff in self.netlist.dffs
        }

    def step(
        self,
        inputs: Mapping[int, int],
        forced: Optional[Mapping[int, int]] = None,
    ) -> List[int]:
        """Run one clock cycle; returns all net values *before* the edge.

        ``forced`` pins nets for this cycle only (fault injection); forced
        DFF Q nets stay forced across the clock edge, i.e. a stuck state bit
        remains stuck.
        """
        if forced:
            values = self.comb.run(inputs, self.n_patterns, state=self.state,
                                   forced=forced)
        else:
            values = self._compiled.run(inputs, self.n_patterns,
                                        state=self.state)
        for dff in self.netlist.dffs:
            new = values[dff.d]
            if forced and dff.q in forced:
                new = forced[dff.q] & self._mask
            self.state[dff.q] = new
        return values

    def step_bus(
        self,
        bus_inputs: Mapping[str, int],
        forced: Optional[Mapping[int, int]] = None,
    ) -> Dict[str, int]:
        """Single-pattern convenience: step with word inputs, word outputs."""
        packed: Dict[int, int] = {}
        for name, word in bus_inputs.items():
            for i, net in enumerate(self.netlist.buses[name]):
                packed[net] = (word >> i) & 1
        values = self.step(packed, forced=forced)
        out: Dict[str, int] = {}
        for name, nets in self.netlist.buses.items():
            out[name] = unpack_output([values[n] for n in nets], 0)
        return out

    def run_sequence(
        self,
        bus_sequences: Mapping[str, Sequence[int]],
        output_bus: str,
        forced: Optional[Mapping[int, int]] = None,
    ) -> List[int]:
        """Apply per-cycle word inputs and collect one output bus per cycle."""
        lengths = {len(seq) for seq in bus_sequences.values()}
        if len(lengths) != 1:
            raise ConfigError("all input sequences must have equal length")
        n_cycles = lengths.pop()
        outputs: List[int] = []
        for t in range(n_cycles):
            step_inputs = {name: seq[t] for name, seq in bus_sequences.items()}
            values = self.step_bus(step_inputs, forced=forced)
            outputs.append(values[output_bus])
        return outputs
