"""Pattern-parallel combinational simulation.

Net values are Python integers packing one bit per test pattern, so a single
gate evaluation computes the gate for every pattern at once.  The simulator
supports *forced nets* — nets whose computed value is overridden with a
constant pattern — which is the primitive that stuck-at fault injection is
built from.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.logic.gates import eval_gate
from repro.logic.netlist import Netlist


def pack_patterns(per_pattern_values: Sequence[int], bit_index: int) -> int:
    """Pack bit ``bit_index`` of each pattern value into one integer.

    ``per_pattern_values[k]`` is the word applied under pattern *k*; the
    result has bit *k* equal to bit ``bit_index`` of that word.
    """
    packed = 0
    for k, word in enumerate(per_pattern_values):
        if (word >> bit_index) & 1:
            packed |= 1 << k
    return packed


def unpack_output(packed_bits: Sequence[int], pattern: int) -> int:
    """Extract pattern ``pattern``'s word from packed per-net values."""
    word = 0
    for i, packed in enumerate(packed_bits):
        if (packed >> pattern) & 1:
            word |= 1 << i
    return word


class CombSimulator:
    """Evaluates the combinational portion of a netlist.

    DFF Q nets are treated as extra inputs supplied via ``state``; DFF D
    values appear in the returned value table like any other net.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.order = netlist.levelize()

    def run(
        self,
        inputs: Mapping[int, int],
        n_patterns: int = 1,
        state: Optional[Mapping[int, int]] = None,
        forced: Optional[Mapping[int, int]] = None,
    ) -> List[int]:
        """Evaluate all nets and return values indexed by net id.

        ``inputs`` maps primary-input net ids to packed pattern values;
        ``state`` maps DFF Q net ids to packed values (defaults to each
        DFF's ``init`` replicated over all patterns); ``forced`` overrides
        the computed value of any net (applied to sources immediately and to
        gate outputs as they are produced).
        """
        width_mask = (1 << n_patterns) - 1
        values: List[int] = [0] * self.netlist.n_nets
        for net in self.netlist.inputs:
            values[net] = inputs[net] & width_mask
        for dff in self.netlist.dffs:
            if state is not None and dff.q in state:
                values[dff.q] = state[dff.q] & width_mask
            else:
                values[dff.q] = width_mask if dff.init else 0
        if forced:
            for net, val in forced.items():
                values[net] = val & width_mask
        for gate in self.order:
            out = gate.output
            if forced and out in forced:
                continue  # already pinned
            values[out] = eval_gate(
                gate.kind,
                [values[i] for i in gate.inputs],
                width_mask,
            )
        return values

    def run_bus(
        self,
        bus_inputs: Mapping[str, Sequence[int]],
        n_patterns: int = 1,
        state: Optional[Mapping[int, int]] = None,
        forced: Optional[Mapping[int, int]] = None,
    ) -> Dict[str, List[int]]:
        """Like :meth:`run` but addressed by bus names.

        ``bus_inputs`` maps input bus names to per-pattern *words*; the
        result maps every declared bus name to per-pattern words.
        """
        packed: Dict[int, int] = {}
        for name, words in bus_inputs.items():
            nets = self.netlist.buses[name]
            if len(words) > n_patterns:
                raise ValueError(
                    f"bus {name!r}: {len(words)} words for {n_patterns} patterns"
                )
            for i, net in enumerate(nets):
                packed[net] = pack_patterns(words, i)
        values = self.run(packed, n_patterns, state=state, forced=forced)
        result: Dict[str, List[int]] = {}
        for name, nets in self.netlist.buses.items():
            bits = [values[n] for n in nets]
            result[name] = [unpack_output(bits, k) for k in range(n_patterns)]
        return result

    def evaluate_word(self, bus_inputs: Mapping[str, int],
                      state: Optional[Mapping[int, int]] = None) -> Dict[str, int]:
        """Single-pattern convenience: word in, word out per bus."""
        single = {name: [word] for name, word in bus_inputs.items()}
        result = self.run_bus(single, n_patterns=1, state=state)
        return {name: words[0] for name, words in result.items()}
