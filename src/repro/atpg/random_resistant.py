"""Random-pattern-resistant fault identification.

Phase 3's third enhancement: "Some components may contain random resistant
faults, which still may not be detected after looping through the test
program a reasonable amount of times...  ATPG is used specifically on that
component to find which test patterns are needed."  This module finds
those faults; :class:`repro.atpg.podem.Podem` targets each one.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.faults.combsim import CombFaultSimulator
from repro.faults.model import Fault, collapse_faults
from repro.logic.netlist import Netlist


def find_random_resistant(
    netlist: Netlist,
    n_patterns: int = 4096,
    seed: int = 23,
    pattern_sampler=None,
    rng: Optional[random.Random] = None,
) -> List[Fault]:
    """Faults of ``netlist`` not detected by ``n_patterns`` random patterns.

    ``pattern_sampler(rng) -> {bus: word}`` customises the distribution
    (e.g. restricting control modes); default is uniform on every input
    bus.  ``rng`` overrides the default seed-derived stream.
    """
    rng = rng if rng is not None else random.Random(seed)
    input_buses = [
        (name, nets) for name, nets in netlist.buses.items()
        if all(n in netlist.inputs for n in nets)
    ]

    def default_sampler(r):
        return {name: r.randrange(1 << len(nets))
                for name, nets in input_buses}

    sampler = pattern_sampler or default_sampler
    sim = CombFaultSimulator(netlist, collapse_faults(netlist))
    block = 256
    blocks = []
    for start in range(0, n_patterns, block):
        count = min(block, n_patterns - start)
        words: Dict[str, List[int]] = {name: [] for name, _ in input_buses}
        for _ in range(count):
            sample = sampler(rng)
            for name, _nets in input_buses:
                words[name].append(sample[name])
        blocks.append(words)
    first = sim.run_with_dropping(blocks)
    return [f for f, t in first.items() if t is None]
