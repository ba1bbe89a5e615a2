"""Random-pattern-resistant fault identification.

Phase 3's third enhancement: "Some components may contain random resistant
faults, which still may not be detected after looping through the test
program a reasonable amount of times...  ATPG is used specifically on that
component to find which test patterns are needed."  This module finds
those faults; :class:`repro.atpg.podem.Podem` targets each one.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.faults.combsim import CombFaultSimulator
from repro.faults.model import Fault, collapse_faults
from repro.logic.netlist import Netlist


def find_random_resistant(
    netlist: Netlist,
    n_patterns: int = 4096,
    seed: int = 23,
) -> List[Fault]:
    """Faults of ``netlist`` not detected by ``n_patterns`` random patterns,
    drawn uniformly on every input bus."""
    rng = random.Random(seed)
    input_buses = [
        (name, nets) for name, nets in netlist.buses.items()
        if all(n in netlist.inputs for n in nets)
    ]
    sim = CombFaultSimulator(netlist, collapse_faults(netlist))
    block = 256
    blocks = []
    for start in range(0, n_patterns, block):
        count = min(block, n_patterns - start)
        words: Dict[str, List[int]] = {name: [] for name, _ in input_buses}
        for _ in range(count):
            for name, nets in input_buses:
                words[name].append(rng.randrange(1 << len(nets)))
        blocks.append(words)
    first = sim.run_with_dropping(blocks)
    return [f for f, t in first.items() if t is None]
