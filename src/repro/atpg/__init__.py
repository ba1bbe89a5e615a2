"""Automatic test pattern generation.

* :mod:`repro.atpg.podem` — classic PODEM over the project's netlists
  (3-valued dual-machine implication, objective/backtrace, backtrack
  limit).  Used component-level in Phase 3 and as the engine of the
  sequential baseline.
* :mod:`repro.atpg.unroll` — time-frame expansion of sequential netlists
  into combinational ones (the fault is replicated per frame).
* :mod:`repro.atpg.random_resistant` — identify faults that survive random
  patterns, for PODEM to target (the paper's Phase 3 enhancement).
"""

from repro.atpg.podem import Podem, PodemResult
from repro.atpg.unroll import unroll
from repro.atpg.random_resistant import find_random_resistant

__all__ = [
    "Podem",
    "PodemResult",
    "unroll",
    "find_random_resistant",
]
