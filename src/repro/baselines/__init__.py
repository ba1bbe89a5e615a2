"""Comparison baselines from the paper's §3.5.

* :mod:`repro.baselines.pseudorandom` — plain pseudorandom BIST: a 17-bit
  LFSR drives raw instruction-word vectors into the core ("the LFSR does
  not take into account the core's present state or the core's behavior").
* :mod:`repro.baselines.atpg_baseline` — whole-core sequential ATPG via
  time-frame expansion, the approach that collapses on a pipelined core
  (the paper measured 8.51% fault coverage with Tetramax).
"""

from repro.baselines.pseudorandom import pseudorandom_bist_words
from repro.baselines.atpg_baseline import AtpgBaseline, AtpgBaselineResult

__all__ = [
    "pseudorandom_bist_words",
    "AtpgBaseline",
    "AtpgBaselineResult",
]
