"""Self-test program generation (paper Sections 2.3–2.4 and 3.3–3.4).

* :mod:`repro.selftest.program` — the test-program IR: annotated template
  lines (who covers what, loop vs one-shot), Fig. 7-style rendering, and
  conversion to the runtime template architecture.
* :mod:`repro.selftest.phase1` — global coverage: greedy set cover over
  the metrics table after removing wrapper-covered columns.
* :mod:`repro.selftest.phase2` — specific coverage: observation/
  randomisation sequences for the leftovers, and elimination of columns
  whose control-bit mode no instruction can produce.
* :mod:`repro.selftest.phase3` — gate-level enhancements: control-bit
  constraint analysis, execution-frequency boosting, and ATPG one-shots
  for random-resistant faults.
* :mod:`repro.selftest.generator` — end-to-end flow (the paper's Fig. 3).
* :mod:`repro.selftest.vectors` — the "Perl script": expand the looped
  program + LFSR streams into concrete test vectors and MISR signatures.
"""

from repro.selftest.program import ProgramLine, TestProgram
from repro.selftest.phase1 import Phase1Result, run_phase1
from repro.selftest.phase2 import Phase2Result, run_phase2
from repro.selftest.generator import SelfTestGenerator, GeneratedSelfTest
from repro.selftest.vectors import expand_program, run_with_misr

__all__ = [
    "ProgramLine",
    "TestProgram",
    "Phase1Result",
    "run_phase1",
    "Phase2Result",
    "run_phase2",
    "SelfTestGenerator",
    "GeneratedSelfTest",
    "expand_program",
    "run_with_misr",
]
