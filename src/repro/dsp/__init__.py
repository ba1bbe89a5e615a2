"""The embedded DSP core under test.

Mirrors the industrial core of the paper's Section 3: a four-stage
pipelined RISC-style load/store DSP with a 17-bit instruction word, a
16×8-bit register file, a forwarding (temp) register, a stage-3 buffer, and
a MAC datapath with an 8×8 fixed-point multiplier (sign-extended to 18
bits), adder/subtracter, two 18-bit accumulators, an arithmetic shifter fed
back into the adder, a truncater and a limiter.

* :mod:`repro.dsp.isa` — instruction formats, opcode map, control word,
  assembler/disassembler.
* :mod:`repro.dsp.fixedpoint` — the 4.4 / 10.8 fixed-point interpretation.
* :mod:`repro.dsp.mac` — behavioural MAC datapath with per-component
  tracing and output-override (error injection) hooks.
* :mod:`repro.dsp.core` — the pipelined instruction-set simulator.
* :mod:`repro.dsp.components` — registry tying each traced component to
  its gate-level netlist and its control-bit modes (metrics-table columns).
* :mod:`repro.dsp.corespec` / :mod:`repro.dsp.family` — the core family:
  one validated design point, and its cached build context (the paper
  core is the default point).
* :mod:`repro.dsp.simple` — the small Fig. 1 datapath used by Table 1.
* :mod:`repro.dsp.gatelevel` — flat gate-level assembly of the whole core.
"""

from repro.dsp.isa import (
    Opcode,
    Instruction,
    assemble,
    disassemble,
    encode,
    decode,
)
from repro.dsp.core import DspCore, CoreState, StepResult
from repro.dsp.mac import MacDatapath
from repro.dsp.components import COMPONENTS, ComponentSpec, component_by_name

__all__ = [
    "Opcode",
    "Instruction",
    "assemble",
    "disassemble",
    "encode",
    "decode",
    "DspCore",
    "CoreState",
    "StepResult",
    "MacDatapath",
    "COMPONENTS",
    "ComponentSpec",
    "component_by_name",
]
