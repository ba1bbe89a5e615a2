"""Controllability measurement for the DSP core.

For every *instruction variant* — an opcode plus an assumed accumulator
state, "0" (zero) or "R" (random), exactly the paired rows of the paper's
Tables 1–2 — the engine executes the instruction many times on the
behavioural core with pseudorandom operand registers (the effect of the
``Load`` wrapper), collects each component's data-port values from the
execution trace, and estimates ``C`` per (component, mode) column.

Control ports (mux selects, add/sub select, shift mode, enables) are fixed
by the instruction's opcode; they define *which column* the sample belongs
to and are excluded from the entropy estimate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dsp.core import DspCore
from repro.dsp.family import PAPER_BUILD, CoreBuild
from repro.dsp.isa import Instruction, Opcode, encode
from repro.runtime.errors import ConfigError
from repro.runtime.rng import RngFactory, resolve_factory

#: Ports fixed by the opcode's control bits — never part of the entropy.
CONTROL_PORTS = frozenset({"sel", "sub", "en", "mode", "q", "addr"})

#: Default operand register assignment for measured instructions; the
#: actual register identities are immaterial (LFSR2 masks them at runtime).
_REGA, _REGB, _DEST = 0, 1, 2

_NOP_WORD = encode(Instruction(Opcode.NOP))


@dataclass(frozen=True)
class InstructionVariant:
    """One metrics-table row: opcode + assumed accumulator state."""

    opcode: Opcode
    acc_state: str  # "0" or "R"

    def __post_init__(self):
        if self.acc_state not in ("0", "R"):
            raise ConfigError(f"acc_state must be '0' or 'R', "
                              f"got {self.acc_state!r}")

    @property
    def label(self) -> str:
        """Row label in the paper's style, e.g. ``Mac+R`` / ``mpy``."""
        pretty = {
            Opcode.LDI: "load", Opcode.OUT: "Out", Opcode.MOV: "mov",
            Opcode.OUTA: "OutrA", Opcode.OUTB: "OutrB",
            Opcode.MPYA: "MpyA", Opcode.MPYB: "MpyB",
            Opcode.MPYTA: "MpytA", Opcode.MPYTB: "MpytB",
            Opcode.MACA_ADD: "MacA+", Opcode.MACB_ADD: "MacB+",
            Opcode.MACA_SUB: "MacA-", Opcode.MACB_SUB: "MacB-",
            Opcode.MACTA_ADD: "MactA+", Opcode.MACTB_ADD: "MactB+",
            Opcode.MACTA_SUB: "MactA-", Opcode.MACTB_SUB: "MactB-",
            Opcode.SHIFTA: "ShiftA", Opcode.SHIFTB: "ShiftB",
            Opcode.MPYSHIFTA: "MpyshiftA", Opcode.MPYSHIFTB: "MpyshiftB",
            Opcode.MPYSHIFTMACA: "MpyshiftmacA",
            Opcode.MPYSHIFTMACB: "MpyshiftmacB",
        }
        base = pretty.get(self.opcode, self.opcode.name)
        return base + ("R" if self.acc_state == "R" else "")

    def instruction(self, rng: Optional[random.Random] = None) -> Instruction:
        """A concrete instruction for this variant (random imm for loads)."""
        if self.opcode is Opcode.LDI:
            imm = rng.randrange(256) if rng is not None else 0
            return Instruction(self.opcode, imm=imm, dest=_DEST)
        if self.opcode is Opcode.OUT:
            return Instruction(self.opcode, regb=_REGB)
        if self.opcode in (Opcode.OUTA, Opcode.OUTB, Opcode.NOP):
            return Instruction(self.opcode)
        if self.opcode is Opcode.MOV:
            return Instruction(self.opcode, regb=_REGB, dest=_DEST)
        return Instruction(self.opcode, rega=_REGA, regb=_REGB, dest=_DEST)


def default_variants() -> List[InstructionVariant]:
    """The row set of the paper's Table 2 (A and B forms)."""
    families = [
        Opcode.LDI, Opcode.MPYA, Opcode.MPYTA,
        Opcode.MACA_ADD, Opcode.MACA_SUB, Opcode.MACTA_ADD, Opcode.MACTA_SUB,
        Opcode.SHIFTA, Opcode.MPYSHIFTA, Opcode.MPYSHIFTMACA,
        Opcode.OUT, Opcode.OUTA, Opcode.MOV,
        Opcode.MPYB, Opcode.MPYTB,
        Opcode.MACB_ADD, Opcode.MACB_SUB,
        Opcode.MACTB_ADD, Opcode.MACTB_SUB,
        Opcode.SHIFTB, Opcode.MPYSHIFTB, Opcode.MPYSHIFTMACB,
        Opcode.OUTB,
    ]
    variants = []
    for op in families:
        variants.append(InstructionVariant(op, "0"))
        variants.append(InstructionVariant(op, "R"))
    return variants


def prepare_core(variant: InstructionVariant, rng: random.Random,
                 build: CoreBuild = PAPER_BUILD) -> DspCore:
    """A core with random registers and the variant's accumulator state.

    Random registers model the effect of the preceding ``ld rnd`` wrapper
    instructions; the accumulator state models the randomisation sequences
    Phase 2 inserts before 'R' rows.  The draws use the ``build``'s
    widths.
    """
    core = build.make_core()
    reg_lim = 1 << build.spec.operand_width
    acc_lim = 1 << build.spec.acc_width
    core.state.regs = [rng.randrange(reg_lim)
                       for _ in range(build.spec.n_registers)]
    if variant.acc_state == "R":
        core.state.acc_a = rng.randrange(acc_lim)
        core.state.acc_b = rng.randrange(acc_lim)
    return core


def trace_variant(variant: InstructionVariant, rng: random.Random,
                  build: CoreBuild = PAPER_BUILD) -> List[Dict]:
    """Execute the variant once; returns per-cycle traces.

    Cycle 0 fetches the instruction, so on the paper core its ID-stage
    activity (decoder, register reads) is in ``traces[1]`` and its
    EX-stage activity (MAC components, MacReg/buffer/MUX7/temp) in
    ``traces[2]``; 3-deep family cores shift each offset down by one
    (see :func:`component_cycle`).
    """
    core = prepare_core(variant, rng, build)
    words = [encode(variant.instruction(rng))]
    words += [_NOP_WORD] * 4
    traces: List[Dict] = []
    for word in words:
        trace: Dict = {}
        core.step(word, trace=trace)
        traces.append(trace)
    return traces


#: Pipeline stage (cycle offset after fetch) where each component processes
#: the measured instruction (paper core offsets).
ID_STAGE_COMPONENTS = frozenset({"decoder", "regread_a", "regread_b"})
WB_STAGE_COMPONENTS = frozenset({"mux7"})


def component_cycle(name: str, build: CoreBuild = PAPER_BUILD) -> int:
    """Cycle offset (after fetch) at which ``name`` sees the instruction."""
    if name in ID_STAGE_COMPONENTS:
        return build.id_cycle
    if name in WB_STAGE_COMPONENTS:
        return build.id_cycle + 2
    return build.id_cycle + 1


class ControllabilityEngine:
    """Estimates C for every (component, mode) column, per variant."""

    def __init__(self, n_samples: int = 200, seed: int = 2004,
                 rng_factory: Optional[RngFactory] = None,
                 build: CoreBuild = PAPER_BUILD):
        if n_samples < 2:
            raise ConfigError("need at least 2 samples")
        self.n_samples = n_samples
        self.seed = seed
        self.build = build
        # Injected label->Random factory; the default derives one
        # independent stream per variant from the seed, so measuring
        # any subset of rows (or resuming a campaign) replays exactly.
        self.rng_factory = resolve_factory(seed, rng_factory)

    def measure(self, variant: InstructionVariant) -> Dict[Tuple[str, int], float]:
        """Controllability per (component, mode) column for ``variant``.

        Only columns whose mode the variant actually exercises appear in
        the result.
        """
        from repro.metrics.entropy import (
            combine_independent,
            controllability_from_samples,
        )

        rng = self.rng_factory(variant.label)
        components = self.build.components
        port_samples: Dict[Tuple[str, int], Dict[str, List[int]]] = {}
        for _ in range(self.n_samples):
            traces = trace_variant(variant, rng, build=self.build)
            for spec in components:
                cycle = component_cycle(spec.name, self.build)
                activity = traces[cycle].get(spec.name)
                if activity is None:
                    continue
                key = (spec.name, activity.mode)
                ports = port_samples.setdefault(key, {})
                for port_name, value in activity.inputs.items():
                    if port_name in CONTROL_PORTS or \
                            port_name in spec.tied_ports:
                        continue
                    ports.setdefault(port_name, []).append(value)

        result: Dict[Tuple[str, int], float] = {}
        widths = {
            spec.name: dict(spec.input_ports) for spec in components
        }
        for key, ports in port_samples.items():
            component = key[0]
            contributions = []
            for port_name, samples in ports.items():
                width = widths[component].get(port_name)
                if width is None:
                    continue
                c = controllability_from_samples(samples, width)
                contributions.append((c, width))
            if contributions:
                result[key] = combine_independent(contributions)
        return result
