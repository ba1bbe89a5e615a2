"""One design point of the DSP core family, as a frozen, validated value.

:class:`CoreSpec` names a point — register-file size, operand and
accumulator width, pipeline depth, shifter and adder style, optional
truncater and limiter — and :meth:`CoreSpec.validate` rejects illegal
combinations with a :class:`~repro.runtime.errors.ConfigError` before
anything is built.  ``CoreSpec()`` is the paper core.  The per-point
control words live here too, because both the component registry
(:mod:`repro.dsp.components`) and the build context
(:mod:`repro.dsp.family`) derive from them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.dsp.isa import ControlWord, Opcode, control_word
from repro.rtl.arith import ADDER_STYLES
from repro.runtime.errors import ConfigError


#: Legal axis values.  Register files must be a power of two (the address
#: decoder is a binary tree); operand widths keep the n.n fixed-point
#: split of the paper; depth 3 drops the IF/ID latch, depth 5 registers
#: the output port.
N_REGISTERS_CHOICES = (4, 8, 16)
OPERAND_WIDTH_CHOICES = (4, 6, 8)
PIPELINE_DEPTH_CHOICES = (3, 4, 5)
SHIFTER_STYLES = ("barrel", "dedicated")

#: Shift-amount field width (low bits of operand A) — fixed by the ISA.
AMT_WIDTH = 4


@dataclass(frozen=True)
class CoreSpec:
    """One validated point of the core family.

    The defaults are the paper core, so ``CoreSpec()`` ==
    ``CoreSpec.paper()``.
    """

    n_registers: int = 16
    operand_width: int = 8
    acc_width: int = 18
    pipeline_depth: int = 4
    shifter: str = "barrel"
    adder: str = "ripple"
    has_truncater: bool = True
    has_limiter: bool = True

    # ------------------------------------------------------------------
    @staticmethod
    def paper() -> "CoreSpec":
        """The paper core."""
        return CoreSpec()

    @property
    def is_paper(self) -> bool:
        """Only outside artifacts need this: the paper netlist keeps the
        name ``dsp_core`` and campaign fingerprints omit its label."""
        return self == CoreSpec.paper()

    # Derived fixed-point geometry: operands are w/2.w/2 (rounding the
    # fraction down for odd widths), accumulators keep twice the operand
    # fraction, exactly generalising the paper's 4.4 / 10.8 formats.
    @property
    def operand_frac(self) -> int:
        return self.operand_width // 2

    @property
    def acc_frac(self) -> int:
        return self.operand_width

    @property
    def frac_drop(self) -> int:
        """Low accumulator bits the limiter window discards."""
        return self.acc_frac - self.operand_frac

    @property
    def addr_bits(self) -> int:
        return (self.n_registers - 1).bit_length()

    # ------------------------------------------------------------------
    def validate(self) -> "CoreSpec":
        """Raise :class:`ConfigError` unless the spec is buildable."""
        if self.n_registers not in N_REGISTERS_CHOICES:
            raise ConfigError(
                f"n_registers must be one of {N_REGISTERS_CHOICES}, "
                f"got {self.n_registers}")
        if self.operand_width not in OPERAND_WIDTH_CHOICES:
            raise ConfigError(
                f"operand_width must be one of {OPERAND_WIDTH_CHOICES}, "
                f"got {self.operand_width}")
        # The multiplier sign-extends its 2w-bit product to the
        # accumulator; the paper core keeps two guard bits above it.
        min_acc = 2 * self.operand_width + 2
        if not min_acc <= self.acc_width <= 32:
            raise ConfigError(
                f"acc_width {self.acc_width} outside [{min_acc}, 32] for "
                f"{self.operand_width}-bit operands (the accumulator must "
                "hold the sign-extended MAC product plus guard bits)")
        if self.pipeline_depth not in PIPELINE_DEPTH_CHOICES:
            raise ConfigError(
                f"pipeline_depth must be one of {PIPELINE_DEPTH_CHOICES}, "
                f"got {self.pipeline_depth}")
        if self.shifter not in SHIFTER_STYLES:
            raise ConfigError(
                f"shifter must be one of {SHIFTER_STYLES}, "
                f"got {self.shifter!r}")
        if self.adder not in ADDER_STYLES:
            raise ConfigError(
                f"adder must be one of {ADDER_STYLES}, got {self.adder!r}")
        if not isinstance(self.has_truncater, bool):
            raise ConfigError("has_truncater must be a bool")
        if not isinstance(self.has_limiter, bool):
            raise ConfigError("has_limiter must be a bool")
        return self

    # ------------------------------------------------------------------
    def label(self) -> str:
        """Compact human-readable tag, e.g. ``r16.w8.a18.d4.barrel.ripple``."""
        parts = [
            f"r{self.n_registers}", f"w{self.operand_width}",
            f"a{self.acc_width}", f"d{self.pipeline_depth}",
            self.shifter, self.adder,
        ]
        if not self.has_truncater:
            parts.append("notrunc")
        if not self.has_limiter:
            parts.append("nolimit")
        return ".".join(parts)

    def to_doc(self) -> Dict[str, object]:
        """JSON-serialisable form (replayable artifacts, sweep rows)."""
        return {
            "n_registers": self.n_registers,
            "operand_width": self.operand_width,
            "acc_width": self.acc_width,
            "pipeline_depth": self.pipeline_depth,
            "shifter": self.shifter,
            "adder": self.adder,
            "has_truncater": self.has_truncater,
            "has_limiter": self.has_limiter,
        }

    @staticmethod
    def from_doc(doc: Dict[str, object]) -> "CoreSpec":
        """Rebuild a spec from :meth:`to_doc` output (validated)."""
        return CoreSpec(**doc).validate()


#: The paper core's spec.
PAPER_SPEC = CoreSpec.paper()


def control_word_for(spec: CoreSpec, opcode: Opcode) -> ControlWord:
    """The control word of ``opcode`` on this family point.

    Without a truncater, the decoder's truncate column is tied low — the
    control bit exists in the word format but nothing reads it.
    """
    cw = control_word(opcode)
    if not spec.has_truncater and cw.trunc:
        cw = replace(cw, trunc=0)
    return cw


def decoder_truth_table_for(spec: CoreSpec) -> Dict[int, int]:
    """Opcode value → packed control word for this family point."""
    return {int(op): control_word_for(spec, op).pack() for op in Opcode}
