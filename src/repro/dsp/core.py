"""Behavioural instruction-set simulator of the four-stage pipelined core.

Pipeline (paper Fig. 6)::

    IF ──► ID (decode, register read, forwarding) ──► EX (MAC / buffer)
       ──► WB (register write, output port)

Hazard handling follows the paper: read-after-write hazards are resolved
with forwarding through a temporary register — a distance-1 producer is
bypassed combinationally from the EX stage, a distance-2 producer through
the ``temp`` register that latches each EX result; distance-3 producers
have already written the register file.

Stage 3 holds the ``buffer`` used by ``ld``/``out``/``mov``; MAC results go
through ``MacReg``.  ``MUX7`` selects between them for write-back and the
8-bit output port.

Like the MAC datapath, every traced component's output can be overridden
for a cycle (error injection), and persistent stuck bits can be applied to
any architectural state element (used for word-level register fault
simulation).  A step runs one path whether or not a hook is armed.  A
component's hook site is armed when a trace is armed or the component's
own name is overridden, and only an armed site builds its trace/override
inputs: a plain step pays for no hook, and a one-component injection for
that component's hook alone.  The decoder's control word is packed only
when the decoder is traced or overridden, and unpacked only when it is
overridden: otherwise the ID/EX latch holds the control table's object.

The pipeline latches and step results are values: no code assigns to
their fields after construction, so :meth:`CoreState.copy` shares the
latches, and a step returns a pre-built :class:`StepResult`.

A :class:`~repro.dsp.family.CoreBuild` sets the widths, register count
and pipeline depth of the simulated family point; the default is the
paper core described above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple

from repro._util import mask
from repro.dsp.family import PAPER_BUILD, CoreBuild
from repro.dsp.isa import (
    INSTRUCTION_WIDTH,
    ControlWord,
    Instruction,
    N_REGISTERS,
    Opcode,
    decode,
)
from repro.dsp.mac import (
    NO_OVERRIDES,
    MacDatapath,
    Overrides,
    Trace,
    apply_hooks,
)
from repro.runtime.errors import ConfigError

_WORD_MASK = mask(INSTRUCTION_WIDTH)

#: The one-word state elements a key ``(name,)`` names; ``("reg", i)``
#: names register ``i``.
_WORD_ELEMENTS = frozenset({"acc_a", "acc_b", "macreg", "buffer", "temp"})


@dataclass
class IdEx:
    """ID/EX pipeline latch: decoded instruction plus fetched operands."""

    __slots__ = ("instr", "ctrl", "opa", "opb")

    instr: Instruction
    ctrl: ControlWord
    opa: int
    opb: int


@dataclass
class ExWb:
    """EX/WB pipeline latch.

    Carries only the instruction and its controls — the data travels in
    the architectural MacReg and buffer registers, which MUX7 reads in WB.
    """

    __slots__ = ("instr", "ctrl")

    instr: Instruction
    ctrl: ControlWord


@dataclass
class CoreState:
    """Complete architectural + pipeline state of the core."""

    regs: List[int] = field(default_factory=lambda: [0] * N_REGISTERS)
    acc_a: int = 0
    acc_b: int = 0
    temp: int = 0
    macreg: int = 0
    buffer: int = 0
    if_id: Optional[int] = None
    id_ex: Optional[IdEx] = None
    ex_wb: Optional[ExWb] = None
    #: Registered output port of 5-deep family cores: ``(valid, value)``.
    out_latch: Tuple[int, int] = (0, 0)

    def copy(self) -> "CoreState":
        """A state that steps independently of this one.

        Only the register file is copied: a step replaces the latches
        and never assigns to their fields, so the copy shares them.
        """
        return CoreState(list(self.regs), self.acc_a, self.acc_b, self.temp,
                         self.macreg, self.buffer, self.if_id, self.id_ex,
                         self.ex_wb, self.out_latch)

    def read(self, key: Tuple) -> int:
        """The state element named by ``key`` (see :data:`StuckBits`)."""
        name = key[0]
        if name == "reg":
            return self.regs[key[1]]
        if name not in _WORD_ELEMENTS:
            raise ConfigError(f"unknown state element {key!r}")
        return getattr(self, name)

    def write(self, key: Tuple, value: int) -> None:
        """Store ``value`` in the state element named by ``key``."""
        name = key[0]
        if name == "reg":
            self.regs[key[1]] = value
        elif name in _WORD_ELEMENTS:
            setattr(self, name, value)
        else:
            raise ConfigError(f"unknown state element {key!r}")


@dataclass(frozen=True)
class StepResult:
    """Externally visible outcome of one clock cycle."""

    __slots__ = ("out_valid", "out_value")

    out_valid: bool
    out_value: int  # 8-bit output port (0 when not driven)

    @property
    def port(self) -> int:
        """The raw output port value (what a MISR would compact)."""
        return self.out_value if self.out_valid else 0

    def __reduce__(self):
        # pickle and copy restore __slots__ by assignment, which a frozen
        # dataclass refuses; rebuild through __init__ instead.
        return StepResult, (self.out_valid, self.out_value)


#: Every outcome a step can have, ``_STEP_RESULTS[out_valid][out_value]``:
#: the port is masked to the operand width, at most 8 bits.
_STEP_RESULTS = tuple(
    tuple(StepResult(bool(valid), value) for value in range(256))
    for valid in (0, 1))


#: State elements addressable by stuck-bit injection: ``("reg", i)``,
#: ``("acc_a",)``, ``("acc_b",)``, ``("macreg",)``, ``("buffer",)``,
#: ``("temp",)``.
StuckBits = Mapping[Tuple, Tuple[int, int]]


class DspCore:
    """The pipelined DSP core.

    ``stuck_bits`` maps state-element keys to ``(and_mask, or_mask)`` pairs
    applied after every cycle (and at construction), modelling stuck-at
    faults in storage elements.

    ``build`` (a :class:`repro.dsp.family.CoreBuild`) selects the family
    point; the default is the paper core.
    """

    def __init__(self, state: Optional[CoreState] = None,
                 stuck_bits: Optional[StuckBits] = None,
                 build: CoreBuild = PAPER_BUILD):
        self.build = build
        self._mac_params = build.mac_params
        self._reg_mask = build.operand_mask
        self._acc_mask = build.acc_mask
        self._addr_mask = build.spec.n_registers - 1
        self._depth = build.spec.pipeline_depth
        self._drain = build.drain_length
        self._control_words = build.control_words
        if state is not None:
            self.state = state
        else:
            self.state = CoreState(regs=[0] * build.spec.n_registers)
        self.stuck_bits = dict(stuck_bits) if stuck_bits else {}
        if self.stuck_bits:
            self._apply_stuck_bits()

    # ------------------------------------------------------------------
    def _apply_stuck_bits(self) -> None:
        s = self.state
        for key, (and_mask, or_mask) in self.stuck_bits.items():
            s.write(key, (s.read(key) & and_mask) | or_mask)

    # ------------------------------------------------------------------
    def step(self, instr_word: int,
             overrides: Optional[Overrides] = None,
             trace: Optional[Trace] = None) -> StepResult:
        """Advance the core by one clock cycle, fetching ``instr_word``.

        A hook site is armed when ``trace`` is armed or its component is
        in ``overrides``.  Armed hooks fire in pipeline order: MUX7, the
        MAC, MacReg, buffer, decoder, both register reads, temp.
        """
        s = self.state
        traced = trace is not None
        if overrides is None:
            overrides = NO_OVERRIDES
        reg_mask = self._reg_mask
        addr_mask = self._addr_mask

        # ---------------- WB stage (uses ex_wb latch) -----------------
        # MUX7 reads the *stored* MacReg/buffer values, i.e. the values the
        # WB-stage instruction latched when it was in EX — before this
        # cycle's EX stage overwrites them.
        out_valid = False
        out_value = 0
        wb = s.ex_wb
        wb_value = 0
        wb_dest: Optional[int] = None   # register WB writes this cycle
        if wb is not None:
            sel = wb.ctrl.mux7_buffer
            wb_value = s.buffer if sel else s.macreg
            if traced or "mux7" in overrides:
                wb_value = apply_hooks(
                    "mux7", {"a": s.macreg, "b": s.buffer, "sel": sel},
                    wb_value, overrides, trace, sel)
            wb_value &= reg_mask
            if wb.ctrl.out_en:
                out_valid = True
                out_value = wb_value
            if wb.ctrl.reg_we:
                wb_dest = wb.instr.dest & addr_mask

        # ---------------- EX stage (uses id_ex latch) -----------------
        new_ex_wb: Optional[ExWb] = None
        ex_bypass: Optional[Tuple[int, int]] = None  # (dest, value)
        if s.id_ex is not None:
            stage = s.id_ex
            ctrl = stage.ctrl
            mac = MacDatapath.evaluate(stage.opa, stage.opb, ctrl, s.acc_a,
                                       s.acc_b, trace, overrides,
                                       self._mac_params)
            s.acc_a = mac.acc_a & self._acc_mask
            s.acc_b = mac.acc_b & self._acc_mask

            macreg_value = mac.limited
            buffer_value = stage.instr.imm if ctrl.buf_imm else stage.opb
            if traced or "macreg" in overrides:
                macreg_value = apply_hooks(
                    "macreg", {"d": macreg_value, "q": s.macreg},
                    macreg_value, overrides, trace)
            if traced or "buffer" in overrides:
                buffer_value = apply_hooks(
                    "buffer", {"d": buffer_value, "q": s.buffer},
                    buffer_value, overrides, trace)
            s.macreg = macreg_value & reg_mask
            s.buffer = buffer_value & reg_mask
            new_ex_wb = ExWb(stage.instr, ctrl)
            if ctrl.reg_we:
                bypass_value = (buffer_value if ctrl.mux7_buffer
                                else macreg_value) & reg_mask
                ex_bypass = (stage.instr.dest & addr_mask, bypass_value)

        # ---------------- ID stage (uses if_id latch) -----------------
        # A 3-deep family core has no IF/ID latch: it decodes the incoming
        # instruction word in the same cycle it is fetched.
        new_id_ex: Optional[IdEx] = None
        fetched = instr_word & _WORD_MASK if self._depth == 3 else s.if_id
        if fetched is not None:
            instr = decode(fetched)
            ctrl = self._control_words[instr.opcode]
            if traced or "decoder" in overrides:
                packed = apply_hooks("decoder", {"in": int(instr.opcode)},
                                     ctrl.pack(), overrides, trace)
                if "decoder" in overrides:
                    # Without an override the latch keeps the control
                    # table's own object.
                    ctrl = ControlWord.unpack(packed)
            rega = instr.rega & addr_mask
            regb = instr.regb & addr_mask
            opa = s.regs[rega]
            opb = s.regs[regb]
            if wb_dest is not None:
                # Distance-2 forward: the producer is in WB right now and
                # its value sits in the temp register (latched when it
                # left EX).
                if rega == wb_dest:
                    opa = s.temp
                if regb == wb_dest:
                    opb = s.temp
            if ex_bypass is not None:
                # Distance-1 forward from EX; it beats distance 2.
                dest, value = ex_bypass
                if rega == dest:
                    opa = value
                if regb == dest:
                    opb = value
            if traced or "regread_a" in overrides:
                opa = apply_hooks("regread_a", {"addr": instr.rega}, opa,
                                  overrides, trace)
            if traced or "regread_b" in overrides:
                opb = apply_hooks("regread_b", {"addr": instr.regb}, opb,
                                  overrides, trace)
            new_id_ex = IdEx(instr, ctrl, opa & reg_mask, opb & reg_mask)

        # ---------------- register write & latch advance --------------
        if wb_dest is not None:
            s.regs[wb_dest] = wb_value

        if ex_bypass is not None:
            temp = ex_bypass[1]
            if traced or "temp" in overrides:
                temp = apply_hooks("temp", {"d": temp, "q": s.temp}, temp,
                                   overrides, trace)
            s.temp = temp & reg_mask
        # A producer's temp entry stays valid until the next producer; a
        # stale entry is harmless because the register file already holds
        # the same value by then.

        s.ex_wb = new_ex_wb
        s.id_ex = new_id_ex
        s.if_id = None if self._depth == 3 else instr_word & _WORD_MASK

        if self.stuck_bits:
            self._apply_stuck_bits()
        if self._depth >= 5:
            # Registered output port: what the caller sees this cycle is
            # the value latched at the end of the previous one.
            prev_valid, prev_value = s.out_latch
            s.out_latch = (1 if out_valid else 0, out_value)
            return _STEP_RESULTS[prev_valid][prev_value]
        return _STEP_RESULTS[out_valid][out_value]

    # ------------------------------------------------------------------
    def run(self, words) -> List[StepResult]:
        """Run a sequence of instruction words; returns per-cycle results.

        Four NOPs are *not* appended automatically — callers that need the
        pipeline drained should use :meth:`run_program`.
        """
        return [self.step(word) for word in words]

    def run_program(self, instructions, drain: bool = True) -> List[int]:
        """Execute :class:`Instruction` objects; returns the output-port
        values of every cycle (including pipeline drain)."""
        from repro.dsp.isa import encode
        words = [encode(i) for i in instructions]
        if drain:
            words += [encode(Instruction(Opcode.NOP))] * self._drain
        return [r.port for r in self.run(words)]
