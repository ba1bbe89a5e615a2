"""Operand justification: delivering ATPG patterns through the ISA.

Phase 3's random-resistant enhancement needs *specific* values on a
component's inputs — e.g. an adder pattern wants an exact 18-bit value in
the selected accumulator and an exact product on the multiplier path.  The
paper notes both the cost ("It took 21 lines to test the adder with just
one pattern") and the difficulty ("It may also be very hard to figure out
how to use the instruction set to get some of the ATPG patterns to the
target component").

This module implements that justification for the adder/subtracter:

* :func:`factor_product` — write a 16-bit value as a product of two signed
  bytes (what one ``MPY`` can produce);
* :func:`justify_accumulator` — reach an arbitrary 18-bit accumulator
  value with a short ``MPY`` / ``SHIFT`` / ``MAC`` sequence
  (``v = (p << k) + r`` with both ``p`` and ``r`` byte-products);
* :func:`synthesize_addsub_oneshot` — the full one-shot delivery sequence
  for one PODEM pattern, *verified* by mixed-level simulation before being
  accepted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro._util import sign_extend, to_signed, to_unsigned
from repro.dsp.core import DspCore
from repro.dsp.isa import Instruction, Opcode, encode
from repro.faults.combsim import CombFaultSimulator
from repro.faults.model import Fault
from repro.selftest.phase3 import OneShotSequence
from repro.selftest.program import ProgramLine
from repro.runtime.errors import ConfigError

#: Extreme signed-byte products reachable by one multiply.
_MAX_PRODUCT = 128 * 128      # (-128) * (-128)
_MIN_PRODUCT = -128 * 127


def factor_product(p: int) -> Optional[Tuple[int, int]]:
    """Express ``p`` as a product of two signed bytes.

    Returns the two operands as unsigned byte encodings, or ``None`` when
    no factorisation exists (e.g. a prime beyond 127 in magnitude).
    """
    if not _MIN_PRODUCT <= p <= _MAX_PRODUCT:
        return None
    if p == 0:
        return 0, 0
    magnitude = abs(p)
    for a in range(1, 129):
        if magnitude % a:
            continue
        b = magnitude // a
        if b > 128:
            continue
        # Distribute the sign; +128 itself is not representable, only -128.
        if p > 0:
            if a <= 127 and b <= 127:
                return to_unsigned(a, 8), to_unsigned(b, 8)
            if a == 128 and b == 128:
                return to_unsigned(-128, 8), to_unsigned(-128, 8)
            continue
        # negative product: give one factor the minus sign
        if b <= 127:
            return to_unsigned(-a, 8), to_unsigned(b, 8)
        if a <= 127:
            return to_unsigned(a, 8), to_unsigned(-b, 8)
    return None


#: Registers reserved by justification sequences (away from the loop's
#: operand registers).
_JREGS = list(range(8, 16))
#: Search budget: how far below ``target >> k`` the shifted product may
#: start.
_MAX_DELTA = 48


def justify_accumulator(value: int,
                        acc: str = "A") -> Optional[List[Instruction]]:
    """A short instruction sequence leaving ``value`` in AccA or AccB.

    Strategy: find ``k``, ``p``, ``r`` with ``value = (p << k) + r`` where
    both ``p`` and ``r`` are single-multiply products; emit
    ``MPY p; SHIFT k; MAC+ r``.  Returns ``None`` when no decomposition is
    found within the search budget.
    """
    if acc not in ("A", "B"):
        raise ConfigError("acc must be 'A' or 'B'")
    target = to_signed(value, 18)
    mpy = Opcode.MPYA if acc == "A" else Opcode.MPYB
    mac = Opcode.MACA_ADD if acc == "A" else Opcode.MACB_ADD
    shift = Opcode.SHIFTA if acc == "A" else Opcode.SHIFTB
    r1, r2, r3, r4, r5, r6 = _JREGS[:6]

    for k in range(0, 8):
        base = target >> k
        if not _MIN_PRODUCT <= base <= _MAX_PRODUCT:
            continue
        for delta in range(0, _MAX_DELTA + 1):
            p = base - delta
            rest = target - (p << k)
            if rest < 0 or rest > _MAX_PRODUCT:
                continue
            p_ops = factor_product(p)
            r_ops = factor_product(rest)
            if p_ops is None or r_ops is None:
                continue
            seq = [
                Instruction(Opcode.LDI, imm=p_ops[0], dest=r1),
                Instruction(Opcode.LDI, imm=p_ops[1], dest=r2),
                Instruction(mpy, rega=r1, regb=r2, dest=r3),
            ]
            if k:
                seq += [
                    Instruction(Opcode.LDI, imm=k, dest=r4),
                    Instruction(shift, rega=r4, dest=r5),
                ]
            if rest:
                seq += [
                    Instruction(Opcode.LDI, imm=r_ops[0], dest=r1),
                    Instruction(Opcode.LDI, imm=r_ops[1], dest=r2),
                    Instruction(mac, rega=r1, regb=r2, dest=r6),
                ]
            return seq
    return None


def _apply_pattern_sequence(a_value: int, b_value: int, sub: int,
                            acc: str = "A") -> Optional[List[Instruction]]:
    """Full sequence: justify acc = a_value, then fire the adder with
    product = b_value and the requested add/sub mode, then observe."""
    prologue = justify_accumulator(a_value, acc=acc)
    if prologue is None:
        return None
    product = to_signed(b_value, 18)
    if sign_extend(to_unsigned(product, 16), 16, 18) != to_unsigned(product, 18):
        return None  # not reachable through the 16-bit product path
    ops = factor_product(product)
    if ops is None:
        return None
    if sub:
        fire = Opcode.MACA_SUB if acc == "A" else Opcode.MACB_SUB
    else:
        fire = Opcode.MACA_ADD if acc == "A" else Opcode.MACB_ADD
    observe = Opcode.OUTA if acc == "A" else Opcode.OUTB
    r1, r2, dest = _JREGS[0], _JREGS[1], _JREGS[6]
    return prologue + [
        Instruction(Opcode.LDI, imm=ops[0], dest=r1),
        Instruction(Opcode.LDI, imm=ops[1], dest=r2),
        Instruction(fire, rega=r1, regb=r2, dest=dest),
        Instruction(Opcode.OUT, regb=dest),
        Instruction(observe),
    ]


def oneshot_detects(fault: Fault, instructions: List[Instruction],
                    sim: CombFaultSimulator) -> bool:
    """Mixed-level check: does the sequence detect the addsub fault?

    The addsub's output is continuously overridden with its gate-level
    faulty evaluation; detection = the output-port stream diverges.
    """
    words = [encode(i) for i in instructions]
    words += [encode(Instruction(Opcode.NOP))] * 4
    clean = DspCore()
    clean_ports = [clean.step(w).port for w in words]

    def faulty_output(inputs: Dict[str, int]) -> int:
        return sim.faulty_output_word(fault, inputs, "result")

    forked = DspCore()
    for t, word in enumerate(words):
        port = forked.step(word, overrides={"addsub": faulty_output}).port
        if port != clean_ports[t]:
            return True
    return False


def synthesize_addsub_oneshot(
    fault: Fault,
    pattern_words: Dict[str, int],
    sim: CombFaultSimulator,
    acc: str = "A",
) -> Optional[OneShotSequence]:
    """Build and verify a one-shot delivery sequence for one adder pattern.

    ``pattern_words`` is PODEM's pattern over the addsub buses (``a`` =
    accumulate side, ``b`` = product side, ``sub``).  Returns ``None``
    when the pattern cannot be justified through the ISA or the delivered
    error does not reach the output port — both failure modes the paper
    explicitly discusses.
    """
    instructions = _apply_pattern_sequence(
        pattern_words.get("a", 0), pattern_words.get("b", 0),
        pattern_words.get("sub", 0) & 1, acc=acc,
    )
    if instructions is None:
        return None
    if not oneshot_detects(fault, instructions, sim):
        return None
    lines = [ProgramLine(item=i, phase="phase3", in_loop=False,
                         comment=f"ATPG addsub {fault.stuck_at}@net{fault.net}")
             for i in instructions]
    return OneShotSequence(component="addsub", fault=fault, lines=lines)
