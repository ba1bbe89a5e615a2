"""Cross-cutting property tests: invariants that tie subsystems together."""

import random

from hypothesis import given, settings, strategies as st

from repro._util import mask, to_signed, to_unsigned
from repro.bist.template import RandomLoad, TemplateArchitecture
from repro.dsp.core import DspCore
from repro.dsp.isa import (
    Instruction,
    Opcode,
    control_word,
    decode,
    encode,
)
from repro.dsp.mac import MacDatapath
from repro.faults.combsim import CombFaultSimulator
from repro.rtl.arith import make_addsub
from repro.rtl.multiplier import multiplier_reference
from repro.rtl.saturate import limiter_reference
from repro.rtl.shifter import shifter_reference
from repro.rtl.truncate import truncater_reference

OPCODES = sorted(Opcode, key=int)
WORD18 = st.integers(0, mask(18))
WORD8 = st.integers(0, 255)


# ----------------------------------------------------------------------
# MAC: one evaluation path; hooks off and traced must be identical.
# ----------------------------------------------------------------------
@settings(max_examples=200)
@given(st.sampled_from(OPCODES), WORD8, WORD8, WORD18, WORD18)
def test_mac_fast_path_equals_traced(op, opa, opb, acc_a, acc_b):
    ctrl = control_word(op)
    fast = MacDatapath.evaluate(opa, opb, ctrl, acc_a, acc_b)
    trace = {}
    slow = MacDatapath.evaluate(opa, opb, ctrl, acc_a, acc_b, trace=trace)
    assert (fast.acc_a, fast.acc_b, fast.limited) == \
        (slow.acc_a, slow.acc_b, slow.limited)
    assert trace  # the traced path actually traced


# ----------------------------------------------------------------------
# MAC semantics against a from-first-principles model.
# ----------------------------------------------------------------------
@settings(max_examples=150)
@given(st.sampled_from(OPCODES), WORD8, WORD8, WORD18, WORD18)
def test_mac_matches_word_level_recomputation(op, opa, opb, acc_a, acc_b):
    cw = control_word(op)
    result = MacDatapath.evaluate(opa, opb, cw, acc_a, acc_b)
    product = multiplier_reference(opa, opb)
    x = 0 if cw.muxa_zero else product
    acc_in = acc_b if cw.accsel else acc_a
    shifted = shifter_reference(acc_in, opa & 0xF, cw.shmode)
    y = shifted if cw.muxb_shift else 0
    r = to_unsigned(to_signed(y, 18) - to_signed(x, 18)
                    if cw.sub else to_signed(y, 18) + to_signed(x, 18), 18)
    t = truncater_reference(r, cw.trunc)
    expect_a, expect_b = acc_a, acc_b
    if cw.acc_we:
        if cw.accsel:
            expect_b = t
        else:
            expect_a = t
    assert result.acc_a == expect_a
    assert result.acc_b == expect_b
    assert result.limited == limiter_reference(
        expect_b if cw.accsel else expect_a
    )


# ----------------------------------------------------------------------
# Pipeline semantics: with dependencies spaced out, the pipelined core
# computes exactly what a plain sequential interpreter computes.
# ----------------------------------------------------------------------
def sequential_interpreter(instructions):
    """An unpipelined architectural model: one instruction at a time."""
    regs = [0] * 16
    acc_a = acc_b = 0
    outputs = []
    for instr in instructions:
        cw = control_word(instr.opcode)
        result = MacDatapath.evaluate(
            regs[instr.rega], regs[instr.regb], cw, acc_a, acc_b,
        )
        acc_a, acc_b = result.acc_a, result.acc_b
        buffer = instr.imm if cw.buf_imm else regs[instr.regb]
        wb = buffer if cw.mux7_buffer else result.limited
        if cw.out_en:
            outputs.append(wb)
        if cw.reg_we:
            regs[instr.dest] = wb
    return regs, acc_a, acc_b, outputs


_SPACED_PROGRAM = st.lists(
    st.tuples(st.sampled_from(OPCODES), st.integers(0, 15),
              st.integers(0, 15), st.integers(0, 15), WORD8),
    min_size=1, max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(_SPACED_PROGRAM)
def test_pipeline_matches_sequential_semantics(raw):
    instructions = []
    for op, rega, regb, dest, imm in raw:
        if op is Opcode.LDI:
            instructions.append(Instruction(op, imm=imm, dest=dest))
        else:
            instructions.append(Instruction(op, rega=rega, regb=regb,
                                            dest=dest))
    # Space instructions with NOPs so no forwarding path is exercised:
    # both models must then agree exactly.
    spaced = []
    for instr in instructions:
        spaced.append(instr)
        spaced.extend([Instruction(Opcode.NOP)] * 3)
    pipeline_outputs = []
    core = DspCore()
    words = [encode(i) for i in spaced] + \
        [encode(Instruction(Opcode.NOP))] * 4
    for word in words:
        result = core.step(word)
        if result.out_valid:
            pipeline_outputs.append(result.out_value)
    regs, acc_a, acc_b, outputs = sequential_interpreter(instructions)
    assert core.state.regs == regs
    assert core.state.acc_a == acc_a
    assert core.state.acc_b == acc_b
    assert pipeline_outputs == outputs


# ----------------------------------------------------------------------
# Fault simulation: detection is monotone in the pattern set.
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_fault_detection_monotone(seed):
    nl = make_addsub(4)
    sim = CombFaultSimulator(nl)
    rng = random.Random(seed)

    def block(n):
        return {
            "a": [rng.randrange(16) for _ in range(n)],
            "b": [rng.randrange(16) for _ in range(n)],
            "sub": [rng.randrange(2) for _ in range(n)],
        }

    first = block(8)
    second = block(8)
    short = sim.run_with_dropping([first])
    rng = random.Random(seed)  # same first block again
    longer = sim.run_with_dropping([block(8), second])
    detected_short = {f for f, t in short.items() if t is not None}
    detected_long = {f for f, t in longer.items() if t is not None}
    assert detected_short <= detected_long
    # First-detection indices agree for the shared prefix.
    for fault in detected_short:
        assert longer[fault] == short[fault]


# ----------------------------------------------------------------------
# Template architecture: masking is a bijection on register identities.
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10), st.integers(1, 255), st.integers(1, 65535))
def test_template_masking_preserves_structure(n_iter, seed2, seed1):
    from repro.bist.lfsr import Lfsr
    program = [
        RandomLoad(0), RandomLoad(1),
        Instruction(Opcode.MPYA, rega=0, regb=1, dest=2),
        Instruction(Opcode.OUT, regb=2),
    ]
    arch = TemplateArchitecture(
        program, lfsr1=Lfsr(16, seed=seed1), lfsr2=Lfsr(8, seed=seed2)
    )
    words = arch.expand(n_iter)
    assert len(words) == 4 * n_iter
    for i in range(0, len(words), 4):
        ld0, ld1, mpy, out = (decode(w) for w in words[i:i + 4])
        # Opcodes survive masking untouched.
        assert ld0.opcode is Opcode.LDI and mpy.opcode is Opcode.MPYA
        # Dataflow consistency under the XOR mask.
        assert {mpy.rega, mpy.regb} == {ld0.dest, ld1.dest}
        assert out.regb == mpy.dest
        # The two loads land in different registers (0^m != 1^m).
        assert ld0.dest != ld1.dest


# ----------------------------------------------------------------------
# Core determinism and state isolation.
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 2**17 - 1), min_size=1, max_size=30))
def test_core_is_deterministic(words):
    a = DspCore()
    b = DspCore()
    outs_a = [a.step(w).port for w in words]
    outs_b = [b.step(w).port for w in words]
    assert outs_a == outs_b
    assert a.state.regs == b.state.regs
    assert a.state.acc_a == b.state.acc_a


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 2**17 - 1), min_size=2, max_size=20),
       st.integers(0, 2**17 - 1))
def test_forked_state_does_not_leak(words, extra):
    core = DspCore()
    for word in words:
        core.step(word)
    snapshot = core.state.copy()
    fork = DspCore(state=core.state.copy())
    fork.step(extra)
    assert core.state.regs == snapshot.regs
    assert core.state.acc_a == snapshot.acc_a
    assert core.state.macreg == snapshot.macreg
