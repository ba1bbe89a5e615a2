"""The core's hooks against pinned behaviour, across the core family.

``DspCore.step`` and ``MacDatapath.evaluate`` run one code path whether
or not a hook (trace, per-component override) is armed.  These tests
hold that path to recorded behaviour: a hook-free run equals a traced
one cycle for cycle, hooks fire in dataflow order, an override arms its
own component's hook and no other, a state copy steps independently of
its source, and a seeded battery of plain, traced, overridden and
stuck-bit cycles over every ``FLEET`` point hashes to a pinned digest.
"""

import hashlib
import random
import zlib

import pytest

import repro.dsp.core
import repro.dsp.mac
from repro._util import mask
from repro.dsp.core import DspCore
from repro.dsp.family import CoreBuild
from repro.dsp.isa import Instruction, Opcode, encode
from tests.test_core_family import FLEET, FLEET_IDS

OPCODES = sorted(Opcode, key=int)

#: Every hook site of one core cycle, in the order the hooks fire:
#: WB's MUX7, the MAC in dataflow order, the EX registers, ID's decoder
#: and register reads, then the forwarding register.
HOOK_ORDER = [
    "mux7",
    "multiplier", "muxa", "muxg_shifter", "shifter", "muxb", "addsub",
    "truncater", "acca", "accb", "muxg_limiter", "limiter",
    "macreg", "buffer",
    "decoder", "regread_a", "regread_b",
    "temp",
]

#: sha256 prefix of the hook battery below.  Any change to ports, state,
#: trace contents or the inputs a callable override sees moves it.
BATTERY_DIGEST = "07a5552a824f1250"


def _program(spec, rng, length):
    """Primed registers, then random instructions and raw 17-bit words
    (unknown opcodes decode as NOP, wide fields are masked)."""
    n = spec.n_registers
    words = [encode(Instruction(Opcode.LDI, imm=rng.randrange(256), dest=r))
             for r in range(min(4, n))]
    while len(words) < length:
        if rng.random() < 0.125:
            words.append(rng.getrandbits(17))
            continue
        words.append(encode(Instruction(
            rng.choice(OPCODES), rega=rng.randrange(n), regb=rng.randrange(n),
            dest=rng.randrange(n), imm=rng.randrange(256))))
    return words


def _state_key(state):
    """Every state field a later cycle can read."""
    return (tuple(state.regs), state.acc_a, state.acc_b, state.temp,
            state.macreg, state.buffer, state.if_id, repr(state.id_ex),
            repr(state.ex_wb), state.out_latch)


def _trace_key(trace):
    return sorted((name, sorted(act.inputs.items()), act.output, act.mode)
                  for name, act in trace.items())


def _callable_override(salt, width):
    """A deterministic function of the whole inputs dict, keys included."""
    def override(inputs):
        digest = zlib.crc32(repr(sorted(inputs.items())).encode(), salt)
        return digest & mask(width)
    return override


def _cycle_hooks(rng, width):
    """One cycle's ``(overrides, trace)``: plain, traced, an int or a
    callable override on a random component, or traced and overridden."""
    kind = rng.randrange(5)
    trace = {} if kind in (1, 4) else None
    overrides = None
    if kind >= 2:
        name = rng.choice(HOOK_ORDER)
        if rng.random() < 0.5:
            overrides = {name: rng.getrandbits(width)}
        else:
            overrides = {name: _callable_override(rng.getrandbits(32), width)}
    return overrides, trace


def _battery_digest():
    h = hashlib.sha256()
    for index, spec in enumerate(FLEET):
        build = CoreBuild.get(spec)
        width = max(spec.acc_width, 12)
        for run in range(6):
            rng = random.Random(1000 * index + run)
            stuck = None
            if run % 2:
                # One register bit stuck at 0, one accumulator bit at 1.
                stuck = {("reg", 1): (mask(spec.operand_width) & ~0b100, 0),
                         ("acc_b",): (mask(spec.acc_width), 0b1000)}
            core = build.make_core(stuck_bits=stuck)
            for word in _program(spec, rng, 60):
                overrides, trace = _cycle_hooks(rng, width)
                result = core.step(word, overrides=overrides, trace=trace)
                h.update(repr((
                    result.out_valid, result.port, _state_key(core.state),
                    _trace_key(trace or {}),
                )).encode())
    return h.hexdigest()[:16]


def test_hook_battery_matches_pinned_digest():
    assert _battery_digest() == BATTERY_DIGEST


@pytest.mark.parametrize("spec", FLEET, ids=FLEET_IDS)
def test_traced_step_equals_plain_step(spec):
    build = CoreBuild.get(spec)
    plain, traced = build.make_core(), build.make_core()
    traced_any = False
    for word in _program(spec, random.Random(spec.label()), 80):
        trace = {}
        assert plain.step(word) == traced.step(word, trace=trace)
        assert plain.state == traced.state
        traced_any |= bool(trace)
    assert traced_any


def test_hooks_fire_in_dataflow_order():
    """With a producer in every stage, all hooks fire once, in order."""
    core = DspCore()
    word = encode(Instruction(Opcode.MACA_ADD, rega=1, regb=2, dest=3))
    for _ in range(3):
        core.step(word)
    calls = []
    overrides = {name: (lambda inputs, name=name: calls.append(name) or 0)
                 for name in HOOK_ORDER}
    trace = {}
    core.step(word, overrides=overrides, trace=trace)
    assert calls == HOOK_ORDER
    assert list(trace) == HOOK_ORDER


@pytest.fixture
def hook_calls(monkeypatch):
    """Names of the ``apply_hooks`` calls the core and the MAC make."""
    calls = []
    apply_hooks = repro.dsp.mac.apply_hooks

    def counting(name, *args):
        calls.append(name)
        return apply_hooks(name, *args)

    monkeypatch.setattr(repro.dsp.core, "apply_hooks", counting)
    monkeypatch.setattr(repro.dsp.mac, "apply_hooks", counting)
    return calls


@pytest.mark.parametrize("name", HOOK_ORDER)
def test_one_override_arms_one_hook(hook_calls, name):
    """With a producer in every stage, a plain step calls no hook and an
    int override on one component calls that component's hook alone."""
    core = DspCore()
    word = encode(Instruction(Opcode.MACA_ADD, rega=1, regb=2, dest=3))
    for _ in range(3):
        core.step(word)
    assert hook_calls == []
    core.step(word, overrides={name: 1}, trace=None)
    assert hook_calls == [name]


@pytest.mark.parametrize("spec", FLEET, ids=FLEET_IDS)
def test_copy_steps_independently_of_its_source(spec):
    """A copy taken at any cycle shares no mutable state with its source:
    stepping the copy (overridden, with stuck bits) leaves the source as
    it was, and stepping the source then leaves the copy as it was."""
    build = CoreBuild.get(spec)
    rng = random.Random(spec.label())
    width = max(spec.acc_width, 12)
    words = _program(spec, rng, 60)
    for cycle in sorted(rng.sample(range(4, 52), 6)):
        source = build.make_core()
        for word in words[:cycle]:
            source.step(word)
        state = source.state.copy()
        assert state.regs is not source.state.regs
        source_key = _state_key(source.state)
        assert _state_key(state) == source_key
        # The stuck register holds its copied value with bit 0 flipped,
        # so the copy differs from the source from its first cycle on.
        reg = rng.randrange(spec.n_registers)
        stuck = {("reg", reg): (0, source.state.regs[reg] ^ 1),
                 ("acc_a",): (mask(spec.acc_width), 1)}
        fork = build.make_core(state=state, stuck_bits=stuck)
        for word in words[cycle:cycle + 4]:
            overrides = {rng.choice(HOOK_ORDER): rng.getrandbits(width)}
            fork.step(word, overrides=overrides)
        assert _state_key(source.state) == source_key
        fork_key = _state_key(fork.state)
        assert fork_key != source_key
        for word in words[cycle:cycle + 4]:
            source.step(word)
        assert _state_key(fork.state) == fork_key
