"""Compiled evaluators must be bit-identical to the interpreted simulator."""

import random

from hypothesis import given, settings, strategies as st

from repro.logic import compiled as compiled_module
from repro.logic.compiled import CompiledEvaluator, CompiledEvaluator3
from repro.logic.simulator import CombSimulator
from repro.rtl.arith import make_addsub
from repro.rtl.multiplier import make_multiplier
from repro.rtl.shifter import make_shifter


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**18 - 1), st.integers(0, 2**18 - 1),
       st.integers(0, 1))
def test_compiled_matches_interpreted_addsub(a, b, sub):
    nl = make_addsub(18)
    interp = CombSimulator(nl)
    compiled = CompiledEvaluator(nl)
    inputs = {}
    for name, word in (("a", a), ("b", b), ("sub", sub)):
        for i, net in enumerate(nl.buses[name]):
            inputs[net] = (word >> i) & 1
    assert compiled.run(inputs) == interp.run(inputs)


def test_compiled_pattern_parallel():
    nl = make_multiplier(4, 8)
    interp = CombSimulator(nl)
    compiled = CompiledEvaluator(nl)
    rng = random.Random(1)
    inputs = {net: rng.getrandbits(64) for net in nl.inputs}
    assert compiled.run(inputs, 64) == interp.run(inputs, 64)


def test_chunked_compile_matches_interpreted(monkeypatch):
    """A body longer than one chunk compiles to several functions that
    still run in order."""
    monkeypatch.setattr(compiled_module, "MAX_STATEMENTS", 7)
    nl = make_multiplier(4, 8)
    assert len(nl.gates) > 7 * 3
    rng = random.Random(2)
    inputs = {net: rng.getrandbits(64) for net in nl.inputs}
    assert CompiledEvaluator(nl).run(inputs, 64) \
        == CombSimulator(nl).run(inputs, 64)


def test_compiled3_full_assignment_matches_binary():
    """With every PI assigned, 3-valued equals binary simulation."""
    nl = make_shifter(8, 4)
    interp = CombSimulator(nl)
    compiled3 = CompiledEvaluator3(nl)
    rng = random.Random(9)
    for _ in range(20):
        assignment = {net: rng.randrange(2) for net in nl.inputs}
        is1, is0 = compiled3.run(assignment)
        binary = interp.run(assignment)
        for net in range(nl.n_nets):
            assert is1[net] != is0[net], "fully assigned -> fully known"
            assert is1[net] == binary[net]


def test_compiled3_partial_assignment_is_conservative():
    """Unknowns must never contradict any completion of the inputs."""
    nl = make_addsub(4)
    compiled3 = CompiledEvaluator3(nl)
    interp = CombSimulator(nl)
    rng = random.Random(4)
    inputs = list(nl.inputs)
    for _ in range(10):
        known = {n: rng.randrange(2) for n in inputs if rng.random() < 0.5}
        is1, is0 = compiled3.run(known)
        # Any completion must agree with every determined net.
        for _ in range(5):
            full = dict(known)
            for n in inputs:
                full.setdefault(n, rng.randrange(2))
            binary = interp.run(full)
            for net in range(nl.n_nets):
                if is1[net]:
                    assert binary[net] == 1
                if is0[net]:
                    assert binary[net] == 0


def test_compiled3_rejects_sequential():
    import pytest
    from repro.logic.builder import NetlistBuilder
    b = NetlistBuilder("seq")
    a = b.input("a")
    q = b.dff(a)
    b.output(q)
    with pytest.raises(ValueError):
        CompiledEvaluator3(b.finish())
