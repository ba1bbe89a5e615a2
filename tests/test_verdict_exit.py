"""Error-injection forks stop at their verdict: equal to full windows.

:meth:`ObservabilityEngine.measure` stops a fork once its verdict is
known: a port that differs from the clean run's (observed), or a state
equal to the clean run's at the same cycle (masked).  The hierarchical
grader steps a fork only while its state differs from the clean run's:
a tier-1 fork ends at its first such cycle, and a tier-2 fork or a stuck
storage bit jumps to the next cycle at which the fault changes a value
again.  The full-window loops they replaced stay here as references:
every fork starts from a replay of the clean core from cycle 0 and
steps to the end of its window, and every storage fault's core steps
from cycle 0.  The hierarchical oracles run on the paper core and on a
5-deep ``FLEET`` point.

Tier 2 (:meth:`HierarchicalFaultSimulator._propagates_continuous`)
reads a cycle's faulty word from the block's pattern-parallel faulty
outputs when the fork's component inputs equal the clean run's; its
reference evaluates every cycle at gate level.
"""

import random

import pytest

from repro import obs
from repro._util import mask
from repro.dsp.core import DspCore
from repro.dsp.family import CoreBuild, CoreSpec
from repro.dsp.isa import Instruction, Opcode, encode
from repro.faults.hierarchical import (
    DspFaultUniverse,
    HierarchicalFaultSimulator,
    _set_bit_positions,
    _spread,
    storage_fault_core,
)
from repro.logic.simulator import unpack_output
from repro.metrics.controllability import (
    component_cycle,
    default_variants,
    prepare_core,
)
from repro.metrics.observability import (
    ERRORS_PER_BIT,
    WINDOW,
    ObservabilityEngine,
    observation_wrapper,
)
from repro.metrics.table import build_metrics_table
from repro.runtime.rng import derive_rng
from repro.selftest.generator import SelfTestGenerator
from repro.selftest.vectors import expand_program
from tests.test_core_family import FLEET

_NOP_WORD = encode(Instruction(Opcode.NOP))


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def run_ports(core, words, inject_cycle=None, overrides=None):
    """The port stream of ``words``, ``overrides`` armed at one cycle."""
    return [core.step(word, overrides=overrides if t == inject_cycle
                      else None).port
            for t, word in enumerate(words)]


def reference_measure(engine, variant, extra_wrapper=()):
    """:meth:`ObservabilityEngine.measure` with full-window forks: a
    combinational injection replays from cycle 0, and every fork's whole
    port stream is compared with the clean one."""
    build = engine.build
    rng = derive_rng(engine.seed, variant.label)
    observed, injected = {}, {}
    for _ in range(engine.n_good):
        setup_rng = random.Random(rng.random())
        core = prepare_core(variant, setup_rng, build=build)
        snapshot = core.state.copy()
        stuck = dict(core.stuck_bits)
        wrapper = observation_wrapper(variant, build=build) \
            + list(extra_wrapper)
        words = [encode(variant.instruction(setup_rng))]
        words += [encode(i) for i in wrapper]
        words += [_NOP_WORD] * max(0, WINDOW - len(words))
        traces, clean_ports, post_states = [], [], []
        for word in words:
            trace = {}
            clean_ports.append(core.step(word, trace=trace).port)
            traces.append(trace)
            post_states.append(core.state.copy())
        for spec in build.components:
            cycle = component_cycle(spec.name, build)
            if cycle >= len(traces):
                continue
            activity = traces[cycle].get(spec.name)
            if activity is None:
                continue
            key = (spec.name, activity.mode)
            n_bits = spec.output_width
            for _ in range(ERRORS_PER_BIT * n_bits):
                bad = rng.randrange(1 << n_bits)
                if bad == activity.output:
                    bad ^= 1 + rng.randrange((1 << n_bits) - 1)
                    bad &= mask(n_bits)
                if spec.kind == "register":
                    state = post_states[cycle].copy()
                    state.write(spec.state_key, bad)
                    forked = build.make_core(state, stuck)
                    ports = clean_ports[:cycle + 1] \
                        + run_ports(forked, words[cycle + 1:])
                else:
                    forked = build.make_core(snapshot.copy(), stuck)
                    ports = run_ports(forked, words, cycle,
                                      {spec.name: bad})
                injected[key] = injected.get(key, 0) + 1
                if ports != clean_ports:
                    observed[key] = observed.get(key, 0) + 1
    return {key: observed.get(key, 0) / count
            for key, count in injected.items()}


def _point(depth):
    return next(spec for spec in FLEET if spec.pipeline_depth == depth)


#: The paper core (4-deep) and the first 3- and 5-deep ``FLEET`` points.
POINTS = [CoreSpec.paper(), _point(3), _point(5)]
OUT_AB = (Instruction(Opcode.OUTA), Instruction(Opcode.OUTB))


@pytest.fixture
def step_count(monkeypatch):
    """Counts every :meth:`DspCore.step` call while the test runs."""
    counter = [0]
    step = DspCore.step

    def counted(self, *args, **kwargs):
        counter[0] += 1
        return step(self, *args, **kwargs)

    monkeypatch.setattr(DspCore, "step", counted)
    return counter


@pytest.mark.parametrize("extra", [(), OUT_AB], ids=["plain", "outa-outb"])
@pytest.mark.parametrize("spec", POINTS,
                         ids=[spec.label() for spec in POINTS])
def test_observability_verdict_exit_matches_full_window(spec, extra,
                                                        step_count):
    engine = ObservabilityEngine(n_good=1, seed=41, build=CoreBuild.get(spec))
    variants = default_variants()
    got = [engine.measure(v, extra_wrapper=extra) for v in variants]
    steps = step_count[0]
    want = [reference_measure(engine, v, extra) for v in variants]
    assert got == want
    # Both step the same clean runs, so fewer steps mean forks stopped early.
    assert steps < step_count[0] - steps


# ----------------------------------------------------------------------
# Hierarchical grading
# ----------------------------------------------------------------------
#: The paper core and the first 5-deep ``FLEET`` point.
HIER_POINTS = [CoreSpec.paper(), _point(5)]


class Replay:
    """The clean core replayed from cycle 0 over ``words``: its port and
    its state before every cycle.  The references fork from these, not
    from the grader's own recording."""

    def __init__(self, build, words):
        self.build, self.words = build, words
        core = build.make_core()
        self.ports, self.states = [], []
        for word in words:
            self.states.append(core.state.copy())
            self.ports.append(core.step(word).port)

    def fork(self, t):
        """A core in the clean state before cycle ``t``."""
        return self.build.make_core(self.states[t].copy())


def graded(spec):
    """An E1 program (metrics, Phase 1/2) for ``spec``, expanded over 5
    loop passes: a full-universe grader, its trace and the replay."""
    build = CoreBuild.get(spec)
    table = build_metrics_table(n_controllability_samples=8,
                                n_observability_good=1, seed=2004,
                                build=build)
    program = SelfTestGenerator(
        table=table, build=build,
        o_engine=ObservabilityEngine(n_good=1, seed=2006, build=build),
    ).generate().program
    words = expand_program(program, 5)
    sim = HierarchicalFaultSimulator(universe=DspFaultUniverse(build=build))
    ctx = sim.prepare(words)
    replay = Replay(build, words)
    assert ctx.clean_ports == replay.ports
    assert ctx.states == replay.states
    return spec, sim, ctx, replay


@pytest.fixture(scope="module")
def hier():
    """One :func:`graded` setup per point of ``HIER_POINTS``."""
    return [graded(spec) for spec in HIER_POINTS]


def comb_starts(sim, ctx, per_block):
    """Every start of every combinational fault, up to ``per_block`` per
    block: ``(name, fault, rec, output_bits, excited, idx, limit)``."""
    for name, faults in sim.universe.comb_faults.items():
        comb = sim.universe.comb_simulators[name]
        output_nets = comb.netlist.buses[sim.universe.spec(name).output_bus]
        for fault in faults:
            for block_start in ctx.block_starts:
                rec = ctx.block_records[block_start].get(name)
                if rec is None or not rec["cycles"]:
                    continue
                good = ctx.good_values(comb, name, block_start)
                detected, changed = comb.simulate_fault(
                    fault, good, len(rec["cycles"]))
                limit = ctx.block_end(block_start)
                bits = [changed.get(n, good[n]) for n in output_nets]
                indices = _set_bit_positions(detected)
                excited = [rec["cycles"][i] for i in indices]
                for idx in _spread(indices, per_block):
                    yield name, fault, rec, bits, excited, idx, limit


# ----------------------------------------------------------------------
# Hierarchical tier 1
# ----------------------------------------------------------------------
def reference_propagates(sim, replay, name, faulty_word, t, limit):
    """Tier 1 with a full window.  Also reports whether the fork's state
    met the clean state of a cycle while the verdict was still open."""
    fork = replay.fork(t)
    end = min(limit, t + sim.propagation_window)
    if fork.step(replay.words[t],
                 overrides={name: faulty_word}).port != replay.ports[t]:
        return True, False
    converged = False
    for cycle in range(t + 1, end):
        converged = converged or fork.state == replay.states[cycle]
        if fork.step(replay.words[cycle]).port != replay.ports[cycle]:
            return True, converged
    return False, converged


def test_tier1_verdict_exit_matches_full_window(hier):
    """Every tier-1 start of every combinational fault, on each point."""
    for spec, sim, ctx, replay in hier:
        starts = converged = 0
        for name, fault, rec, bits, _, idx, limit in comb_starts(
                sim, ctx, sim.max_starts_per_block):
            word = unpack_output(bits, idx)
            t = rec["cycles"][idx]
            want, met = reference_propagates(sim, replay, name, word, t,
                                             limit)
            assert sim._propagates(name, word, t, ctx, limit) == want, \
                (spec.label(), name, fault, t)
            # Back on the clean run, a fork is never observed.
            assert not (want and met), (spec.label(), name, fault, t)
            starts += 1
            converged += met
        assert starts > 5000, spec.label()
        assert converged > 0, spec.label()


# ----------------------------------------------------------------------
# Hierarchical tier 2
# ----------------------------------------------------------------------
def reference_propagates_continuous(sim, replay, name, fault, t, limit):
    """Tier 2 over the full window, with every cycle's faulty word
    evaluated at gate level.  Also reports whether the fork's state met
    the clean state of a cycle while the verdict was still open."""
    comb = sim.universe.comb_simulators[name]
    output_bus = sim.universe.spec(name).output_bus

    def faulty_output(inputs):
        return comb.faulty_output_word(fault, inputs, output_bus)

    fork = replay.fork(t)
    rejoined = False
    for cycle in range(t, min(limit, t + sim.propagation_window)):
        rejoined = rejoined or (cycle > t
                                and fork.state == replay.states[cycle])
        if fork.step(replay.words[cycle], overrides={name: faulty_output}
                     ).port != replay.ports[cycle]:
            return True, rejoined
    return False, rejoined


def test_tier2_recorded_words_match_gate_level(hier):
    """Every tier-2 start of every combinational fault, on each point."""
    for spec, sim, ctx, replay in hier:
        starts = observed = rejoined_then_observed = 0
        with obs.enabled_session(trace=False, profile=False) as session:
            for name, fault, rec, bits, excited, idx, limit in comb_starts(
                    sim, ctx, sim.max_continuous_starts):
                t = rec["cycles"][idx]
                want, rejoined = reference_propagates_continuous(
                    sim, replay, name, fault, t, limit)
                got = sim._propagates_continuous(
                    name, sim.universe.spec(name),
                    sim.universe.comb_simulators[name], fault, rec, bits,
                    excited, idx, ctx, limit)
                assert got == want, (spec.label(), name, fault, t)
                starts += 1
                observed += want
                rejoined_then_observed += want and rejoined
        counters = session.registry.snapshot()["counters"]
        assert counters["sim.hier.tier2_checks"] == starts
        assert starts > 1000, spec.label()
        assert 0 < observed < starts, spec.label()
        # Not vacuous: some forks were observed only after they rejoined
        # the clean run and a later excitation set them off again.
        assert rejoined_then_observed > 0, spec.label()
        # The recorded words served most cycles, and some cycles still
        # ran at gate level.
        gate_level = counters["sim.hier.tier2_gate_cycles"]
        assert 0 < gate_level < counters["sim.hier.tier2_cycles"] / 2, \
            spec.label()


# ----------------------------------------------------------------------
# Hierarchical storage faults
# ----------------------------------------------------------------------
def reference_storage(sim, replay, fault, limit):
    """The faulty core stepped from cycle 0 over the first ``limit``
    cycles: its first port that differs from the clean run's."""
    faulty = storage_fault_core(fault, build=sim.build)
    for t in range(limit):
        if faulty.step(replay.words[t]).port != replay.ports[t]:
            return t
    return None


@pytest.mark.parametrize("max_cycles", [None, 100], ids=["all", "cap-100"])
def test_storage_faults_match_stepping_from_cycle_0(hier, max_cycles,
                                                    step_count):
    """Every storage fault (``q``, ``d`` and ``en``) of each universe."""
    for spec, sim, ctx, replay in hier:
        faults = sim.universe.storage_faults
        assert {fault.kind for fault in faults} == {"q", "d", "en"}
        before = step_count[0]
        got = [sim.grade_storage_fault(ctx, fault, max_cycles)
               for fault in faults]
        steps = step_count[0] - before
        limit = len(replay.words) if max_cycles is None else max_cycles
        want = [reference_storage(sim, replay, fault, limit)
                for fault in faults]
        assert got == want, spec.label()
        detected = {fault.kind for fault, cycle in zip(faults, want)
                    if cycle is not None}
        assert detected == {"q", "d", "en"}, spec.label()
        assert None in want, spec.label()
        # Stuck storage bits skip the cycles they agree with the clean run.
        assert steps < step_count[0] - before - steps, spec.label()
