"""Observability measurement by random error injection.

Implements the paper's procedure: run a fault-free ("good") simulation of
the instruction inside its wrapper (operand loads before, ``Out dest``
after), then, for a component with an *n*-bit output, re-run ``2 × n``
times with a random erroneous value forced onto the component's output at
the cycle the instruction occupies that component.  The observability is::

    O(X) = δ_core / δ(X)

— the fraction of injections whose effect reaches the core's output port
within the observation window.

Every injection forks the clean run rather than replaying it: a
combinational error starts from the clean state before its cycle (the
prepared core's state for cycle 0), with the erroneous value forced onto
the component's output for that cycle only; a storage error starts from
the clean state after its cycle, with the element corrupted.  The fork
then steps until its verdict.  A port value that differs from the clean
run's is *observed*.  A state equal to the clean run's after the same
cycle is *masked*: the core is deterministic and nothing is injected any
more, so from there the fork repeats the clean run.  A fork that reaches
the end of the window undecided is masked too.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro._util import mask
from repro.dsp.core import CoreState, DspCore
from repro.dsp.family import PAPER_BUILD, CoreBuild
from repro.dsp.isa import Instruction, Opcode, encode
from repro.metrics.controllability import (
    InstructionVariant,
    component_cycle,
    prepare_core,
)
from repro.runtime.errors import ConfigError
from repro.runtime.rng import derive_rng

_NOP_WORD = encode(Instruction(Opcode.NOP))

#: Random errors injected per output bit of a component, per good run.
ERRORS_PER_BIT = 2
#: Cycles each good run and its forks step: the instruction, its
#: wrapper, then NOPs.
WINDOW = 8


def observation_wrapper(variant: InstructionVariant,
                        build: CoreBuild = PAPER_BUILD
                        ) -> List[Instruction]:
    """The "Out" wrapper: propagate the instruction's result to the port.

    Register-writing instructions are followed by three ``out dest``
    instructions: the first reads the result through the distance-1 bypass,
    the second through the temp (forwarding) register, and the third from
    the register file (the path that passes through MacReg/buffer storage
    and the write-back) — so faults in every forwarding path are
    observable.  The out family needs nothing (it *is* the propagation).
    """
    instr = variant.instruction()
    if build.control_word(variant.opcode).reg_we:
        return [Instruction(Opcode.OUT, regb=instr.dest)] * 3
    return []


class ObservabilityEngine:
    """Estimates O for every (component, mode) column, per variant."""

    def __init__(self, n_good: int = 25, seed: int = 1977,
                 build: CoreBuild = PAPER_BUILD):
        if n_good < 1:
            raise ConfigError("need at least one good simulation")
        self.n_good = n_good
        self.seed = seed
        self.build = build

    # ------------------------------------------------------------------
    def measure(self, variant: InstructionVariant,
                extra_wrapper: Sequence[Instruction] = ()) -> Dict[Tuple[str, int], float]:
        """Observability per (component, mode) column for ``variant``.

        ``extra_wrapper`` appends additional propagation instructions
        (Phase 2 uses this to test candidate observation sequences, e.g.
        ``outa`` to expose an accumulator).
        """
        rng = derive_rng(self.seed, variant.label)
        observed: Dict[Tuple[str, int], int] = {}
        injected: Dict[Tuple[str, int], int] = {}

        for _ in range(self.n_good):
            setup_rng = random.Random(rng.random())
            core = prepare_core(variant, setup_rng, build=self.build)
            snapshot = core.state.copy()
            stuck = dict(core.stuck_bits)

            wrapper = (observation_wrapper(variant, build=self.build)
                       + list(extra_wrapper))
            words = [encode(variant.instruction(setup_rng))]
            words += [encode(i) for i in wrapper]
            words += [_NOP_WORD] * max(0, WINDOW - len(words))

            # Clean run, keeping per-cycle traces and post-cycle state
            # snapshots: the latter are every injection's fork point and
            # its masked verdict.
            traces: List[Dict] = []
            clean_ports: List[int] = []
            post_states = []
            for word in words:
                trace: Dict = {}
                clean_ports.append(core.step(word, trace=trace).port)
                traces.append(trace)
                post_states.append(core.state.copy())

            for spec in self.build.components:
                cycle = component_cycle(spec.name, self.build)
                if cycle >= len(traces):
                    continue
                activity = traces[cycle].get(spec.name)
                if activity is None:
                    continue
                key = (spec.name, activity.mode)
                good_value = activity.output
                n_bits = spec.output_width
                for _ in range(ERRORS_PER_BIT * n_bits):
                    bad = rng.randrange(1 << n_bits)
                    if bad == good_value:
                        bad ^= 1 + rng.randrange((1 << n_bits) - 1)
                        bad &= mask(n_bits)
                    if spec.kind == "register":
                        # A storage error: corrupt the stored value after
                        # the instruction's EX cycle; it is observable only
                        # if a later instruction reads the element.
                        forked_state = post_states[cycle].copy()
                        forked_state.write(spec.state_key, bad)
                        start, overrides = cycle + 1, None
                    else:
                        forked_state = (post_states[cycle - 1] if cycle
                                        else snapshot).copy()
                        start, overrides = cycle, {spec.name: bad}
                    forked = self.build.make_core(forked_state, stuck)
                    injected[key] = injected.get(key, 0) + 1
                    if _observed(forked, words, start, overrides,
                                 clean_ports, post_states):
                        observed[key] = observed.get(key, 0) + 1

        return {
            key: observed.get(key, 0) / count
            for key, count in injected.items()
        }


def _observed(core: DspCore, words: Sequence[int], start: int,
              overrides: Optional[Dict[str, int]],
              clean_ports: Sequence[int],
              post_states: Sequence[CoreState]) -> bool:
    """Step the fork from cycle ``start`` (``overrides`` armed for that
    cycle only) to its verdict: ``True`` at the first port that differs
    from ``clean_ports``, ``False`` once its state equals the clean
    ``post_states`` entry of the same cycle or the window ends."""
    for t in range(start, len(words)):
        if core.step(words[t], overrides=overrides).port != clean_ports[t]:
            return True
        if core.state == post_states[t]:
            return False
        overrides = None
    return False

