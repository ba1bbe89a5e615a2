"""Phase 3 — optional gate-level enhancements (paper §2.4 and §3.4).

Three enhancements, available once gate-level knowledge exists:

1. **Control-bit constraints** (experiment E2): fault-simulate a component
   with some of its control-bit modes excluded; modes whose exclusion
   loses almost no coverage (the shifter's "10"/"11") can be dropped from
   the metrics table.

2. **Execution-frequency boosting** (experiment E3): instructions that
   exercise slow-to-cover components (the paper names the shifter and
   adder) are repeated inside the loop, so "the fault coverage [rises]
   more rapidly, allowing us to shorten our test time".

3. **Random-resistant one-shots** (experiment E4): component-level ATPG
   patterns are delivered by dedicated instruction sequences stored
   outside the loop and executed once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro import obs
from repro.dsp.components import ComponentSpec, component_by_name
from repro.faults.combsim import CombFaultSimulator
from repro.faults.model import Fault, collapse_faults
from repro.selftest.program import ProgramLine, TestProgram
from repro.runtime.errors import ConfigError

Column = Tuple[str, int]


# ----------------------------------------------------------------------
# Enhancement 1: control-bit constraint study
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConstraintResult:
    """Fault coverage of one component under a control constraint."""

    component: str
    allowed_modes: Tuple[int, ...]
    n_faults: int
    n_detected: int
    n_undetected: int

    @property
    def fault_coverage(self) -> float:
        return self.n_detected / self.n_faults if self.n_faults else 1.0

    def describe(self) -> str:
        modes = ",".join(str(m) for m in self.allowed_modes)
        return (f"{self.component} modes {{{modes}}}: "
                f"{self.n_undetected} faults undetected, "
                f"FC {self.fault_coverage:.2%}")


def _random_port_patterns(spec: ComponentSpec, allowed_modes: Sequence[int],
                          n_patterns: int, rng: random.Random
                          ) -> Dict[str, List[int]]:
    patterns: Dict[str, List[int]] = {
        name: [] for name, _ in spec.input_ports
    }
    for _ in range(n_patterns):
        for name, width in spec.input_ports:
            if name == "mode":
                patterns[name].append(rng.choice(list(allowed_modes)))
            else:
                patterns[name].append(rng.randrange(1 << width))
    return patterns


def constraint_study(
    component: str = "shifter",
    n_patterns: int = 2048,
    seed: int = 31,
) -> List[ConstraintResult]:
    """The paper's §3.4 study: component fault coverage per mode constraint.

    After the unconstrained baseline, the allowed-mode sets reproduce the
    paper's five shifter cases: each single mode excluded, plus "only 00
    and 01".
    """
    with obs.span("selftest.phase3", key=component), \
            obs.section("selftest.phase3"):
        return _constraint_study(component, n_patterns, seed)


def _constraint_study(component, n_patterns, seed) -> List[ConstraintResult]:
    try:
        spec = component_by_name(component)
    except KeyError:
        spec = None
    if spec is None or spec.kind != "comb":
        raise ConfigError("the constraint study needs a combinational "
                          f"component, got {component!r}")
    all_modes = list(spec.modes)
    constraints = [list(all_modes)]  # unconstrained baseline first
    constraints += [
        [m for m in all_modes if m != excluded] for excluded in all_modes
    ]
    constraints.append(list(all_modes[:2]))  # only the first two modes
    fault_list = collapse_faults(spec.netlist())
    sim = CombFaultSimulator(spec.netlist(), fault_list)
    results: List[ConstraintResult] = []
    for allowed in constraints:
        rng = random.Random((seed, tuple(allowed)).__repr__())
        patterns = _random_port_patterns(spec, allowed, n_patterns, rng)
        block = 256
        first = sim.run_with_dropping([
            {name: words[i:i + block] for name, words in patterns.items()}
            for i in range(0, n_patterns, block)
        ])
        detected = sum(1 for v in first.values() if v is not None)
        results.append(ConstraintResult(
            component=component,
            allowed_modes=tuple(allowed),
            n_faults=len(fault_list.faults),
            n_detected=detected,
            n_undetected=len(fault_list.faults) - detected,
        ))
    return results


def discardable_modes(results: Sequence[ConstraintResult],
                      loss_budget: int = 16) -> List[int]:
    """Modes whose exclusion costs at most ``loss_budget`` faults *beyond*
    the unconstrained baseline.

    The paper: excluding shifter "10"/"11" loses 1 and 3 faults, so those
    columns can be discarded from the metrics table, while excluding "01"
    leaves 1829 faults undetected.
    """
    spec_modes = set()
    for result in results:
        spec_modes.update(result.allowed_modes)
    baseline = min(result.n_undetected for result in results
                   if set(result.allowed_modes) == spec_modes)
    discardable = []
    for result in results:
        excluded = spec_modes - set(result.allowed_modes)
        loss = result.n_undetected - baseline
        if len(excluded) == 1 and loss <= loss_budget:
            discardable.append(excluded.pop())
    return sorted(discardable)


# ----------------------------------------------------------------------
# Enhancement 2: execution-frequency boosting
# ----------------------------------------------------------------------
#: Fewest faults a component needs before its coverage rate ranks it
#: slow.
SLOW_MIN_FAULTS = 40


def slow_components(result, max_components: int = 2) -> List[str]:
    """Components with the worst coverage in a fault-simulation run.

    This is the paper's selection rule: "Through fault simulation we are
    able to find out how many test vectors it takes for sufficient fault
    coverage to be achieved on the different components" — the slow ones
    (the paper found the shifter and adder) get their instructions
    repeated inside the loop.

    ``result`` is a :class:`~repro.faults.hierarchical.HierarchicalResult`
    from a short calibration run.
    """
    report = result.coverage_report()
    rates = [
        (detected / total, component)
        for component, (detected, total) in report.by_component.items()
        if total >= SLOW_MIN_FAULTS
    ]
    rates.sort()
    return [component for _, component in rates[:max_components]]


def boost_frequency(program: TestProgram,
                    components: Sequence[str] = ("shifter", "addsub"),
                    repeats: int = 2) -> TestProgram:
    """Repeat (in the loop) the instructions that cover ``components``.

    Returns a new program where each loop line covering one of the named
    components appears ``repeats`` times (each followed by its immediate
    ``out`` wrapper if it had one).  One-shot lines are untouched.
    """
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    boosted = TestProgram()
    lines = program.lines
    for i, line in enumerate(lines):
        boosted.lines.append(line)
        if not line.in_loop:
            continue
        targets = {c[0] for c in line.covers}
        if not targets & set(components):
            continue
        follower = lines[i + 1] if i + 1 < len(lines) else None
        has_wrapper = (follower is not None and follower.phase == "wrapper"
                       and follower.in_loop)
        for _ in range(repeats - 1):
            boosted.lines.append(ProgramLine(
                item=line.item,
                comment=(line.comment + " (boosted)").strip(),
                phase="phase3",
                covers=line.covers,
            ))
            if has_wrapper:
                boosted.lines.append(ProgramLine(
                    item=follower.item, comment="observe result",
                    phase="phase3",
                ))
    return boosted


# ----------------------------------------------------------------------
# Enhancement 3: random-resistant one-shot sequences
# ----------------------------------------------------------------------
@dataclass
class OneShotSequence:
    """An ATPG-pattern delivery sequence for one random-resistant fault."""

    component: str
    fault: Fault
    lines: List[ProgramLine] = field(default_factory=list)

    def describe(self) -> str:
        spec = component_by_name(self.component)
        return (f"{self.component}/{self.fault.describe(spec.netlist())}: "
                f"{len(self.lines)} instructions")


def append_one_shots(program: TestProgram,
                     sequences: Sequence[OneShotSequence]) -> TestProgram:
    """Attach one-shot ATPG sequences to a program (executed once)."""
    extended = TestProgram(lines=list(program.lines))
    for sequence in sequences:
        for line in sequence.lines:
            extended.lines.append(ProgramLine(
                item=line.item,
                comment=line.comment or f"ATPG {sequence.component}",
                phase="phase3",
                covers=line.covers,
                in_loop=False,
            ))
    return extended
