"""Hierarchical fault simulation of the full DSP core.

This is the project's substitute for Tetramax fault-grading the synthesised
core (see DESIGN.md).  It exploits the same decomposition the paper's
metrics do:

1. **Local detection (gate level).**  The behavioural core is simulated
   once over the instruction stream, recording the clean core state
   before every cycle and every combinational component's input words
   per cycle.  Each component's gate-level netlist is then
   fault-simulated pattern-parallel against that recorded stream,
   yielding, per fault, the cycles at which the component's output is
   corrupted (its excitations).

2. **Exact propagation (mixed level).**  For a fault first excited at
   cycle *t*, the core state at *t* is still fault-free, so the simulator
   forks the behavioural core from a copy of the clean state recorded
   for *t* and runs forward with the fault *continuously* injected — the
   component's output is overridden each cycle with its faulty word under
   the fork's inputs.  The component is combinational, so wherever those
   inputs equal the ones the clean run recorded for the cycle, the word
   is read from step 1's pattern-parallel result; only the other cycles
   are evaluated at gate level.  The fault is detected when the
   output-port stream diverges from the fault-free run within the
   propagation window.

3. **Storage faults (word level).**  Register/accumulator/register-file
   faults use exact word-level models: stuck storage bits are persistent
   ``stuck_bits`` on the forked core; stuck data/enable input bits are
   per-cycle callable overrides.

Every fork is stepped only while its state differs from the clean run's.
A fork whose state equals the clean state of a cycle behaves like the
clean run until the fault next changes a value: a single-cycle injection
never does, so it ends there unobserved; a continuous injection and a
stuck storage bit jump to the clean state of the next cycle at which
they change a value (an excitation, or a clean stored value the stuck
bit disagrees with), or end if none is left.

The only approximation is the bounded propagation window per injection
start (a fault not observed within ``propagation_window`` cycles of an
excitation retries at a later excitation with clean state); this slightly
*under*-estimates coverage and is validated against exact flat sequential
fault simulation on the simple datapath.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro import obs
from repro._util import mask
from repro.dsp.components import ComponentSpec
from repro.dsp.core import CoreState, DspCore
from repro.dsp.family import PAPER_BUILD, CoreBuild
from repro.faults.combsim import CombFaultSimulator
from repro.faults.coverage import CoverageReport
from repro.faults.model import Fault, collapse_faults
from repro.logic.netlist import Netlist
from repro.logic.simulator import unpack_output


# ----------------------------------------------------------------------
# Fault identities
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class ComponentFault:
    """A stuck-at fault inside a combinational component's netlist.

    ``netlist`` is the one the fault was collapsed from, which names its
    net on every family point; it takes no part in equality or order.
    """

    component: str
    fault: Fault
    netlist: Netlist = field(compare=False, repr=False)

    def describe(self) -> str:
        return f"{self.component}/{self.fault.describe(self.netlist)}"


@dataclass(frozen=True, order=True)
class StorageFault:
    """A word-level fault on a storage element.

    ``kind`` is ``"q"`` (stuck storage bit), ``"d"`` (stuck data-input
    bit) or ``"en"`` (stuck enable).  ``target`` is the component name for
    datapath registers or ``("reg", i)`` for register-file cells.
    """

    target: Tuple
    kind: str
    bit: int
    stuck_at: int

    def describe(self) -> str:
        name = "/".join(str(p) for p in self.target)
        return f"{name}.{self.kind}[{self.bit}] sa{self.stuck_at}"


def fault_unit_id(fault) -> str:
    """A stable string key for a fault, usable as a campaign unit id.

    Stable across processes (no object identity, no hash randomisation),
    which is what lets a resumed campaign match checkpoint records back
    to fault objects.
    """
    if isinstance(fault, ComponentFault):
        return (f"comb:{fault.component}:{fault.fault.net}"
                f":sa{fault.fault.stuck_at}")
    target = "/".join(str(p) for p in fault.target)
    return f"storage:{target}:{fault.kind}:{fault.bit}:sa{fault.stuck_at}"


# ----------------------------------------------------------------------
# The fault universe
# ----------------------------------------------------------------------
class DspFaultUniverse:
    """The complete stuck-at fault population of the DSP core.

    ``build`` selects the family point: its component registry (per-spec
    widths, optional truncater/limiter), register-file shape and core
    factory.
    """

    def __init__(self, components: Optional[Iterable[str]] = None,
                 include_regfile: bool = True,
                 build: CoreBuild = PAPER_BUILD):
        self.build = build
        names = list(components) if components is not None else \
            [spec.name for spec in build.components]
        self.comb_faults: Dict[str, List[Fault]] = {}
        self.comb_simulators: Dict[str, CombFaultSimulator] = {}
        self.storage_faults: List[StorageFault] = []
        from repro.lint.netlist_rules import warn_on_netlist
        for name in names:
            spec = self.spec(name)
            if spec.kind == "comb":
                netlist = spec.netlist()
                # Warn-only structural screening (lint NET* error rules):
                # a multi-driven or floating-bus netlist silently corrupts
                # fault grading, so surface it at universe construction.
                warn_on_netlist(netlist, context=f"fault universe: {name}")
                fault_list = collapse_faults(netlist)
                # Component-input faults model the interconnect, which is
                # already covered by the driving component's output faults
                # (or by storage faults) — keeping them would double count.
                pi_nets = set(netlist.inputs)
                internal = [f for f in fault_list.faults
                            if f.net not in pi_nets]
                self.comb_faults[name] = internal
                self.comb_simulators[name] = CombFaultSimulator(
                    netlist, fault_list)
            else:
                self.storage_faults.extend(_register_faults(spec))
        if include_regfile:
            for reg in range(build.spec.n_registers):
                for bit in range(build.spec.operand_width):
                    for polarity in (0, 1):
                        self.storage_faults.append(
                            StorageFault(("reg", reg), "q", bit, polarity)
                        )

    def spec(self, name: str) -> ComponentSpec:
        """The component spec for ``name`` in this universe's registry."""
        return self.build.component_by_name(name)

    def all_faults(self) -> List:
        faults: List = [
            ComponentFault(name, f, self.comb_simulators[name].netlist)
            for name, flist in sorted(self.comb_faults.items())
            for f in flist
        ]
        faults.extend(self.storage_faults)
        return faults

    def component_of(self, fault) -> str:
        if isinstance(fault, ComponentFault):
            return fault.component
        if fault.target[0] == "reg":
            return "regfile"
        return str(fault.target[0])

    def counts_by_component(self) -> Dict[str, int]:
        counts: Dict[str, int] = {
            name: len(flist) for name, flist in self.comb_faults.items()
        }
        for fault in self.storage_faults:
            counts[self.component_of(fault)] = \
                counts.get(self.component_of(fault), 0) + 1
        return counts


def _register_faults(spec: ComponentSpec) -> List[StorageFault]:
    faults: List[StorageFault] = []
    width = spec.output_width
    has_enable = any(name == "en" for name, _ in spec.input_ports)
    for bit in range(width):
        for polarity in (0, 1):
            faults.append(StorageFault((spec.name,), "q", bit, polarity))
            faults.append(StorageFault((spec.name,), "d", bit, polarity))
    if has_enable:
        faults.append(StorageFault((spec.name,), "en", 0, 0))
        faults.append(StorageFault((spec.name,), "en", 0, 1))
    return faults


# ----------------------------------------------------------------------
# Storage-fault execution helpers
# ----------------------------------------------------------------------
def _stuck_bits(fault: StorageFault, build: CoreBuild) -> Dict[Tuple, Tuple]:
    """The ``stuck_bits`` of a ``q`` fault: its state key's masks."""
    if fault.target[0] == "reg":
        key: Tuple = fault.target
        width = build.spec.operand_width
    else:
        spec = build.component_by_name(fault.target[0])
        key, width = spec.state_key, spec.output_width
    if fault.stuck_at:
        and_mask, or_mask = mask(width), 1 << fault.bit
    else:
        and_mask, or_mask = mask(width) & ~(1 << fault.bit), 0
    return {key: (and_mask, or_mask)}


def storage_fault_core(fault: StorageFault,
                       build: CoreBuild = PAPER_BUILD) -> DspCore:
    """A core whose behaviour includes ``fault`` permanently."""
    if fault.kind == "q":
        return build.make_core(stuck_bits=_stuck_bits(fault, build))
    # d / en faults: per-cycle callable override on the traced component.
    name = fault.target[0]

    def override(inputs: Dict[str, int]) -> int:
        d = inputs["d"]
        if fault.kind == "d":
            if fault.stuck_at:
                d |= 1 << fault.bit
            else:
                d &= ~(1 << fault.bit)
            en = inputs.get("en", 1)
        else:  # en fault
            en = fault.stuck_at
        return d if en else inputs.get("q", 0)

    core = build.make_core()
    core_overrides = {name: override}
    # Wrap step to always apply the override.
    original_step = core.step

    def step(word, overrides=None, trace=None):
        merged = dict(core_overrides)
        if overrides:
            merged.update(overrides)
        return original_step(word, overrides=merged, trace=trace)

    core.step = step  # type: ignore[method-assign]
    return core


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class HierarchicalResult:
    """Outcome of a hierarchical fault-grading run."""

    first_detect: Dict[object, Optional[int]]
    n_vectors: int
    universe: DspFaultUniverse = field(repr=False, default=None)

    @property
    def detected(self) -> List:
        return [f for f, c in self.first_detect.items() if c is not None]

    @property
    def undetected(self) -> List:
        return [f for f, c in self.first_detect.items() if c is None]

    def coverage_report(self, name: str = "hierarchical") -> CoverageReport:
        by_component: Dict[str, Tuple[int, int]] = {}
        for fault, cycle in self.first_detect.items():
            comp = self.universe.component_of(fault) if self.universe \
                else "core"
            det, tot = by_component.get(comp, (0, 0))
            by_component[comp] = (det + (cycle is not None), tot + 1)
        return CoverageReport(
            name=name,
            n_faults=len(self.first_detect),
            n_detected=len(self.detected),
            n_vectors=self.n_vectors,
            by_component=by_component,
        )


def _set_bit_positions(mask_bits: int) -> List[int]:
    """Positions of the set bits of ``mask_bits``, ascending."""
    positions = []
    while mask_bits:
        low = mask_bits & -mask_bits
        positions.append(low.bit_length() - 1)
        mask_bits ^= low
    return positions


def _spread(items: List[int], k: int) -> List[int]:
    """Up to ``k`` items sampled evenly across ``items`` (first included)."""
    if k <= 0:
        return []
    if len(items) <= k:
        return items
    if k == 1:
        return items[:1]
    step = (len(items) - 1) / (k - 1)
    picked = []
    for i in range(k):
        idx = round(i * step)
        if not picked or items[idx] != picked[-1]:
            picked.append(items[idx])
    return picked


# ----------------------------------------------------------------------
# The recorded fault-free trace
# ----------------------------------------------------------------------
@dataclass
class TraceContext:
    """The fault-free execution trace, recorded once and shared by every
    grading unit.

    Holds the clean output-port stream, the clean core state before
    every cycle (``states[t]``; a fork copies it, and compares its own
    state with it to tell whether it is back on the clean run), and each
    combinational component's recorded input stream per block.  Grading
    any single fault against this context is an independent, idempotent
    operation — the decomposition the resilient campaign runner builds
    on.
    """

    words: List[int]
    clean_ports: List[int]
    states: List[CoreState] = field(repr=False, default_factory=list)
    block_records: Dict[int, Dict[str, Dict]] = field(repr=False,
                                                      default_factory=dict)
    block_size: int = 256
    _good_cache: Dict[Tuple[str, int], List[int]] = field(
        repr=False, default_factory=dict)

    @property
    def block_starts(self) -> List[int]:
        return sorted(self.block_records)

    def block_end(self, block_start: int) -> int:
        return min(block_start + self.block_size, len(self.words))

    def good_values(self, sim: CombFaultSimulator, name: str,
                    block_start: int) -> List[int]:
        """The good-machine net values for one (component, block), cached
        so grading many faults of the same component shares the work."""
        key = (name, block_start)
        if key not in self._good_cache:
            rec = self.block_records[block_start][name]
            self._good_cache[key] = sim.good_values(
                rec["inputs"], len(rec["cycles"])
            )
        return self._good_cache[key]


# ----------------------------------------------------------------------
# The simulator
# ----------------------------------------------------------------------
#: Tier-1 (single-cycle injection) starts tried per excited block.  A
#: campaign fingerprint records the tier rules only off these defaults.
MAX_STARTS_PER_BLOCK = 8
#: Tier-2 (continuous injection) starts tried per excited block.
MAX_CONTINUOUS_STARTS = 2


class HierarchicalFaultSimulator:
    """Grades the DSP core's fault universe against an instruction stream.

    The work decomposes into :meth:`prepare` (one fault-free recording
    pass) plus one independent grading call per fault
    (:meth:`grade_comb_fault` / :meth:`grade_storage_fault`);
    :meth:`run` simply executes every unit in order.  The campaign layer
    (:mod:`repro.runtime.campaigns`) executes the same units with
    checkpointing, timeouts and resume.
    """

    def __init__(
        self,
        universe: Optional[DspFaultUniverse] = None,
        block_size: int = 256,
        propagation_window: int = 48,
        max_starts_per_block: int = MAX_STARTS_PER_BLOCK,
        max_continuous_starts: int = MAX_CONTINUOUS_STARTS,
    ):
        self.universe = universe if universe is not None \
            else DspFaultUniverse()
        self.build = self.universe.build
        self.block_size = block_size
        self.propagation_window = propagation_window
        self.max_starts_per_block = max_starts_per_block
        self.max_continuous_starts = max_continuous_starts

    # ------------------------------------------------------------------
    def run(self, words: List[int],
            storage_fault_max_cycles: Optional[int] = None
            ) -> HierarchicalResult:
        """Grade every fault in the universe against ``words``.

        ``storage_fault_max_cycles`` caps the differential run length for
        word-level storage faults (default: the full stream).
        """
        ctx = self.prepare(words)
        first_detect: Dict[object, Optional[int]] = {}
        for name, faults in self.universe.comb_faults.items():
            netlist = self.universe.comb_simulators[name].netlist
            for fault in faults:
                first_detect[ComponentFault(name, fault, netlist)] = \
                    self.grade_comb_fault(ctx, name, fault)
        for fault in self.universe.storage_faults:
            first_detect[fault] = self.grade_storage_fault(
                ctx, fault, storage_fault_max_cycles
            )
        return HierarchicalResult(
            first_detect=first_detect, n_vectors=len(words),
            universe=self.universe,
        )

    # ------------------------------------------------------------------
    def prepare(self, words: List[int]) -> TraceContext:
        """One fault-free pass: record ports, the state before every
        cycle and per-block component input streams."""
        with obs.span("hier.prepare", words=len(words)), \
                obs.section("sim.hier.prepare"):
            return self._prepare(words)

    def _prepare(self, words: List[int]) -> TraceContext:
        names = list(self.universe.comb_faults)
        core = self.build.make_core()
        clean_ports: List[int] = []
        states: List[CoreState] = []
        block_records: Dict[int, Dict[str, Dict]] = {}
        n = len(words)
        for block_start in range(0, n, self.block_size):
            block_words = words[block_start:block_start + self.block_size]
            records: Dict[str, Dict] = {
                name: {"cycles": [], "inputs": {}} for name in names
            }
            for offset, word in enumerate(block_words):
                t = block_start + offset
                states.append(core.state.copy())
                trace: Dict = {}
                clean_ports.append(core.step(word, trace=trace).port)
                for name in names:
                    activity = trace.get(name)
                    if activity is None:
                        continue
                    rec = records[name]
                    rec["cycles"].append(t)
                    for port, value in activity.inputs.items():
                        rec["inputs"].setdefault(port, []).append(value)
            block_records[block_start] = records
        return TraceContext(
            words=words, clean_ports=clean_ports, states=states,
            block_records=block_records, block_size=self.block_size,
        )

    # ------------------------------------------------------------------
    def grade_comb_fault(self, ctx: TraceContext, name: str,
                         fault: Fault) -> Optional[int]:
        """First cycle at which ``fault`` is detected, or ``None``."""
        with obs.section("sim.hier.grade_comb"):
            return self._grade_comb_fault(ctx, name, fault)

    def _grade_comb_fault(self, ctx: TraceContext, name: str,
                          fault: Fault) -> Optional[int]:
        sim = self.universe.comb_simulators[name]
        spec = self.universe.spec(name)
        output_nets = sim.netlist.buses[spec.output_bus]
        for block_start in ctx.block_starts:
            rec = ctx.block_records[block_start].get(name)
            if rec is None or not rec["cycles"]:
                continue
            cycles: List[int] = rec["cycles"]
            n_patterns = len(cycles)
            good = ctx.good_values(sim, name, block_start)
            detected_mask, changed = sim.simulate_fault(fault, good,
                                                        n_patterns)
            if not detected_mask:
                continue
            # Propagation stays within the excitation's block, matching
            # the original block-at-a-time grading exactly.
            limit = ctx.block_end(block_start)
            output_bits = [changed.get(n, good[n]) for n in output_nets]
            # Tier 1 — cheap single-cycle injections.  Spread the start
            # attempts across the block: consecutive excitations usually
            # sit in the same loop context, so retrying the immediate
            # neighbour rarely helps.
            indices = _set_bit_positions(detected_mask)
            for idx in _spread(indices, self.max_starts_per_block):
                faulty_word = unpack_output(output_bits, idx)
                t = cycles[idx]
                if self._propagates(name, faulty_word, t, ctx, limit):
                    return t
            # Tier 2 — exact continuous injection (mixed-level): needed
            # when single-cycle errors are masked, e.g. absorbed by
            # limiter saturation until they accumulate in an accumulator.
            excited = [cycles[i] for i in indices]
            for idx in _spread(indices, self.max_continuous_starts):
                if self._propagates_continuous(name, spec, sim, fault, rec,
                                               output_bits, excited, idx,
                                               ctx, limit):
                    return cycles[idx]
        return None

    def _fork_at(self, ctx: TraceContext, t: int,
                 stuck_bits: Optional[Dict[Tuple, Tuple]] = None) -> DspCore:
        """A core in a copy of the clean state before cycle ``t``, with
        ``stuck_bits`` applied."""
        return self.build.make_core(ctx.states[t].copy(), stuck_bits)

    def _fork_cycles(self, ctx: TraceContext, t: int, end: int, next_change,
                     stuck_bits: Optional[Dict[Tuple, Tuple]] = None):
        """Yield ``(cycle, fork)`` for each cycle in ``[t, end)`` at which
        a fault's fork must be stepped.

        ``next_change(c)`` is the first cycle at or after ``c`` at which
        the fault can change a value of the clean run, or ``None``.  A
        fork whose state equals the clean state of a cycle follows the
        clean run until then, so it is not stepped: it jumps to that
        cycle (:meth:`_fork_at`), or the run ends there.
        """
        fork = None
        while t < end:
            if fork is None or fork.state == ctx.states[t]:
                t = next_change(t)
                if t is None or t >= end:
                    return
                fork = self._fork_at(ctx, t, stuck_bits)
            yield t, fork
            t += 1

    def _propagates(self, name, faulty_word, t, ctx: TraceContext,
                    limit: int) -> bool:
        """Does the recorded faulty output at cycle ``t`` reach the port?

        The erroneous word — taken from the pattern-parallel local fault
        simulation — is injected for cycle ``t`` only; the forked core then
        runs fault-free over the propagation window.  (Single-cycle
        injection slightly under-approximates a persistent fault; multiple
        start cycles per block compensate.  See the module docstring.)
        A fork whose state equals the clean state of a cycle is back on
        the clean run for good, so the check ends there, unobserved.
        """
        end = min(limit, t + self.propagation_window)
        overrides = {name: faulty_word}
        # The injection changes a value at cycle ``t`` only.
        for cycle, fork in self._fork_cycles(
                ctx, t, end, lambda c: t if c == t else None):
            if fork.step(ctx.words[cycle],
                         overrides=overrides if cycle == t else None
                         ).port != ctx.clean_ports[cycle]:
                return True
        return False

    def _propagates_continuous(self, name, spec, sim, fault, rec,
                               output_bits, excited, idx,
                               ctx: TraceContext, limit: int) -> bool:
        """Exact mixed-level check from the block's excitation ``idx``:
        the component's output is overridden *every* cycle of the window
        with its faulty evaluation under the fork's live inputs.

        The component is combinational, so equal inputs give an equal
        faulty word whatever the fork's state.  On a cycle whose inputs
        equal the ones the clean run recorded (``rec``), the word is
        read from ``output_bits``, the block's pattern-parallel faulty
        outputs; only a cycle whose inputs differ, or that the clean run
        did not record, is evaluated at gate level.  A fork back on the
        clean run therefore reads the clean word until the next of the
        block's ``excited`` cycles, and jumps there.
        """
        cycles: List[int] = rec["cycles"]
        recorded = list(rec["inputs"].items())
        t = cycles[idx]
        evaluations = gate_level = 0

        def faulty_output(inputs: Dict[str, int]) -> int:
            nonlocal evaluations, gate_level
            evaluations += 1
            # ``cycle`` is the loop variable below: the cycle being stepped.
            i = bisect_left(cycles, cycle)
            if i < len(cycles) and cycles[i] == cycle and all(
                    inputs[port] == words[i] for port, words in recorded):
                return unpack_output(output_bits, i)
            gate_level += 1
            return sim.faulty_output_word(fault, inputs, spec.output_bus)

        def next_excitation(c: int) -> Optional[int]:
            k = bisect_left(excited, c)
            return excited[k] if k < len(excited) else None

        overrides = {name: faulty_output}
        end = min(limit, t + self.propagation_window)
        observed = False
        for cycle, fork in self._fork_cycles(ctx, t, end, next_excitation):
            if fork.step(ctx.words[cycle], overrides=overrides).port \
                    != ctx.clean_ports[cycle]:
                observed = True
                break
        obs.incr("sim.hier.tier2_checks")
        obs.incr("sim.hier.tier2_cycles", evaluations)
        obs.incr("sim.hier.tier2_gate_cycles", gate_level)
        return observed

    # ------------------------------------------------------------------
    def grade_storage_fault(self, ctx: TraceContext, fault: StorageFault,
                            max_cycles: Optional[int] = None
                            ) -> Optional[int]:
        """Differential word-level run for one storage fault.

        A ``d`` or ``en`` fault overrides the register's input every
        cycle, so its core steps from cycle 0.  A stuck storage bit
        changes the clean run only on a cycle whose clean stored value
        it disagrees with; its fork starts at the first such cycle and,
        back on the clean run, skips to the next.
        """
        with obs.section("sim.hier.grade_storage"):
            limit = len(ctx.words) if max_cycles is None \
                else min(max_cycles, len(ctx.words))
            if fault.kind != "q":
                faulty = storage_fault_core(fault, build=self.build)
                for t in range(limit):
                    if faulty.step(ctx.words[t]).port != ctx.clean_ports[t]:
                        return t
                return None
            stuck_bits = _stuck_bits(fault, self.build)
            ((key, (and_mask, or_mask)),) = stuck_bits.items()

            def next_change(c: int) -> Optional[int]:
                for t in range(c, limit):
                    value = ctx.states[t].read(key)
                    if (value & and_mask) | or_mask != value:
                        return t
                return None

            for t, fork in self._fork_cycles(ctx, 0, limit, next_change,
                                             stuck_bits):
                if fork.step(ctx.words[t]).port != ctx.clean_ports[t]:
                    return t
            return None
