"""Registry of the DSP core's datapath components.

Each :class:`ComponentSpec` ties together the three views of one component:

1. the *behavioural* view — the trace entries emitted by
   :class:`~repro.dsp.mac.MacDatapath` / :class:`~repro.dsp.core.DspCore`
   (matched by ``name``, with input-port keys equal to the netlist bus
   names);
2. the *gate-level* view — a standalone netlist defining the component's
   stuck-at fault universe (combinational components);
3. the *metrics-table* view — the component's control-bit **modes**, each
   of which is a separate column in the paper's Tables 1–3 (e.g. the
   shifter contributes four columns, "the shifter has two control bits and
   therefore requires four columns").

Sequential storage components (accumulators, MacReg, buffer, temp) use an
exact word-level fault model (stuck storage/data/enable bits) instead of a
gate netlist; see DESIGN.md.

:func:`components_for` derives the registry of any family point from its
:class:`~repro.dsp.corespec.CoreSpec`; :data:`COMPONENTS`,
:func:`component_by_name` and :func:`all_columns` name the paper core's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

from repro.dsp.corespec import (
    AMT_WIDTH,
    PAPER_SPEC,
    CoreSpec,
    decoder_truth_table_for,
)
from repro.dsp.isa import CONTROL_WIDTH, OPCODE_WIDTH
from repro.logic.netlist import Netlist
from repro.rtl.arith import make_addsub
from repro.rtl.decoder import make_truth_table_logic
from repro.rtl.multiplier import make_multiplier
from repro.rtl.mux import make_gated_bus, make_mux2_bus
from repro.rtl.saturate import make_limiter
from repro.rtl.shifter import make_shifter
from repro.rtl.truncate import make_truncater


@dataclass(frozen=True)
class ComponentSpec:
    """Static description of one datapath component."""

    name: str
    kind: str                          # "comb" or "register"
    output_width: int
    input_ports: Tuple[Tuple[str, int], ...]
    modes: Tuple[int, ...]
    mode_labels: Tuple[Tuple[int, str], ...]
    factory: Optional[Callable[[], Netlist]] = None
    output_bus: str = "out"
    state_key: Optional[Tuple] = None  # stuck-bit key for registers
    #: Whether the component appears as metrics-table columns.  The control
    #: decoder is fault-simulated but not metered per instruction (its input
    #: is the constant opcode, so per-instruction entropy is meaningless).
    in_metrics_table: bool = True
    #: Input ports hard-wired to a constant in the datapath (e.g. the zero
    #: legs of MUXa/MUXb).  They carry no randomness by construction and
    #: are excluded from the controllability estimate.
    tied_ports: Tuple[str, ...] = ()

    def mode_label(self, mode: int) -> str:
        return dict(self.mode_labels).get(mode, str(mode))

    def netlist(self) -> Netlist:
        """The component's gate-level netlist (cached per spec).

        Keyed on the spec itself, not its name: family registries reuse
        component names at different widths, so a name-keyed cache would
        hand one core's netlist to another.
        """
        if self.factory is None:
            raise ValueError(f"component {self.name!r} has no gate netlist")
        return _cached_netlist(self)


@lru_cache(maxsize=None)
def _cached_netlist(spec: "ComponentSpec") -> Netlist:
    return spec.factory()


@lru_cache(maxsize=None)
def components_for(spec: CoreSpec) -> Tuple[ComponentSpec, ...]:
    """The component registry of one family point, in registry order.

    Widths and netlist factories follow the spec; absent optional
    components are simply not listed.  Cached per spec, so a point's
    registry -- and through :func:`_cached_netlist` each of its component
    netlists -- is built once.
    """
    ow, aw = spec.operand_width, spec.acc_width
    frac, drop = spec.acc_frac, spec.frac_drop
    truth_table = decoder_truth_table_for(spec)
    _onoff = ((0, "0"), (1, "1"))
    specs = [
        ComponentSpec(
            name="multiplier", kind="comb", output_width=aw,
            input_ports=(("a", ow), ("b", ow)), modes=(0,),
            mode_labels=((0, ""),),
            factory=lambda: make_multiplier(ow, aw), output_bus="p",
        ),
        ComponentSpec(
            name="shifter", kind="comb", output_width=aw,
            input_ports=(("data", aw), ("amt", AMT_WIDTH), ("mode", 2)),
            modes=(0, 1, 2, 3),
            mode_labels=((0, "00"), (1, "01"), (2, "10"), (3, "11")),
            factory=lambda: make_shifter(aw, AMT_WIDTH, style=spec.shifter),
        ),
        ComponentSpec(
            name="addsub", kind="comb", output_width=aw,
            input_ports=(("a", aw), ("b", aw), ("sub", 1)), modes=(0, 1),
            mode_labels=((0, "add"), (1, "sub")),
            factory=lambda: make_addsub(aw, adder=spec.adder),
            output_bus="result",
        ),
    ]
    if spec.has_truncater:
        specs.append(ComponentSpec(
            name="truncater", kind="comb", output_width=aw,
            input_ports=(("data", aw), ("en", 1)), modes=(0, 1),
            mode_labels=((0, "pass"), (1, "trunc")),
            factory=lambda: make_truncater(aw, frac),
        ))
    if spec.has_limiter:
        specs.append(ComponentSpec(
            name="limiter", kind="comb", output_width=ow,
            input_ports=(("data", aw),), modes=(0,), mode_labels=((0, ""),),
            factory=lambda: make_limiter(aw, ow, drop),
        ))
    # MUXa/MUXb have one leg tied to zero, so their real structure is a
    # clear gate (MUXa clears when muxa_zero=1, MUXb passes when
    # muxb_shift=1).  The limiter ignores the low ``drop`` fractional
    # bits, so its MUXg instance is that much narrower.
    specs += [
        ComponentSpec(
            name="muxa", kind="comb", output_width=aw,
            input_ports=(("data", aw), ("en", 1)), modes=(0, 1),
            mode_labels=_onoff,
            factory=lambda: make_gated_bus(aw, invert_enable=True),
        ),
        ComponentSpec(
            name="muxb", kind="comb", output_width=aw,
            input_ports=(("data", aw), ("en", 1)), modes=(0, 1),
            mode_labels=_onoff,
            factory=lambda: make_gated_bus(aw, invert_enable=False),
        ),
        ComponentSpec(
            name="muxg_shifter", kind="comb", output_width=aw,
            input_ports=(("a", aw), ("b", aw), ("sel", 1)), modes=(0, 1),
            mode_labels=((0, "A"), (1, "B")),
            factory=lambda: make_mux2_bus(aw),
        ),
        ComponentSpec(
            name="muxg_limiter", kind="comb", output_width=aw - drop,
            input_ports=(("a", aw - drop), ("b", aw - drop), ("sel", 1)),
            modes=(0, 1), mode_labels=((0, "A"), (1, "B")),
            factory=lambda: make_mux2_bus(aw - drop),
        ),
        ComponentSpec(
            name="mux7", kind="comb", output_width=ow,
            input_ports=(("a", ow), ("b", ow), ("sel", 1)), modes=(0, 1),
            mode_labels=((0, "mac"), (1, "buf")),
            factory=lambda: make_mux2_bus(ow),
        ),
        ComponentSpec(
            name="decoder", kind="comb", output_width=CONTROL_WIDTH,
            input_ports=(("in", OPCODE_WIDTH),), modes=(0,),
            mode_labels=((0, ""),),
            factory=lambda: make_truth_table_logic(
                OPCODE_WIDTH, CONTROL_WIDTH, truth_table),
            in_metrics_table=False,
        ),
        ComponentSpec(
            name="acca", kind="register", output_width=aw,
            input_ports=(("d", aw), ("en", 1)), modes=(0,),
            mode_labels=((0, ""),), state_key=("acc_a",),
        ),
        ComponentSpec(
            name="accb", kind="register", output_width=aw,
            input_ports=(("d", aw), ("en", 1)), modes=(0,),
            mode_labels=((0, ""),), state_key=("acc_b",),
        ),
        ComponentSpec(
            name="macreg", kind="register", output_width=ow,
            input_ports=(("d", ow),), modes=(0,), mode_labels=((0, ""),),
            state_key=("macreg",),
        ),
        ComponentSpec(
            name="buffer", kind="register", output_width=ow,
            input_ports=(("d", ow),), modes=(0,), mode_labels=((0, ""),),
            state_key=("buffer",),
        ),
        ComponentSpec(
            name="temp", kind="register", output_width=ow,
            input_ports=(("d", ow),), modes=(0,), mode_labels=((0, ""),),
            state_key=("temp",),
        ),
    ]
    return tuple(specs)


#: The paper core's registry (the same objects as
#: ``repro.dsp.family.PAPER_BUILD.components``).
COMPONENTS: Tuple[ComponentSpec, ...] = components_for(PAPER_SPEC)

_BY_NAME = {spec.name: spec for spec in COMPONENTS}


def component_by_name(name: str) -> ComponentSpec:
    """Look up a :class:`ComponentSpec`; raises ``KeyError`` if unknown."""
    return _BY_NAME[name]


def columns_of(components: Tuple[ComponentSpec, ...],
               metrics_only: bool = True) -> List[Tuple[str, int]]:
    """All (component, mode) columns of a registry, in registry order.

    With ``metrics_only`` (default) only components that appear in the
    metrics table are listed; pass ``False`` for the full fault-simulation
    component set.
    """
    return [
        (spec.name, mode)
        for spec in components
        if spec.in_metrics_table or not metrics_only
        for mode in spec.modes
    ]


def all_columns(metrics_only: bool = True) -> List[Tuple[str, int]]:
    """The paper registry's columns (see :func:`columns_of`)."""
    return columns_of(COMPONENTS, metrics_only)
