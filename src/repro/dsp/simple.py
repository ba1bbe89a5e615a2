"""The simple DSP datapath of the paper's Figure 1 / Table 1.

A small accumulator machine used to introduce the testability metrics: a
free-running multiplier over the two data inputs, an ALU with three modes
(add, subtract, clear — the paper's "The component ALU has three modes"),
and an accumulator whose value is the core's observable output.

Instructions (the rows of Table 1, each metered under both an assumed-zero
and an assumed-random accumulator state):

========  =============================
``Add``   acc ← acc + in1
``Sub``   acc ← acc − in1
``Mac``   acc ← acc + in1·in2 (mod 2⁸)
``Clr``   acc ← 0
========  =============================

Both a behavioural model (with tracing/override hooks, mirroring
:class:`~repro.dsp.core.DspCore`) and a flat gate-level netlist are
provided; the pair is small enough for *exact* flat sequential fault
simulation, which is how the hierarchical core simulator is
cross-validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, Optional

from repro._util import mask, to_unsigned
from repro.dsp.mac import ComponentActivity, Overrides, Trace
from repro.logic.builder import NetlistBuilder
from repro.logic.gates import GateType
from repro.logic.netlist import Netlist
from repro.rtl.arith import ripple_adder
from repro.rtl.decoder import truth_table_logic
from repro.rtl.multiplier import multiplier_mod_reference

WIDTH = 8
_W_MASK = mask(WIDTH)


class SimpleOp(IntEnum):
    """2-bit opcode of the simple datapath."""

    ADD = 0
    SUB = 1
    MAC = 2
    CLR = 3


#: ALU mode encoding: matches Table 1's Add / Sub / Clear columns.
ALU_ADD, ALU_SUB, ALU_CLEAR = 0, 1, 2

#: Metrics-table columns of the simple datapath (Table 1's header).
SIMPLE_COLUMNS = (
    ("mult", 0),
    ("alu", ALU_ADD),
    ("alu", ALU_SUB),
    ("alu", ALU_CLEAR),
    ("acc", 0),
)

SIMPLE_COLUMN_LABELS = {
    ("mult", 0): "Mult",
    ("alu", ALU_ADD): "Add",
    ("alu", ALU_SUB): "Sub",
    ("alu", ALU_CLEAR): "Clear",
    ("acc", 0): "Acc",
}


def alu_reference(op2: int, op1: int, alu_mode: int) -> int:
    """Word-level ALU: ``op2 ± op1`` or clear."""
    if alu_mode == ALU_ADD:
        return to_unsigned(op2 + op1, WIDTH)
    if alu_mode == ALU_SUB:
        return to_unsigned(op2 - op1, WIDTH)
    if alu_mode == ALU_CLEAR:
        return 0
    raise ValueError(f"bad ALU mode {alu_mode}")


@dataclass
class SimpleState:
    """Architectural state: just the accumulator."""

    acc: int = 0

    def copy(self) -> "SimpleState":
        return SimpleState(acc=self.acc)


class SimpleDspCore:
    """Behavioural model of the Fig. 1 datapath.

    ``step`` applies one instruction with the two data inputs and returns
    the output-port value, which is the accumulator content *before* the
    update (i.e. the registered, observable value).
    """

    def __init__(self, state: Optional[SimpleState] = None,
                 stuck_bits: Optional[Dict] = None):
        self.state = state if state is not None else SimpleState()
        self.stuck_bits = dict(stuck_bits) if stuck_bits else {}
        self._apply_stuck_bits()

    def _apply_stuck_bits(self) -> None:
        for key, (and_mask, or_mask) in self.stuck_bits.items():
            if key != ("acc",):
                raise ValueError(f"unknown stuck-bit target {key!r}")
            self.state.acc = (self.state.acc & and_mask) | or_mask

    def step(self, op: SimpleOp, in1: int, in2: int,
             trace: Optional[Trace] = None,
             overrides: Optional[Overrides] = None) -> int:
        in1 &= _W_MASK
        in2 &= _W_MASK

        def emit(name: str, inputs: Dict[str, int], output: int,
                 mode: int = 0) -> int:
            if overrides and name in overrides:
                output = overrides[name]
            if trace is not None:
                trace[name] = ComponentActivity(inputs, output, mode)
            return output

        product = emit(
            "mult", {"a": in1, "b": in2},
            multiplier_mod_reference(in1, in2, WIDTH),
        )
        op1 = product if op is SimpleOp.MAC else in1
        alu_mode = {
            SimpleOp.ADD: ALU_ADD,
            SimpleOp.SUB: ALU_SUB,
            SimpleOp.MAC: ALU_ADD,
            SimpleOp.CLR: ALU_CLEAR,
        }[op]
        result = emit(
            "alu", {"a": self.state.acc, "b": op1, "mode": alu_mode},
            alu_reference(self.state.acc, op1, alu_mode),
            mode=alu_mode,
        )
        out_port = self.state.acc  # registered output, pre-update
        new_acc = emit(
            "acc", {"d": result, "q": self.state.acc}, result
        )
        self.state.acc = new_acc & _W_MASK
        self._apply_stuck_bits()
        return out_port


def make_simple_core() -> Netlist:
    """Flat gate-level netlist of the simple datapath.

    Buses: ``op`` (2), ``in1`` (8), ``in2`` (8) → ``out`` (8, the registered
    accumulator).  Assembled from the same structural pieces as the big
    core: a mod-2⁸ multiplier array, an add/sub ripple chain with a clear
    gate, and an 8-bit accumulator register.
    """
    b = NetlistBuilder("simple_core")
    op = b.input_bus("op", 2)
    in1 = b.input_bus("in1", WIDTH)
    in2 = b.input_bus("in2", WIDTH)

    # Accumulator DFFs (declared early so the ALU can read them).
    d_nets = [b.net(f"acc_d{i}") for i in range(WIDTH)]
    acc = [b.dff(d_nets[i], name=f"acc[{i}]") for i in range(WIDTH)]
    b.netlist.add_bus("acc", acc)

    # Control decode: op -> (sub, clear, sel_mult).
    table = {
        int(SimpleOp.ADD): 0b000,
        int(SimpleOp.SUB): 0b001,
        int(SimpleOp.MAC): 0b100,
        int(SimpleOp.CLR): 0b010,
    }
    sub, clear, sel_mult = truth_table_logic(b, list(op), 3, table, "dec")

    # Multiplier (mod 2^8), inlined from the standalone generator's shape.
    macc = [b.and_(in2[0], in1[j]) for j in range(WIDTH)]
    for i in range(1, WIDTH):
        pp = [b.and_(in2[i], in1[j]) for j in range(WIDTH - i)]
        upper, _ = ripple_adder(b, macc[i:], pp, b.const0(),
                                drop_final_carry=True)
        macc = macc[:i] + upper
    b.netlist.add_bus("product", macc)

    op1 = b.mux2_bus(sel_mult, in1, macc)
    inverted = [b.xor(bit, sub) for bit in op1]
    total, _ = ripple_adder(b, acc, inverted, sub, drop_final_carry=True)
    nclear = b.not_(clear)
    cleared = [b.and_(bit, nclear) for bit in total]
    for i in range(WIDTH):
        b.netlist.add_gate(GateType.BUF, d_nets[i], (cleared[i],))

    b.output_bus("out", acc)
    return b.finish()
