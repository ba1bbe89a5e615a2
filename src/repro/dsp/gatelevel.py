"""Flat gate-level assembly of the full DSP core (paper Fig. 6).

Builds the complete four-stage pipelined core as a single netlist from the
structural RTL library: instruction latch, control decoder, 16×8 register
file with forwarding muxes, the full MAC datapath (multiplier, shifter,
adder/subtracter, truncater, accumulators, limiter), MacReg/buffer/temp
registers, MUX7 and the 8-bit output port.

This is the netlist the sequential-ATPG baseline (experiment E5) attacks,
and a cross-check for the behavioural model: cycle-for-cycle equivalence
against :class:`~repro.dsp.core.DspCore` is asserted by the integration
tests.

Interface buses:

* input ``instr`` (17) — the instruction word from the template
  architecture;
* outputs ``out`` (8) and ``out_valid`` (1) — the observable port.

:func:`make_gatelevel_core` builds any core-family point from its
:class:`~repro.dsp.corespec.CoreSpec` (widths and register count then
follow the spec); the default spec is the paper core described above.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.dsp.corespec import (
    AMT_WIDTH,
    PAPER_SPEC,
    CoreSpec,
    decoder_truth_table_for,
)
from repro.dsp.isa import CONTROL_WIDTH
from repro.logic.builder import NetlistBuilder
from repro.logic.gates import GateType
from repro.logic.netlist import Netlist
from repro.rtl.arith import adder_into
from repro.rtl.decoder import truth_table_logic
from repro.rtl.multiplier import multiplier_into
from repro.rtl.register import register_file_into
from repro.rtl.saturate import limiter_into
from repro.rtl.shifter import dedicated_shifter_into, shifter_into
from repro.rtl.truncate import truncater_into

#: Bit positions inside the packed control word (see ControlWord.pack).
_CTRL_BITS = {
    "muxa_zero": 0, "muxb_shift": 1, "sub": 2, "shmode0": 3, "shmode1": 4,
    "trunc": 5, "accsel": 6, "acc_we": 7, "reg_we": 8, "mux7_buffer": 9,
    "out_en": 10, "buf_imm": 11,
}


def _plain_register(b: NetlistBuilder, d: Sequence[int],
                    name: str) -> List[int]:
    """An always-loading register bank (pipeline latch)."""
    qs = []
    for i, bit in enumerate(d):
        qs.append(b.net(f"{name}[{i}]"))
        b.netlist.add_dff(qs[-1], bit, 0)
    b.netlist.add_bus(name, qs)
    return qs


def _enabled_register(b: NetlistBuilder, d: Sequence[int], en: int,
                      name: str) -> Tuple[List[int], List[int]]:
    """Register with write enable; returns ``(q_bits, next_value_bits)``.

    The next-value (D-side) bits are exposed because the limiter reads the
    accumulator *write-through* (the value being written this cycle).
    """
    qs: List[int] = []
    nexts: List[int] = []
    nsel = b.not_(en)
    for i, d_bit in enumerate(d):
        q = b.net(f"{name}[{i}]")
        hold = b.and_(q, nsel)
        load = b.and_(d_bit, en)
        nxt = b.or_(hold, load)
        b.netlist.add_dff(q, nxt, 0)
        qs.append(q)
        nexts.append(nxt)
    b.netlist.add_bus(name, qs)
    return qs, nexts


def _equal(b: NetlistBuilder, x: Sequence[int], y: Sequence[int]) -> int:
    """Bus equality comparator."""
    bits = [b.xnor(xi, yi) for xi, yi in zip(x, y)]
    return b.and_(*bits) if len(bits) > 1 else bits[0]


def make_gatelevel_core(name: str = "dsp_core",
                        spec: CoreSpec = PAPER_SPEC) -> Netlist:
    """The complete core of family point ``spec`` as one flat netlist."""
    operand_width, acc_width = spec.operand_width, spec.acc_width
    n_registers, depth = spec.n_registers, spec.pipeline_depth
    shifter_style, adder_style = spec.shifter, spec.adder
    has_truncater, has_limiter = spec.has_truncater, spec.has_limiter
    addr_bits = spec.addr_bits
    frac, frac_drop = spec.acc_frac, spec.frac_drop
    amt_width = AMT_WIDTH
    truth_table = decoder_truth_table_for(spec)

    b = NetlistBuilder(name)
    instr_in = b.input_bus("instr", 17)

    # ------------------------------------------------------------------
    # Pipeline latches (declared first so stages can read them).  3-deep
    # cores have no IF/ID latch — decode runs off the instruction input.
    # ------------------------------------------------------------------
    if depth >= 4:
        if_id = _plain_register(b, instr_in, "if_id")
    else:
        if_id = list(instr_in)

    # ID/EX latch fields are driven below; allocate D nets lazily via lists.
    def latch(name_: str, width: int) -> Tuple[List[int], List[int]]:
        d = [b.net(f"{name_}_d{i}") for i in range(width)]
        q = []
        for i in range(width):
            qn = b.net(f"{name_}[{i}]")
            b.netlist.add_dff(qn, d[i], 0)
            q.append(qn)
        b.netlist.add_bus(name_, q)
        return q, d

    ex_ctrl, ex_ctrl_d = latch("ex_ctrl", CONTROL_WIDTH)
    ex_opa, ex_opa_d = latch("ex_opa", operand_width)
    ex_opb, ex_opb_d = latch("ex_opb", operand_width)
    ex_imm, ex_imm_d = latch("ex_imm", operand_width)
    ex_dest, ex_dest_d = latch("ex_dest", addr_bits)
    wb_ctrl, wb_ctrl_d = latch("wb_ctrl", CONTROL_WIDTH)
    wb_dest, wb_dest_d = latch("wb_dest", addr_bits)

    def ctrl_bit(bus: Sequence[int], field: str) -> int:
        return bus[_CTRL_BITS[field]]

    # ------------------------------------------------------------------
    # EX stage: the MAC datapath, from the ID/EX latch.
    # ------------------------------------------------------------------
    with b.region("multiplier"):
        product = multiplier_into(b, ex_opa, ex_opb, acc_width)
    b.netlist.add_bus("product", product)

    muxa_zero = ctrl_bit(ex_ctrl, "muxa_zero")
    with b.region("muxa"):
        pass_product = b.not_(muxa_zero)
        x_operand = [b.and_(bit, pass_product) for bit in product]

    # Accumulators need their write-through nets, so declare them with
    # placeholder D inputs wired after the adder is built.
    accsel = ctrl_bit(ex_ctrl, "accsel")
    acc_we = ctrl_bit(ex_ctrl, "acc_we")
    acca_en = b.and_(acc_we, b.not_(accsel))
    accb_en = b.and_(acc_we, accsel)

    # Forward-declare truncater output nets for the accumulator D logic.
    trunc_out = [b.net(f"trunc_out[{i}]") for i in range(acc_width)]

    def acc_register(name_: str, en: int) -> Tuple[List[int], List[int]]:
        qs, nexts = [], []
        nsel = b.not_(en)
        for i in range(acc_width):
            q = b.net(f"{name_}[{i}]")
            hold = b.and_(q, nsel)
            load = b.and_(trunc_out[i], en)
            nxt = b.or_(hold, load)
            b.netlist.add_dff(q, nxt, 0)
            qs.append(q)
            nexts.append(nxt)
        b.netlist.add_bus(name_, qs)
        return qs, nexts

    with b.region("acca"):
        acc_a, acc_a_next = acc_register("acc_a", acca_en)
    with b.region("accb"):
        acc_b, acc_b_next = acc_register("acc_b", accb_en)

    with b.region("muxg_shifter"):
        muxg_shifter = b.mux2_bus(accsel, acc_a, acc_b)
    shmode = [ctrl_bit(ex_ctrl, "shmode0"), ctrl_bit(ex_ctrl, "shmode1")]
    shift_fn = (shifter_into if shifter_style == "barrel"
                else dedicated_shifter_into)
    with b.region("shifter"):
        shifted = shift_fn(b, muxg_shifter, ex_opa[:amt_width], shmode)

    muxb_shift = ctrl_bit(ex_ctrl, "muxb_shift")
    with b.region("muxb"):
        y_operand = [b.and_(bit, muxb_shift) for bit in shifted]

    sub = ctrl_bit(ex_ctrl, "sub")
    with b.region("addsub"):
        b_inverted = [b.xor(bit, sub) for bit in x_operand]
        adder_out, _ = adder_into(b, y_operand, b_inverted, sub,
                                  adder_style, drop_final_carry=True)

    trunc_en = ctrl_bit(ex_ctrl, "trunc")
    if has_truncater:
        with b.region("truncater"):
            trunc_src = truncater_into(b, adder_out, trunc_en, frac)
    else:
        trunc_src = adder_out
    for i in range(acc_width):
        b.netlist.add_gate(GateType.BUF, trunc_out[i], (trunc_src[i],))

    # Narrow limiter-side MUXg: the limiter never reads the dropped
    # fractional bits (14 bits wide on the paper core).
    with b.region("muxg_limiter"):
        muxg_limiter = b.mux2_bus(accsel, acc_a_next[frac_drop:],
                                  acc_b_next[frac_drop:])
    if has_limiter:
        with b.region("limiter"):
            limited = limiter_into(b, acc_a_next[:frac_drop] + muxg_limiter,
                                   operand_width, frac_drop)
    else:
        # No saturator: MacReg takes the raw accumulator window slice.
        limited = [b.buf(bit) for bit in muxg_limiter[:operand_width]]

    with b.region("macreg"):
        macreg = _plain_register(b, limited, "macreg")
    buf_imm = ctrl_bit(ex_ctrl, "buf_imm")
    with b.region("buffer"):
        buffer_d = b.mux2_bus(buf_imm, ex_opb, ex_imm)
        buffer = _plain_register(b, buffer_d, "buffer")

    # EX bypass value (what this instruction will write back).
    ex_mux7_buffer = ctrl_bit(ex_ctrl, "mux7_buffer")
    ex_bypass = b.mux2_bus(ex_mux7_buffer, limited, buffer_d)
    ex_reg_we = ctrl_bit(ex_ctrl, "reg_we")

    # Temp (forwarding) register: latches the EX write-back value.
    with b.region("temp"):
        temp, _ = _enabled_register(b, ex_bypass, ex_reg_we, "temp")

    # ------------------------------------------------------------------
    # WB stage: MUX7 from the *stored* MacReg/buffer, port, regfile write.
    # ------------------------------------------------------------------
    wb_mux7_buffer = ctrl_bit(wb_ctrl, "mux7_buffer")
    with b.region("mux7"):
        wb_value = b.mux2_bus(wb_mux7_buffer, macreg, buffer)
    out_en = ctrl_bit(wb_ctrl, "out_en")
    out_port = [b.and_(bit, out_en) for bit in wb_value]
    out_valid = out_en
    if depth >= 5:
        # Registered output port: the 5-deep family point.
        with b.region("outreg"):
            out_port = _plain_register(b, out_port, "out_port_q")
            out_valid = _plain_register(b, [out_en], "out_valid_q")[0]
    b.output_bus("out", out_port)
    b.output(out_valid)
    b.netlist.add_bus("out_valid", [out_valid])

    # ------------------------------------------------------------------
    # ID stage: decode + register read + forwarding.
    # ------------------------------------------------------------------
    opcode = if_id[12:17]
    with b.region("decoder"):
        ctrl = truth_table_logic(b, list(opcode), CONTROL_WIDTH,
                                 truth_table, prefix="dec")
    raddr_a = if_id[8:8 + addr_bits]
    raddr_b = if_id[4:4 + addr_bits]

    wb_reg_we = ctrl_bit(wb_ctrl, "reg_we")
    with b.region("regfile"):
        rdata_a, rdata_b = register_file_into(
            b, wb_value, wb_dest, wb_reg_we, raddr_a, raddr_b, n_registers
        )

    def forwarded(raddr: Sequence[int], rdata: Sequence[int]) -> List[int]:
        use_ex = b.and_(ex_reg_we, _equal(b, raddr, ex_dest))
        use_wb = b.and_(wb_reg_we, _equal(b, raddr, wb_dest))
        with_wb = b.mux2_bus(use_wb, rdata, temp)
        return b.mux2_bus(use_ex, with_wb, ex_bypass)

    opa = forwarded(raddr_a, rdata_a)
    opb = forwarded(raddr_b, rdata_b)

    # ------------------------------------------------------------------
    # Latch next-state wiring.
    # ------------------------------------------------------------------
    def drive(d_nets: Sequence[int], values: Sequence[int]) -> None:
        for d, v in zip(d_nets, values):
            b.netlist.add_gate(GateType.BUF, d, (v,))

    drive(ex_ctrl_d, ctrl)
    drive(ex_opa_d, opa)
    drive(ex_opb_d, opb)
    drive(ex_imm_d, if_id[4:4 + operand_width])
    drive(ex_dest_d, if_id[0:addr_bits])
    drive(wb_ctrl_d, ex_ctrl)
    drive(wb_dest_d, ex_dest)

    return b.finish()
