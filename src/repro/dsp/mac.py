"""Behavioural MAC datapath (paper Fig. 5) with tracing and injection.

Dataflow (one EX-stage evaluation)::

    opA(8), opB(8)  ──► multiplier ──► P(18) ──► MUXa ──► X ─┐
    AccA/AccB ──► MUXg_shifter ──► shifter ──► S ──► MUXb ──► Y ─┤
                                                   adder/sub: R = Y ± X
    R ──► truncater ──► T ──► Acc[accsel]  (write-through)
    Acc' ──► MUXg_limiter ──► limiter ──► L(8) ──► MacReg

The shifter reads the accumulator value *before* the write (the feedback
loop of Fig. 5); the limiter reads the value *after* it (write-through), so
a MAC instruction's limited result is available the same cycle.

Every component evaluation is recorded in an optional trace (inputs,
output, active mode) and any component's output can be *overridden* — the
primitive that the observability metric and the hierarchical fault
simulator build on.  The unrolled MUXg instances of the paper
(``muxg_shifter`` / ``muxg_limiter``) are traced as separate components.

There is one evaluation path.  Each component computes its output
inline.  A component's hook site is armed when a trace is armed or the
component's own name is overridden; only an armed site builds its inputs
dict and calls :func:`apply_hooks`, so an evaluation pays for the hooks
it arms and for no other.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, Mapping, Optional, Union

from repro.dsp.fixedpoint import ACC_WIDTH, OPERAND_WIDTH
from repro.dsp.isa import ControlWord
from repro.rtl.arith import addsub_reference
from repro.rtl.multiplier import multiplier_reference
from repro.rtl.saturate import limiter_reference
from repro.rtl.shifter import shifter_reference
from repro.rtl.truncate import truncater_reference


@dataclass(frozen=True)
class MacParams:
    """Width/feature parameters of one MAC datapath instance.

    The defaults are the paper core (8-bit 4.4 operands, 18-bit 10.8
    accumulators); :mod:`repro.dsp.family` derives other points.
    """

    operand_width: int = OPERAND_WIDTH
    acc_width: int = ACC_WIDTH
    #: Fractional accumulator bits zeroed by the truncater.
    frac: int = 8
    #: Low accumulator bits the limiter window discards.
    frac_drop: int = 4
    #: Shift-amount field width (low bits of operand A).
    amt_width: int = 4
    has_truncater: bool = True
    has_limiter: bool = True


#: The paper core's MAC parameters.
PAPER_MAC = MacParams()


@dataclass
class ComponentActivity:
    """One component evaluation: named input ports, output word, mode key."""

    __slots__ = ("inputs", "output", "mode")

    inputs: Dict[str, int]
    output: int
    mode: int


#: A trace is component name → activity for one evaluation.
Trace = Dict[str, ComponentActivity]

#: Overrides replace a component's *output* for one evaluation: with a
#: fixed word, or with a function of the component's inputs dict.
Overrides = Mapping[str, Union[int, Callable[[Dict[str, int]], int]]]

#: The overrides of an evaluation that overrides nothing.
NO_OVERRIDES: Overrides = MappingProxyType({})


def apply_hooks(name: str, inputs: Dict[str, int], output: int,
                overrides: Optional[Overrides], trace: Optional[Trace],
                mode: int = 0) -> int:
    """Apply ``name``'s override, if any, and record its trace entry.

    A hook site calls this only when it is armed: a trace is armed, or
    ``name`` is in ``overrides``.  ``inputs`` is built for this call
    alone.  Returns the (possibly overridden) output.
    """
    if overrides and name in overrides:
        override = overrides[name]
        output = override(inputs) if callable(override) else override
    if trace is not None:
        trace[name] = ComponentActivity(inputs, output, mode)
    return output


@dataclass
class MacResult:
    """Outcome of one MAC evaluation."""

    __slots__ = ("acc_a", "acc_b", "limited")

    acc_a: int      # accumulator values after the (possible) write
    acc_b: int
    limited: int    # 8-bit limiter output (the MacReg D input)


class MacDatapath:
    """Stateless evaluator for the MAC datapath.

    The accumulators live in the caller (the pipeline's architectural
    state); :meth:`evaluate` takes their current values and returns the
    next values plus the limited result.
    """

    @staticmethod
    def evaluate(
        opa: int,
        opb: int,
        ctrl: ControlWord,
        acc_a: int,
        acc_b: int,
        trace: Optional[Trace] = None,
        overrides: Optional[Overrides] = None,
        params: MacParams = PAPER_MAC,
    ) -> MacResult:
        """Run one EX-stage evaluation of the MAC.

        ``ctrl`` supplies the seven MAC control bits; armed hooks fire
        in dataflow order.
        """
        p = params
        traced = trace is not None
        if overrides is None:
            overrides = NO_OVERRIDES
        muxa_zero = ctrl.muxa_zero
        muxb_shift = ctrl.muxb_shift
        sub = ctrl.sub
        shmode = ctrl.shmode
        accsel = ctrl.accsel
        acc_we = ctrl.acc_we

        product = multiplier_reference(opa, opb, p.operand_width, p.acc_width)
        if traced or "multiplier" in overrides:
            product = apply_hooks("multiplier", {"a": opa, "b": opb},
                                  product, overrides, trace)
        x = 0 if muxa_zero else product
        if traced or "muxa" in overrides:
            x = apply_hooks("muxa", {"data": product, "en": muxa_zero}, x,
                            overrides, trace, muxa_zero)
        shift_in = acc_b if accsel else acc_a
        if traced or "muxg_shifter" in overrides:
            shift_in = apply_hooks(
                "muxg_shifter", {"a": acc_a, "b": acc_b, "sel": accsel},
                shift_in, overrides, trace, accsel)
        amt = opa & ((1 << p.amt_width) - 1)
        shifted = shifter_reference(shift_in, amt, shmode, p.acc_width,
                                    p.amt_width)
        if traced or "shifter" in overrides:
            shifted = apply_hooks(
                "shifter", {"data": shift_in, "amt": amt, "mode": shmode},
                shifted, overrides, trace, shmode)
        y = shifted if muxb_shift else 0
        if traced or "muxb" in overrides:
            y = apply_hooks("muxb", {"data": shifted, "en": muxb_shift}, y,
                            overrides, trace, muxb_shift)
        result = addsub_reference(y, x, sub, p.acc_width)
        if traced or "addsub" in overrides:
            result = apply_hooks("addsub", {"a": y, "b": x, "sub": sub},
                                 result, overrides, trace, sub)
        truncated = result
        if p.has_truncater:
            trunc = ctrl.trunc
            truncated = truncater_reference(result, trunc, p.acc_width,
                                            p.frac)
            if traced or "truncater" in overrides:
                truncated = apply_hooks(
                    "truncater", {"data": result, "en": trunc}, truncated,
                    overrides, trace, trunc)
        next_a = truncated if (acc_we and not accsel) else acc_a
        next_b = truncated if (acc_we and accsel) else acc_b
        if traced or "acca" in overrides:
            next_a = apply_hooks(
                "acca", {"d": truncated, "en": acc_we & (1 - accsel),
                         "q": acc_a},
                next_a, overrides, trace)
        if traced or "accb" in overrides:
            next_b = apply_hooks(
                "accb", {"d": truncated, "en": acc_we & accsel, "q": acc_b},
                next_b, overrides, trace)
        # The limiter never reads the lowest fractional bits, so the
        # limiter-side MUXg instance is physically a narrower mux
        # (synthesis trims the dead low lanes).
        frac_drop = p.frac_drop
        limit_in = (next_b if accsel else next_a) >> frac_drop
        if traced or "muxg_limiter" in overrides:
            limit_in = apply_hooks(
                "muxg_limiter",
                {"a": next_a >> frac_drop, "b": next_b >> frac_drop,
                 "sel": accsel},
                limit_in, overrides, trace, accsel)
        if p.has_limiter:
            limited = limiter_reference(limit_in << frac_drop, p.acc_width,
                                        p.operand_width, frac_drop)
            if traced or "limiter" in overrides:
                limited = apply_hooks(
                    "limiter", {"data": limit_in << frac_drop}, limited,
                    overrides, trace)
        else:
            # No saturator: MacReg takes the raw window slice.
            limited = limit_in & ((1 << p.operand_width) - 1)
        return MacResult(next_a, next_b, limited)
