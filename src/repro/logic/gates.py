"""Primitive gate types and their pattern-parallel evaluation.

Every net value is a plain Python integer whose bit *k* is the logic value of
the net under pattern *k*.  Evaluating a gate for ``W`` patterns is therefore
a single bitwise operation, which is what makes pure-Python fault simulation
tractable.  Inverting gates need the all-ones mask for the active pattern
width, which the simulator passes in.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from operator import and_, or_, xor


class GateType(str, Enum):
    """Primitive gate kinds supported by the netlist model.

    ``AND``/``OR``/``NAND``/``NOR`` accept two or more inputs; ``XOR`` and
    ``XNOR`` accept exactly two; ``NOT``/``BUF`` exactly one; the constants
    take none.
    """

    CONST0 = "const0"
    CONST1 = "const1"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    OR = "or"
    NAND = "nand"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"


#: Allowed input arity per gate type: (min, max) with ``None`` = unbounded.
ARITY = {
    GateType.CONST0: (0, 0),
    GateType.CONST1: (0, 0),
    GateType.BUF: (1, 1),
    GateType.NOT: (1, 1),
    GateType.AND: (2, None),
    GateType.OR: (2, None),
    GateType.NAND: (2, None),
    GateType.NOR: (2, None),
    GateType.XOR: (2, 2),
    GateType.XNOR: (2, 2),
}


def check_arity(kind: GateType, n_inputs: int) -> None:
    """Raise ``ValueError`` if ``kind`` cannot take ``n_inputs`` inputs."""
    lo, hi = ARITY[kind]
    if n_inputs < lo or (hi is not None and n_inputs > hi):
        raise ValueError(f"{kind.value} gate cannot have {n_inputs} inputs")


def eval_gate(kind: GateType, inputs, width_mask: int) -> int:
    """Evaluate one gate over packed pattern values.

    ``inputs`` is a sequence of packed integer values and ``width_mask`` is
    the all-ones mask for the active pattern width (used by inverting gates
    and constants).
    """
    if kind is GateType.AND:
        return reduce(and_, inputs)
    if kind is GateType.OR:
        return reduce(or_, inputs)
    if kind is GateType.NAND:
        return reduce(and_, inputs) ^ width_mask
    if kind is GateType.NOR:
        return reduce(or_, inputs) ^ width_mask
    if kind is GateType.XOR:
        return reduce(xor, inputs)
    if kind is GateType.XNOR:
        return reduce(xor, inputs) ^ width_mask
    if kind is GateType.NOT:
        return inputs[0] ^ width_mask
    if kind is GateType.BUF:
        return inputs[0]
    if kind is GateType.CONST0:
        return 0
    if kind is GateType.CONST1:
        return width_mask
    raise ValueError(f"unknown gate type {kind!r}")


def eval_scalar(kind: GateType, inputs) -> int:
    """Evaluate one gate over single-bit (0/1) inputs.

    Convenience wrapper around :func:`eval_gate` with a width-1 mask, used by
    tests and the ATPG engine's forward implication.
    """
    return eval_gate(kind, inputs, 1) & 1
