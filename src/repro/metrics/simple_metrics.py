"""Testability metrics for the simple Fig. 1 datapath (paper Table 1).

Same methodology as the DSP-core engines, specialised to the small
accumulator machine: rows are Add/Sub/Mac/Clr, each under an assumed-zero
and assumed-random accumulator ("0"/"R"), columns are Mult, the three ALU
modes and the accumulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.runtime.rng import derive_rng

from repro.dsp.simple import (
    SIMPLE_COLUMNS,
    SIMPLE_COLUMN_LABELS,
    SimpleDspCore,
    SimpleOp,
    SimpleState,
)
from repro.metrics.entropy import (
    combine_independent,
    controllability_from_samples,
)
from repro.metrics.table import MetricsCell

Column = Tuple[str, int]

#: Output widths of the simple datapath's components.
_WIDTHS = {"mult": 8, "alu": 8, "acc": 8}
#: Data input ports per component (control ports excluded).
_DATA_PORTS = {"mult": ("a", "b"), "alu": ("a", "b"), "acc": ("d",)}
#: Random errors injected per output bit of a component, per good run.
ERRORS_PER_BIT = 2
#: Cycles each observability run steps: the row's operation, then adds.
WINDOW = 4


@dataclass(frozen=True)
class SimpleVariant:
    """One Table 1 row: operation + assumed accumulator state."""

    op: SimpleOp
    acc_state: str

    @property
    def label(self) -> str:
        names = {SimpleOp.ADD: "Add", SimpleOp.SUB: "Sub",
                 SimpleOp.MAC: "Mac", SimpleOp.CLR: "Clr"}
        return f"{names[self.op]} {self.acc_state}"


def table1_variants() -> List[SimpleVariant]:
    """The eight rows of the paper's Table 1."""
    rows = []
    for op in (SimpleOp.ADD, SimpleOp.SUB, SimpleOp.MAC, SimpleOp.CLR):
        rows.append(SimpleVariant(op, "0"))
        rows.append(SimpleVariant(op, "R"))
    return rows


def _prepared_core(variant: SimpleVariant, rng: random.Random) -> SimpleDspCore:
    acc = rng.randrange(256) if variant.acc_state == "R" else 0
    return SimpleDspCore(state=SimpleState(acc=acc))


def measure_simple_controllability(
    variant: SimpleVariant, n_samples: int = 400, seed: int = 11,
) -> Dict[Column, float]:
    """C per (component, mode) column for one Table 1 row."""
    rng = derive_rng(seed, variant.label)
    port_samples: Dict[Column, Dict[str, List[int]]] = {}
    for _ in range(n_samples):
        core = _prepared_core(variant, rng)
        trace: Dict = {}
        core.step(variant.op, rng.randrange(256), rng.randrange(256),
                  trace=trace)
        for name, activity in trace.items():
            key = (name, activity.mode)
            ports = port_samples.setdefault(key, {})
            for port, value in activity.inputs.items():
                if port in _DATA_PORTS.get(name, ()):
                    ports.setdefault(port, []).append(value)
    result: Dict[Column, float] = {}
    for key, ports in port_samples.items():
        contributions = [
            (controllability_from_samples(samples, 8), 8)
            for samples in ports.values()
        ]
        if contributions:
            result[key] = combine_independent(contributions)
    return result


def measure_simple_observability(
    variant: SimpleVariant, n_good: int = 50, seed: int = 13,
) -> Dict[Column, float]:
    """O per column: inject random errors, observe the output stream.

    The observation window runs the same operation with fresh random data
    for a few more cycles — the accumulator keeps feeding the output port,
    so (unlike the deep DSP pipeline) errors in the simple datapath are
    almost always observable, which is why Table 1's O column is 0.99
    everywhere except behind ``Clr``.
    """
    rng = derive_rng(seed, variant.label)
    observed: Dict[Column, int] = {}
    injected: Dict[Column, int] = {}
    for _ in range(n_good):
        acc0 = rng.randrange(256) if variant.acc_state == "R" else 0
        steps = [(variant.op, rng.randrange(256), rng.randrange(256))]
        steps += [(SimpleOp.ADD, rng.randrange(256), 0)
                  for _ in range(WINDOW - 1)]

        core = SimpleDspCore(state=SimpleState(acc=acc0))
        clean_ports, trace0 = [], {}
        for t, (op, in1, in2) in enumerate(steps):
            trace = trace0 if t == 0 else None
            clean_ports.append(core.step(op, in1, in2, trace=trace))

        for name, activity in trace0.items():
            key = (name, activity.mode)
            n_bits = _WIDTHS[name]
            for _ in range(ERRORS_PER_BIT * n_bits):
                bad = rng.randrange(1 << n_bits)
                if bad == activity.output:
                    bad = (bad + 1) & ((1 << n_bits) - 1)
                faulty = SimpleDspCore(state=SimpleState(acc=acc0))
                ports = []
                for t, (op, in1, in2) in enumerate(steps):
                    overrides = {name: bad} if t == 0 else None
                    ports.append(faulty.step(op, in1, in2,
                                             overrides=overrides))
                injected[key] = injected.get(key, 0) + 1
                if ports != clean_ports:
                    observed[key] = observed.get(key, 0) + 1
    return {key: observed.get(key, 0) / count
            for key, count in injected.items()}


def build_table1(n_samples: int = 400, n_good: int = 30,
                 seed: int = 17) -> Dict[str, Dict[str, MetricsCell]]:
    """The full Table 1: row label → column label → C/O cell."""
    table: Dict[str, Dict[str, MetricsCell]] = {}
    for variant in table1_variants():
        c_vals = measure_simple_controllability(variant, n_samples, seed)
        o_vals = measure_simple_observability(variant, n_good, seed=seed + 1)
        row: Dict[str, MetricsCell] = {}
        for column in SIMPLE_COLUMNS:
            if column in c_vals or column in o_vals:
                row[SIMPLE_COLUMN_LABELS[column]] = MetricsCell(
                    c=c_vals.get(column, 0.0), o=o_vals.get(column, 0.0)
                )
        table[variant.label] = row
    return table


def render_table1(table: Dict[str, Dict[str, MetricsCell]]) -> str:
    """ASCII rendering in the shape of the paper's Table 1."""
    columns = [SIMPLE_COLUMN_LABELS[c] for c in SIMPLE_COLUMNS]
    lines = ["  ".join(["Opcode".ljust(8)] + [c.ljust(12) for c in columns])]
    for row_label, row in table.items():
        parts = [row_label.ljust(8)]
        for column in columns:
            cell = row.get(column)
            if cell is None:
                parts.append("".ljust(12))
            else:
                mark = " X" if cell.covered() else ""
                parts.append(f"{cell.c:.2f}/{cell.o:.2f}{mark}".ljust(12))
        lines.append("  ".join(parts))
    return "\n".join(lines)
