"""The metrics table (paper Tables 1 and 2).

Rows are instruction variants, columns are (component, mode) pairs.  Each
cell holds the controllability/observability pair and the coverage mark:
a cell is covered ("X") when ``C ≥ C_θ`` and ``O ≥ O_θ``; the paper's
thresholds are ``C_θ = 0.70`` and ``O_θ = 0.50``.

The table also records each component's stuck-at fault count (the first
data row of the paper's Table 2) — collapsed gate-level counts for
combinational components and the word-level model counts for storage
components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.dsp.components import ComponentSpec
from repro.dsp.family import PAPER_BUILD, CoreBuild
from repro.faults.model import collapse_faults
from repro.metrics.controllability import (
    ControllabilityEngine,
    InstructionVariant,
    default_variants,
)
from repro.metrics.observability import ObservabilityEngine

#: The paper's threshold choices ("good initial choices are 0.70 / 0.50").
C_THETA = 0.70
O_THETA = 0.50

Column = Tuple[str, int]


@dataclass(frozen=True)
class MetricsCell:
    """One (row, column) entry: the C/O pair."""

    c: float
    o: float

    def covered(self, c_theta: float = C_THETA,
                o_theta: float = O_THETA) -> bool:
        return self.c >= c_theta and self.o >= o_theta


def fault_counts(build: CoreBuild) -> Dict[str, int]:
    """Each component's fault-universe size (the table's ``#faults`` row)."""
    return {spec.name: component_fault_count(spec)
            for spec in build.components}


def component_fault_count(spec: ComponentSpec) -> int:
    """The component's stuck-at fault universe size.

    Combinational components: collapsed gate-level faults.  Storage
    components: the word-level model — stuck storage bits, stuck data-input
    bits and (when present) a stuck enable, both polarities each.
    """
    if spec.kind == "comb":
        return collapse_faults(spec.netlist()).n_collapsed
    n = 4 * spec.output_width  # q and d bits, both polarities
    if any(name == "en" for name, _ in spec.input_ports):
        n += 2
    return n


@dataclass
class MetricsTable:
    """Rows × columns of C/O measurements with coverage marks."""

    rows: List[InstructionVariant]
    columns: List[Column]
    cells: Dict[Tuple[str, Column], MetricsCell] = field(default_factory=dict)
    fault_counts: Dict[str, int] = field(default_factory=dict)
    c_theta: float = C_THETA
    o_theta: float = O_THETA

    def cell(self, row: InstructionVariant,
             column: Column) -> Optional[MetricsCell]:
        return self.cells.get((row.label, column))

    def set_cell(self, row: InstructionVariant, column: Column,
                 cell: MetricsCell) -> None:
        if column not in self.columns:
            raise KeyError(f"unknown column {column!r}")
        self.cells[(row.label, column)] = cell

    def is_covered(self, row: InstructionVariant, column: Column) -> bool:
        cell = self.cell(row, column)
        return bool(cell) and cell.covered(self.c_theta, self.o_theta)

    def covered_columns(self, row: InstructionVariant) -> List[Column]:
        return [c for c in self.columns if self.is_covered(row, c)]

    def column_label(self, column: Column) -> str:
        name, mode = column
        try:
            from repro.dsp.components import component_by_name
            spec = component_by_name(name)
            if len(spec.modes) == 1:
                return name
            return f"{name} {spec.mode_label(mode)}"
        except KeyError:
            return f"{name} {mode}"

    def with_thresholds(self, c_theta: float, o_theta: float) -> "MetricsTable":
        """A view of the same measurements under different thresholds.

        This is the paper's "If sufficient coverage is not reached, the
        thresholds can be lowered a limited amount of times".
        """
        return MetricsTable(
            rows=self.rows, columns=self.columns, cells=self.cells,
            fault_counts=self.fault_counts,
            c_theta=c_theta, o_theta=o_theta,
        )

    # ------------------------------------------------------------------
    def render(self, max_columns: Optional[int] = None) -> str:
        """ASCII rendering in the style of the paper's Table 2."""
        columns = self.columns[:max_columns] if max_columns else self.columns
        header = ["instr".ljust(14)]
        header += [self.column_label(c)[:14].ljust(14) for c in columns]
        fault_row = ["#faults".ljust(14)]
        for name, _mode in columns:
            fault_row.append(str(self.fault_counts.get(name, "")).ljust(14))
        lines = ["  ".join(header), "  ".join(fault_row)]
        for row in self.rows:
            parts = [row.label.ljust(14)]
            for column in columns:
                cell = self.cell(row, column)
                if cell is None:
                    parts.append("".ljust(14))
                else:
                    mark = " X" if cell.covered(self.c_theta, self.o_theta) \
                        else ""
                    parts.append(f"{cell.c:.2f},{cell.o:.2f}{mark}".ljust(14))
            lines.append("  ".join(parts))
        return "\n".join(lines)


def build_metrics_table(
    variants: Optional[Sequence[InstructionVariant]] = None,
    n_controllability_samples: int = 150,
    n_observability_good: int = 12,
    seed: int = 2004,
    columns: Optional[Sequence[Column]] = None,
    build: CoreBuild = PAPER_BUILD,
) -> MetricsTable:
    """Measure C and O for every variant and assemble the metrics table.

    This is the "Construct Metrics Table" step of the paper's Fig. 3 flow.
    Sample counts default to values that finish in minutes on a laptop;
    the benchmarks raise them.  ``build`` picks the family point.
    """
    with obs.section("metrics.table"):
        rows = list(variants) if variants is not None else default_variants()
        cols = list(columns) if columns is not None else build.all_columns()
        table = MetricsTable(
            rows=rows,
            columns=cols,
            fault_counts=fault_counts(build),
        )
        c_engine = ControllabilityEngine(
            n_samples=n_controllability_samples, seed=seed, build=build
        )
        o_engine = ObservabilityEngine(n_good=n_observability_good,
                                       seed=seed + 1, build=build)
        for row in rows:
            for column, cell in measure_row(c_engine, o_engine, row, cols):
                table.set_cell(row, column, cell)
        return table


def measure_row(c_engine: ControllabilityEngine,
                o_engine: ObservabilityEngine, row: InstructionVariant,
                columns: Sequence[Column]
                ) -> Iterator[Tuple[Column, MetricsCell]]:
    """Yield one row's ``(column, cell)`` pairs in ``columns`` order:
    every column the variant has a C or an O value for, the missing one
    read as 0.

    Each engine draws the row's stream from its seed and the row label,
    so a row measures the same alone, in any order or in a pool worker.
    """
    c_values = c_engine.measure(row)
    o_values = o_engine.measure(row)
    for column in columns:
        if column in c_values or column in o_values:
            yield column, MetricsCell(c=c_values.get(column, 0.0),
                                      o=o_values.get(column, 0.0))
