"""Phase 1 — global coverage by greedy set cover (paper §2.4, §3.3).

"We begin picking the instruction that covers the most columns in the
metrics table, then we delete those columns.  We continue with the next
instruction until we delete all columns in the table."  ``Load`` and
``Out`` are wrappers: any columns they cover are removed up front.

The result reproduces the paper's Table 3: the chosen instructions, the
columns each one is responsible for, and the columns left for Phase 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.metrics.controllability import InstructionVariant
from repro.metrics.table import MetricsTable

Column = Tuple[str, int]

#: Row labels treated as wrappers (always part of the program).
WRAPPER_LABELS = ("load", "loadR", "Out", "OutR")


@dataclass
class Phase1Result:
    """Outcome of the greedy covering."""

    wrapper_rows: List[InstructionVariant]
    wrapper_covered: List[Column]
    selections: List[Tuple[InstructionVariant, List[Column]]]
    uncovered: List[Column]

    @property
    def chosen(self) -> List[InstructionVariant]:
        return [variant for variant, _ in self.selections]

    def summary(self) -> str:
        lines = [
            "Phase 1 (greedy cover):",
            f"  wrappers cover {len(self.wrapper_covered)} columns",
        ]
        for variant, columns in self.selections:
            pretty = ", ".join(f"{c[0]}:{c[1]}" for c in columns)
            lines.append(f"  {variant.label:<14} covers {pretty}")
        lines.append(f"  left for Phase 2: "
                     + (", ".join(f"{c[0]}:{c[1]}" for c in self.uncovered)
                        or "none"))
        return "\n".join(lines)


def run_phase1(table: MetricsTable) -> Phase1Result:
    """Greedy set cover over ``table``, after the :data:`WRAPPER_LABELS`
    rows present in it.

    Deterministic: ties are broken by row order in the table.
    """
    by_label = {row.label: row for row in table.rows}
    wrappers = [by_label[l] for l in WRAPPER_LABELS if l in by_label]

    remaining: List[Column] = list(table.columns)
    wrapper_covered: List[Column] = []
    for wrapper in wrappers:
        for column in table.covered_columns(wrapper):
            if column in remaining:
                remaining.remove(column)
                wrapper_covered.append(column)

    candidates = [row for row in table.rows if row not in wrappers]
    selections: List[Tuple[InstructionVariant, List[Column]]] = []
    while remaining:
        best: Optional[InstructionVariant] = None
        best_columns: List[Column] = []
        for row in candidates:
            columns = [c for c in table.covered_columns(row)
                       if c in remaining]
            if len(columns) > len(best_columns):
                best = row
                best_columns = columns
        if best is None or not best_columns:
            break
        selections.append((best, best_columns))
        candidates.remove(best)
        for column in best_columns:
            remaining.remove(column)

    return Phase1Result(
        wrapper_rows=wrappers,
        wrapper_covered=wrapper_covered,
        selections=selections,
        uncovered=remaining,
    )
