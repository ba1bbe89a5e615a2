"""Plain-text rendering helpers for benchmark output."""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple
from repro.runtime.errors import ConfigError

#: Characters of bar that :func:`format_curve` draws for full coverage.
CURVE_WIDTH = 50


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width ASCII table."""
    materialised = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        if len(row) != len(headers):
            raise ConfigError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in materialised)
    return "\n".join(lines)


def format_curve(points: Sequence[Tuple[int, float]]) -> str:
    """A coarse ASCII rendering of a coverage curve, full coverage
    :data:`CURVE_WIDTH` characters wide."""
    if not points:
        return "(no data)"
    lines = [f"{'vectors':>10}  coverage"]
    for x, y in points:
        bar = "#" * int(round(y * CURVE_WIDTH))
        lines.append(f"{x:>10}  {bar} {y:.2%}")
    return "\n".join(lines)
