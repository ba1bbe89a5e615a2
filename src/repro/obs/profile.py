"""Lightweight profiling hooks: named, accumulated wall-clock sections.

``perf_counter``-based and deliberately simple: a section is a
``with`` block that adds its duration (and a call count) to a named
accumulator.  Sections nest freely; each level accounts its own wall
clock, so nested totals overlap by design: the report is a
where-does-time-go table, not a call tree.

Timings are plain dicts (``name -> {"calls", "seconds"}``) so pool
workers can ship them through the result stream; merge is addition.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

_PERF = time.perf_counter


class _Section:
    __slots__ = ("profiler", "name", "_t0")

    def __init__(self, profiler: "Profiler", name: str):
        self.profiler = profiler
        self.name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Section":
        self._t0 = _PERF()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.profiler.add(self.name, _PERF() - self._t0)


class Profiler:
    """Accumulates ``section`` durations by name."""

    def __init__(self) -> None:
        self._acc: Dict[str, List[float]] = {}  # name -> [calls, seconds]

    def section(self, name: str) -> _Section:
        return _Section(self, name)

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        entry = self._acc.get(name)
        if entry is None:
            entry = self._acc[name] = [0, 0.0]
        entry[0] += calls
        entry[1] += seconds

    # -- snapshot / merge ---------------------------------------------
    def timings(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"calls": calls, "seconds": round(seconds, 6)}
            for name, (calls, seconds) in sorted(self._acc.items())
        }

    def merge_timings(self, timings: Dict[str, Dict[str, float]]) -> None:
        for name, entry in timings.items():
            self.add(name, entry["seconds"], calls=int(entry["calls"]))

    def reset(self) -> None:
        self._acc.clear()

    # -- reporting -----------------------------------------------------
    def rows(self) -> List[Tuple[str, int, float, float]]:
        """(name, calls, total seconds, mean ms) sorted by total desc."""
        rows = []
        for name, (calls, seconds) in self._acc.items():
            mean_ms = (seconds / calls * 1e3) if calls else 0.0
            rows.append((name, calls, seconds, mean_ms))
        rows.sort(key=lambda r: r[2], reverse=True)
        return rows
