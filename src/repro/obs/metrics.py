"""Counters and histograms with explicit merge semantics.

Everything here is designed around *mergeability*: a pooled campaign
runs one registry per worker process and folds the snapshots back into
the parent's registry through the result stream, so the aggregate must
not depend on how the work was sharded.  Each instrument therefore
documents its merge operator, and every operator is associative and
commutative:

* **Counter** — merge is addition.
* **Histogram** — fixed bucket bounds; merge adds bucket counts and
  combines count/total/min/max.  Two histograms only merge when their
  bounds agree.

Snapshots are plain JSON-able dicts — they ride the pool's result
stream next to the unit record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Default histogram bounds: exponential, tuned for durations in
#: seconds (1 µs .. ~4.5 min) but serviceable for counts too.
DEFAULT_BOUNDS = tuple(1e-6 * 4 ** k for k in range(14))


@dataclass
class Counter:
    """A monotonically increasing count.  Merge: addition."""

    value: int = 0

    def add(self, n: int = 1) -> None:
        self.value += n

    def merge(self, other: "Counter") -> None:
        self.value += other.value


@dataclass
class Histogram:
    """Fixed-bound bucketed distribution.  Merge: bucket-wise addition.

    ``counts[i]`` holds observations ``<= bounds[i]``; the final slot
    (``counts[len(bounds)]``) is the overflow bucket.
    """

    bounds: tuple = DEFAULT_BOUNDS
    counts: List[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        if tuple(other.bounds) != tuple(self.bounds):
            raise ValueError("cannot merge histograms with different bounds")
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.total += other.total
        for theirs in (other.min,):
            if theirs is not None and (self.min is None or theirs < self.min):
                self.min = theirs
        for theirs in (other.max,):
            if theirs is not None and (self.max is None or theirs > self.max):
                self.max = theirs


class MetricsRegistry:
    """Named instruments plus snapshot/merge plumbing for the pool."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- hot-path updates ---------------------------------------------
    def incr(self, name: str, n: int = 1) -> None:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter()
        counter.add(n)

    def observe(self, name: str, value: float,
                bounds: tuple = DEFAULT_BOUNDS) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(bounds=bounds)
        histogram.observe(value)

    # -- snapshot / merge ---------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able copy of every instrument's state."""
        return {
            "counters": {k: c.value for k, c in self.counters.items()},
            "histograms": {
                k: {
                    "bounds": list(h.bounds), "counts": list(h.counts),
                    "count": h.count, "total": h.total,
                    "min": h.min, "max": h.max,
                }
                for k, h in self.histograms.items()
            },
        }

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold a snapshot (e.g. from a pool worker) into this registry."""
        for name, value in snapshot.get("counters", {}).items():
            self.incr(name, value)
        for name, h in snapshot.get("histograms", {}).items():
            incoming = Histogram(
                bounds=tuple(h["bounds"]), counts=list(h["counts"]),
                count=h["count"], total=h["total"],
                min=h["min"], max=h["max"],
            )
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = incoming
            else:
                mine.merge(incoming)

    def reset(self) -> None:
        """Zero every instrument (workers reset between units so each
        payload carries a clean delta)."""
        self.counters.clear()
        self.histograms.clear()


def merge_snapshots(*snapshots: Dict[str, Any]) -> Dict[str, Any]:
    """Pure-function merge used by tests: fold snapshots left-to-right."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry.snapshot()
