"""Named counters with an explicit merge.

Everything here is designed around *mergeability*: a pooled campaign
runs one registry per worker process and folds the snapshots back into
the parent's registry through the result stream, so the aggregate must
not depend on how the work was sharded.  A counter is a plain int and
its merge is addition, which is associative and commutative.

Snapshots are plain JSON-able dicts (``{"counters": {name: int}}``) —
they ride the pool's result stream next to the unit record.
"""

from __future__ import annotations

from typing import Any, Dict


class MetricsRegistry:
    """Named counters plus snapshot/merge plumbing for the pool."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}

    def incr(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- snapshot / merge ---------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able copy of every counter."""
        return {"counters": dict(self.counters)}

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold a snapshot (e.g. from a pool worker) into this registry."""
        for name, value in snapshot.get("counters", {}).items():
            self.incr(name, value)

    def reset(self) -> None:
        """Zero every counter (workers reset between units so each
        payload carries a clean delta)."""
        self.counters.clear()
