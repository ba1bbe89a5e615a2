"""Span-based tracing with deterministic ids and JSONL/Chrome export.

A *span* is a named, nested interval of work.  Span ids are **not**
random: they derive from the session seed, the parent span's id, the
span name and either an explicit ``key`` (the runner passes the unit
id) or a per-``(parent, name)`` sequence number — the same recipe
:mod:`repro.runtime.rng` uses to derive per-stream RNGs.  Two
consequences:

* replaying a campaign with the same seed yields the same span ids, so
  traces diff cleanly run-over-run;
* a unit graded in a pool worker gets the *same* span id it would have
  had serially (the unit id keys it), so pooled and serial traces are
  comparable even though the work landed on different processes.

Export formats:

* **JSONL** — one header line (``kind: trace-header``) followed by one
  object per finished span (``kind: span``) and per recorded point
  (``kind: point``).  Schema in :mod:`repro.obs.schema`.
* **Chrome trace events** — ``chrome://tracing`` / Perfetto-compatible
  JSON with complete (``ph: "X"``) events.

Workers drain their finished spans with :meth:`Tracer.drain` and ship
them through the pool's result stream; the parent folds them back in
with :meth:`Tracer.absorb`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from typing import Any, Dict, List

from repro.obs.schema import TRACE_SCHEMA

_PERF = time.perf_counter


def _derive_id(seed: int, parent: str, name: str, key: Any) -> str:
    token = f"{seed}:{parent}:{name}:{key}"
    return hashlib.sha256(token.encode()).hexdigest()[:16]


class Span:
    """An open span; closes (and records itself) on ``__exit__``.

    ``with tracer.span("unit", key=unit_id) as span: span.set(status="ok")``

    The ``try/finally`` discipline lives in the ``with`` protocol:
    ``__exit__`` runs for *any* exception — including
    :class:`~repro.runtime.chaos.ChaosKill`, which subclasses
    ``BaseException`` precisely to escape quarantine nets — so span
    trees always balance.
    """

    __slots__ = ("tracer", "name", "span_id", "parent_id",
                 "attrs", "_t0", "_wall")

    def __init__(self, tracer: "Tracer", name: str, span_id: str,
                 parent_id: str, attrs: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self._t0 = 0.0
        self._wall = 0.0

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self._wall = time.time()
        self._t0 = _PERF()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = _PERF() - self._t0
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._pop(self, duration)


class Tracer:
    """Per-session span collector (thread-safe, fork-aware)."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.root_id = _derive_id(seed, "", "root", "")
        #: Parent of spans opened on an empty stack: the root, or in a
        #: pool worker the span that was open when the worker forked.
        self._base_id = self.root_id
        self._records: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._seq: Dict[tuple, int] = {}

    # -- span stack ----------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_id(self) -> str:
        stack = self._stack()
        return stack[-1].span_id if stack else self._base_id

    def depth(self) -> int:
        return len(self._stack())

    def span(self, name: str, key: Any = None, **attrs: Any) -> Span:
        parent = self.current_id()
        if key is None:
            with self._lock:
                seq = self._seq.get((parent, name), 0)
                self._seq[(parent, name)] = seq + 1
            key = seq
        span_id = _derive_id(self.seed, parent, name, key)
        return Span(self, name, span_id, parent, attrs)

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span, duration: float) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # defensive: never let one bad span corrupt the stack
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        record = {
            "kind": "span", "id": span.span_id, "parent": span.parent_id,
            "name": span.name, "pid": os.getpid(),
            "start": round(span._wall, 6), "dur": round(duration, 9),
        }
        if span.attrs:
            record["attrs"] = span.attrs
        with self._lock:
            self._records.append(record)

    # -- points (time series, e.g. coverage-vs-time) -------------------
    def point(self, name: str, **fields: Any) -> None:
        record = {"kind": "point", "name": name, "pid": os.getpid(),
                  "t": round(time.time(), 6)}
        if fields:
            record["fields"] = fields
        with self._lock:
            self._records.append(record)

    # -- transport -----------------------------------------------------
    def drain(self) -> List[Dict[str, Any]]:
        """Pop and return every finished record (worker → parent)."""
        with self._lock:
            records, self._records = self._records, []
        return records

    def absorb(self, records: List[Dict[str, Any]]) -> None:
        """Fold a worker's drained records into this tracer."""
        with self._lock:
            self._records.extend(records)

    @property
    def records(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._records)

    def reset_after_fork(self) -> None:
        """Drop records inherited copy-on-write from the parent process.

        The worker's spans hang off the span open in the forking thread
        (the campaign), so a unit keeps the id it has serially."""
        self._base_id = self.current_id()
        self._records = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._seq = {}

    # -- export --------------------------------------------------------
    def header(self) -> Dict[str, Any]:
        return {"kind": "trace-header", "schema": TRACE_SCHEMA,
                "seed": self.seed, "root": self.root_id}

    def write_jsonl(self, path: str) -> int:
        """Write header + records as JSONL; returns the span count."""
        records = self.records
        with open(path, "w") as handle:
            handle.write(json.dumps(self.header(), sort_keys=True) + "\n")
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return sum(1 for r in records if r["kind"] == "span")

    def chrome_trace(self) -> Dict[str, Any]:
        """``chrome://tracing`` / Perfetto ``traceEvents`` document."""
        events = []
        for record in self.records:
            if record["kind"] != "span":
                continue
            events.append({
                "name": record["name"], "ph": "X",
                "ts": record["start"] * 1e6,
                "dur": record["dur"] * 1e6,
                "pid": record["pid"], "tid": record["pid"],
                "args": dict(record.get("attrs", {}),
                             id=record["id"], parent=record["parent"]),
            })
        events.sort(key=lambda e: e["ts"])
        return {"traceEvents": events,
                "metadata": {"schema": TRACE_SCHEMA, "seed": self.seed}}

    def write_chrome(self, path: str) -> int:
        doc = self.chrome_trace()
        with open(path, "w") as handle:
            json.dump(doc, handle)
        return len(doc["traceEvents"])
