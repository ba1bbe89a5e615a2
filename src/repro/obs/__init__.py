"""Observability: structured tracing, metrics and profiling hooks.

The runtime's hot paths call the module-level hooks below
(:func:`span`, :func:`incr`, :func:`section`, :func:`point`).  Exactly
like :mod:`repro.runtime.chaos`, the layer is **inert unless armed**: a
single module-global session reference is ``None`` by default, every
hook starts with that one ``is None`` check, and the disabled fast
path allocates nothing and returns shared no-op singletons.
``tests/test_obs_inert.py`` holds the layer to that contract —
byte-identical campaign output and near-zero timing delta with the
session off.

Arm it with :func:`configure` (or the :func:`enabled_session` context
manager)::

    from repro import obs

    session = obs.configure(seed=2004)
    ...run a campaign...
    session.tracer.write_jsonl("trace.jsonl")
    obs.disable()

The three components (each optional):

* ``tracer`` — nested spans with deterministic ids, JSONL + Chrome
  trace-event export (:mod:`repro.obs.trace`);
* ``registry`` — named counters, merged by addition
  (:mod:`repro.obs.metrics`);
* ``profiler`` — accumulated per-section wall clock
  (:mod:`repro.obs.profile`).  To time one campaign, arm a session
  around it and read ``session.profiler.timings()``.

Pool workers call :func:`export_worker_payload` after each unit and
ship the result through the result stream; the parent folds it back
with :func:`merge_worker_payload`.  Span ids are keyed by unit id, so
a pooled trace matches its serial twin span-for-span.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.obs.trace import Span, Tracer

__all__ = [
    "MetricsRegistry", "ObsSession", "Profiler", "Span", "Tracer",
    "active", "configure", "disable", "enabled",
    "enabled_session", "span", "point", "incr",
    "section", "export_worker_payload", "merge_worker_payload",
    "reset_after_fork",
]


class ObsSession:
    """One armed observability session (tracer + registry + profiler)."""

    def __init__(self, trace: bool = True, metrics: bool = True,
                 profile: bool = True, seed: int = 0):
        self.seed = seed
        self.tracer: Optional[Tracer] = Tracer(seed) if trace else None
        self.registry: Optional[MetricsRegistry] = \
            MetricsRegistry() if metrics else None
        self.profiler: Optional[Profiler] = Profiler() if profile else None


#: The switchboard: ``None`` = every hook below is a no-op.
_SESSION: Optional[ObsSession] = None


class _NullSpan:
    """Shared no-op span (returned by :func:`span` when disabled)."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class _NullSection:
    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()
_NULL_SECTION = _NullSection()


# ---------------------------------------------------------------------
# session control
def configure(trace: bool = True, metrics: bool = True,
              profile: bool = True, seed: int = 0) -> ObsSession:
    """Arm observability; returns the installed session."""
    global _SESSION
    _SESSION = ObsSession(trace=trace, metrics=metrics, profile=profile,
                          seed=seed)
    return _SESSION


def disable() -> None:
    global _SESSION
    _SESSION = None


def active() -> Optional[ObsSession]:
    return _SESSION


def enabled() -> bool:
    return _SESSION is not None


@contextlib.contextmanager
def enabled_session(trace: bool = True, metrics: bool = True,
                    profile: bool = True, seed: int = 0):
    """``with obs.enabled_session() as s: ...`` — arm, then restore."""
    global _SESSION
    previous = _SESSION
    session = configure(trace=trace, metrics=metrics, profile=profile,
                        seed=seed)
    try:
        yield session
    finally:
        _SESSION = previous


# ---------------------------------------------------------------------
# hot-path hooks (one ``is None`` check when disabled)
def span(name: str, key: Any = None, **attrs: Any):
    """Open a nested span: ``with obs.span("unit", key=uid) as s: ...``"""
    if _SESSION is None or _SESSION.tracer is None:
        return _NULL_SPAN
    return _SESSION.tracer.span(name, key=key, **attrs)


def point(name: str, **fields: Any) -> None:
    """Record a time-series sample (e.g. coverage-vs-time)."""
    if _SESSION is None or _SESSION.tracer is None:
        return
    _SESSION.tracer.point(name, **fields)


def incr(name: str, n: int = 1) -> None:
    if _SESSION is None or _SESSION.registry is None:
        return
    _SESSION.registry.incr(name, n)


def section(name: str):
    """Accumulate this block's wall clock under ``name``."""
    if _SESSION is None or _SESSION.profiler is None:
        return _NULL_SECTION
    return _SESSION.profiler.section(name)


# ---------------------------------------------------------------------
# pool transport
def export_worker_payload() -> Optional[Dict[str, Any]]:
    """Drain this process's spans/metrics/timings for the result stream.

    Called by pool workers after each unit; drained state is *removed*
    so every payload is a clean delta.  Returns ``None`` when disabled
    (the common case — the wire stays free of dead weight).
    """
    if _SESSION is None:
        return None
    payload: Dict[str, Any] = {}
    if _SESSION.tracer is not None:
        payload["records"] = _SESSION.tracer.drain()
    if _SESSION.registry is not None:
        payload["metrics"] = _SESSION.registry.snapshot()
        _SESSION.registry.reset()
    if _SESSION.profiler is not None:
        payload["timings"] = _SESSION.profiler.timings()
        _SESSION.profiler.reset()
    return payload


def merge_worker_payload(payload: Optional[Dict[str, Any]]) -> None:
    """Fold a worker payload into the parent session (order-insensitive:
    every merge operator is associative and commutative)."""
    if _SESSION is None or not payload:
        return
    if _SESSION.tracer is not None and payload.get("records"):
        _SESSION.tracer.absorb(payload["records"])
    if _SESSION.registry is not None and payload.get("metrics"):
        _SESSION.registry.merge_snapshot(payload["metrics"])
    if _SESSION.profiler is not None and payload.get("timings"):
        _SESSION.profiler.merge_timings(payload["timings"])


def reset_after_fork() -> None:
    """Called in pool workers: drop observability state inherited
    copy-on-write from the parent so payloads only carry worker work."""
    if _SESSION is None:
        return
    if _SESSION.tracer is not None:
        _SESSION.tracer.reset_after_fork()
    if _SESSION.registry is not None:
        _SESSION.registry.reset()
    if _SESSION.profiler is not None:
        _SESSION.profiler.reset()
