"""Observability: named counters and profiler sections.

The runtime's hot paths call the module-level hooks below
(:func:`incr`, :func:`section`).  Exactly like
:mod:`repro.runtime.chaos`, the layer is **inert unless armed**: a
single module-global session reference is ``None`` by default, every
hook starts with that one ``is None`` check, and the disabled fast
path allocates nothing and returns a shared no-op singleton.
``tests/test_obs_inert.py`` holds the layer to that contract —
byte-identical campaign output and near-zero timing delta with the
session off.

Arm it with :func:`configure` (or the :func:`enabled_session` context
manager)::

    from repro import obs

    session = obs.configure()
    ...run a campaign...
    session.profiler.timings()
    obs.disable()

The two components (each optional):

* ``registry`` — named counters, merged by addition
  (:mod:`repro.obs.metrics`);
* ``profiler`` — accumulated per-section wall clock
  (:mod:`repro.obs.profile`).  To time one campaign, arm a session
  around it and read ``session.profiler.timings()``.

Pool workers call :func:`export_worker_payload` after each unit and
ship the result through the result stream; the parent folds it back
with :func:`merge_worker_payload`, so a pooled session holds the same
counters and section calls as its serial twin.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler

__all__ = [
    "MetricsRegistry", "ObsSession", "Profiler",
    "active", "configure", "disable", "enabled",
    "enabled_session", "incr", "section",
    "export_worker_payload", "merge_worker_payload", "reset_after_fork",
]


class ObsSession:
    """One armed observability session (registry + profiler)."""

    def __init__(self, metrics: bool = True, profile: bool = True):
        self.registry: Optional[MetricsRegistry] = \
            MetricsRegistry() if metrics else None
        self.profiler: Optional[Profiler] = Profiler() if profile else None


#: The switchboard: ``None`` = every hook below is a no-op.
_SESSION: Optional[ObsSession] = None


class _NullSection:
    """Shared no-op section (returned by :func:`section` when disabled)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SECTION = _NullSection()


# ---------------------------------------------------------------------
# session control
def configure(metrics: bool = True, profile: bool = True, *,
              trace: Any = None, seed: Any = None) -> ObsSession:
    """Arm observability; returns the installed session.

    ``trace`` and ``seed`` are accepted and ignored: they configured
    the span tracer, which is gone, and the benchmark harness still
    passes them.
    """
    global _SESSION
    _SESSION = ObsSession(metrics=metrics, profile=profile)
    return _SESSION


def disable() -> None:
    global _SESSION
    _SESSION = None


def active() -> Optional[ObsSession]:
    return _SESSION


def enabled() -> bool:
    return _SESSION is not None


@contextlib.contextmanager
def enabled_session(metrics: bool = True, profile: bool = True):
    """``with obs.enabled_session() as s: ...`` — arm, then restore."""
    global _SESSION
    previous = _SESSION
    session = configure(metrics=metrics, profile=profile)
    try:
        yield session
    finally:
        _SESSION = previous


# ---------------------------------------------------------------------
# hot-path hooks (one ``is None`` check when disabled)
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
    """Drain this process's metrics/timings for the result stream.

    Called by pool workers after each unit; drained state is *removed*
    so every payload is a clean delta.  Returns ``None`` when disabled
    (the common case — the wire stays free of dead weight).
    """
    if _SESSION is None:
        return None
    payload: Dict[str, Any] = {}
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
    if _SESSION.registry is not None and payload.get("metrics"):
        _SESSION.registry.merge_snapshot(payload["metrics"])
    if _SESSION.profiler is not None and payload.get("timings"):
        _SESSION.profiler.merge_timings(payload["timings"])


def reset_after_fork() -> None:
    """Called in pool workers: drop observability state inherited
    copy-on-write from the parent so payloads only carry worker work."""
    if _SESSION is None:
        return
    if _SESSION.registry is not None:
        _SESSION.registry.reset()
    if _SESSION.profiler is not None:
        _SESSION.profiler.reset()
