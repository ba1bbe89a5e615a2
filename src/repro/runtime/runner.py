"""The resilient campaign runner.

A *campaign* is a long-running workload decomposed into idempotent
:class:`WorkUnit`\\ s (one fault to grade, one instruction variant to
sample, one PODEM target ...).  The runner executes the units in order
and survives the failure modes that kill monolithic loops:

* **Interruption** — each completed unit is checkpointed (JSONL, atomic
  appends, see :mod:`repro.runtime.checkpoint`); ``resume=True`` skips
  every unit already recorded and re-executes nothing.
* **Hangs** — a per-unit wall-clock ``unit_timeout`` bounds each
  attempt; the unit's thread is abandoned and the campaign moves on.
  Abandoned threads keep executing (pure-Python work cannot be killed),
  so the runner *accounts* for them: each timed-out unit's
  :class:`UnitResult` records how many of its threads were still alive
  when the unit finished (``leaked_threads``), and the process-pool
  backend (``jobs > 1``, see :mod:`repro.runtime.pool`) sidesteps the
  problem entirely — worker processes die with their threads.  In
  process, an abandoned thread can still write what the next attempt
  reads; the fault-grading units share only memos of deterministic
  values, so a late write stores what a fresh computation would.
* **Transient failures** — failed attempts are retried with exponential
  backoff before giving up.
* **Poisoned units** — a unit that fails every attempt is *quarantined*
  (recorded, reported, skipped) instead of aborting the campaign.  No
  unit is ever re-run on a cheaper backend: each one ends exact
  (``ok``) or failed (``quarantined``).

Settings no campaign can run with (a ``unit_timeout`` that is not a
positive, finite number, a checkpoint in a missing directory or under
one of the store's own scratch names) raise :class:`ConfigError` when
the runner is built, before any work starts (:func:`check_settings`).

Unit ``value``\\ s must be JSON-serialisable — they round-trip through
the checkpoint file on resume.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.runtime import chaos
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.errors import (
    CampaignError,
    ConfigError,
    FingerprintMismatchError,
    UnitTimeout,
)

#: Terminal unit statuses, in the order counts are reported.
STATUSES = ("ok", "quarantined")

#: Each retry waits this many times longer than the one before it.
BACKOFF_FACTOR = 2.0


@dataclass
class WorkUnit:
    """One idempotent slice of a campaign."""

    unit_id: str
    run: Callable[[], Any]


@dataclass
class UnitResult:
    """Terminal outcome of one unit (what the checkpoint records)."""

    unit_id: str
    status: str                  # "ok" | "quarantined"
    value: Any = None
    attempts: int = 1
    timeouts: int = 0
    error: Optional[str] = None
    elapsed: float = 0.0
    #: Timed-out attempt threads still alive when the unit finished.
    leaked_threads: int = 0
    resumed: bool = False        # satisfied from the checkpoint, not re-run

    def record(self) -> Dict[str, Any]:
        return {
            "unit": self.unit_id, "status": self.status,
            "value": self.value, "attempts": self.attempts,
            "timeouts": self.timeouts, "error": self.error,
            "elapsed": round(self.elapsed, 6),
            "leaked_threads": self.leaked_threads,
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any],
                    resumed: bool = True) -> "UnitResult":
        return cls(
            unit_id=record["unit"], status=record.get("status", "ok"),
            value=record.get("value"),
            attempts=record.get("attempts", 1),
            timeouts=record.get("timeouts", 0),
            error=record.get("error"),
            elapsed=record.get("elapsed", 0.0),
            leaked_threads=record.get("leaked_threads", 0),
            resumed=resumed,
        )


@dataclass
class CampaignReport:
    """Aggregate outcome of one runner invocation."""

    results: Dict[str, UnitResult] = field(default_factory=dict)
    interrupted: bool = False    # stopped early (max_units cutoff)

    def __getitem__(self, unit_id: str) -> UnitResult:
        return self.results[unit_id]

    @property
    def n_executed(self) -> int:
        return sum(1 for r in self.results.values() if not r.resumed)

    @property
    def n_resumed(self) -> int:
        return sum(1 for r in self.results.values() if r.resumed)

    @property
    def n_retried(self) -> int:
        return sum(1 for r in self.results.values() if r.attempts > 1)

    def by_status(self, status: str) -> List[UnitResult]:
        return [r for r in self.results.values() if r.status == status]

    @property
    def n_leaked_threads(self) -> int:
        return sum(r.leaked_threads for r in self.results.values())

    def counts(self) -> Dict[str, int]:
        """The accounting row benchmarks and the CLI report."""
        counts = {status: len(self.by_status(status)) for status in STATUSES}
        counts.update(
            total=len(self.results), executed=self.n_executed,
            resumed=self.n_resumed, retried=self.n_retried,
            leaked=self.n_leaked_threads,
        )
        return counts

    def summary(self) -> str:
        c = self.counts()
        text = (f"{c['total']} units: {c['ok']} ok, "
                f"{c['quarantined']} quarantined "
                f"({c['resumed']} resumed, {c['retried']} retried, "
                f"{c['leaked']} threads leaked)")
        if self.interrupted:
            text += " [interrupted]"
        return text


def call_with_timeout(fn: Callable[[], Any],
                      timeout: Optional[float]) -> Any:
    """Run ``fn`` bounded by ``timeout`` seconds of wall clock.

    The attempt runs on a daemon thread; on expiry the thread is
    abandoned (pure-Python work cannot be killed) and
    :class:`UnitTimeout` is raised with the zombie thread attached as
    ``exc.thread`` so the caller can account for the leak (it keeps
    executing — and possibly mutating shared state — until it returns
    on its own).  ``timeout=None`` runs inline.

    An attempt that returned after its budget times out too: the caller
    may wake from ``join`` only once the attempt's thread yields the
    GIL, which can be after the attempt has finished.
    """
    if timeout is None:
        return fn()
    box: Dict[str, Any] = {}

    def target():
        start = time.monotonic()
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            box["error"] = exc
        box["seconds"] = time.monotonic() - start

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    alive = thread.is_alive()
    if alive or box["seconds"] > timeout:
        expiry = UnitTimeout(f"unit exceeded {timeout:.3g}s wall clock")
        if alive:
            expiry.thread = thread
        raise expiry
    if "error" in box:
        raise box["error"]
    return box["value"]


class CampaignRunner:
    """Executes campaigns of work units with checkpointing and recovery.

    ``backoff_base * BACKOFF_FACTOR**k`` seconds are slept before retry
    ``k+1`` (capped at ``backoff_max``); ``sleep`` is injectable so tests
    can assert the schedule without waiting it out.

    ``jobs`` says how many processes grade: ``1`` (the default) runs
    every unit in-process; ``jobs > 1`` first forks up to that many
    workers (:mod:`repro.runtime.pool`) and hands each idle one the next
    pending unit, with per-worker JSONL checkpoint shards merged back
    into the canonical checkpoint.  A worker that dies is not replaced;
    the unit it held goes straight to the serial finish, with no stall.
    ``jobs=None`` honours the ``REPRO_JOBS`` environment variable
    (default 1, ``auto`` = CPU count).  Every ``jobs`` produces the same
    :class:`CampaignReport` — same unit ids, statuses and values, in
    the same order.
    """

    def __init__(
        self,
        checkpoint: Optional[str] = None,
        unit_timeout: Optional[float] = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        jobs: Optional[int] = 1,
    ):
        from repro.runtime.pool import resolve_jobs
        if max_retries < 0:
            raise CampaignError("max_retries must be >= 0")
        check_settings(checkpoint, unit_timeout)
        self.store = CheckpointStore(checkpoint) if checkpoint else None
        self.unit_timeout = unit_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.sleep = sleep
        self.clock = clock
        self.jobs = resolve_jobs(jobs)
        #: Threads abandoned by timed-out attempts that have not yet
        #: finished on their own (pruned as they die).
        self._leaked_threads: List[threading.Thread] = []

    # ------------------------------------------------------------------
    def backoff_schedule(self) -> List[float]:
        """The delays slept between attempts, in order."""
        return [
            min(self.backoff_base * BACKOFF_FACTOR ** k,
                self.backoff_max)
            for k in range(self.max_retries)
        ]

    # ------------------------------------------------------------------
    def run(
        self,
        units: Sequence[WorkUnit],
        fingerprint: Optional[Dict[str, Any]] = None,
        resume: bool = False,
        repair: bool = False,
        max_units: Optional[int] = None,
        warmup: Optional[Callable[[], Any]] = None,
        force: bool = False,
    ) -> CampaignReport:
        """Execute ``units``, honouring the checkpoint when resuming.

        ``fingerprint`` identifies the workload; a resumed checkpoint
        whose header fingerprint differs raises
        :class:`FingerprintMismatchError` — the checkpoint belongs to a
        different campaign (different adapter, netlist hash, seed ...)
        and silently mixing its records into this one would fabricate
        results.  ``force=True`` overrides the check deliberately (the
        CLI's ``--force``).  ``max_units`` stops after that many fresh
        executions — the deterministic stand-in for a kill signal in
        tests and for incremental runs.

        ``warmup`` is invoked once before the pool forks (``jobs > 1``):
        campaigns use it to build the shared trace/setup state in the
        parent so every forked worker inherits it copy-on-write instead
        of re-deriving it.  It is skipped when nothing is pending (a
        fully resumed campaign touches the checkpoint file only) and at
        ``jobs=1``, where lazy setup already runs at most once.
        """
        units = list(units)
        seen: set = set()
        for unit in units:
            if unit.unit_id in seen:
                raise CampaignError(f"duplicate unit id {unit.unit_id!r}")
            seen.add(unit.unit_id)

        completed: Dict[str, Dict[str, Any]] = {}
        if self.store is not None:
            if resume and self.store.exists():
                header, completed = self.store.load(repair=repair)
                recorded = header.get("fingerprint") or {}
                if fingerprint is not None and recorded != fingerprint \
                        and not force:
                    raise FingerprintMismatchError(
                        "checkpoint fingerprint mismatch: file has "
                        f"{recorded!r}, campaign expects {fingerprint!r} "
                        "(resume with force to override)"
                    )
                # A previous pooled run killed mid-campaign may have left
                # worker shards holding records the canonical checkpoint
                # never received; fold them in before planning.
                from repro.runtime.pool import merge_shards
                merge_shards(self.store, completed)
            else:
                # A fresh campaign owns the path: shards a killed earlier
                # campaign left behind must not merge into its resume.
                from repro.runtime.pool import remove_shards
                remove_shards(self.store.path)
                self.store.create(fingerprint)

        campaign_span = obs.span("campaign", jobs=self.jobs,
                                 units=len(units))
        try:
            with campaign_span, obs.section("campaign.run"):
                report = self._run_units(units, completed, max_units,
                                         warmup)
                if obs.enabled():
                    campaign_span.set(**report.counts())
                return report
        finally:
            if self.store is not None:
                self.store.close()

    # ------------------------------------------------------------------
    def _run_units(
        self,
        units: List[WorkUnit],
        completed: Dict[str, Dict[str, Any]],
        max_units: Optional[int],
        warmup: Optional[Callable[[], Any]],
    ) -> CampaignReport:
        """The one unit loop, at every ``jobs``.

        One scan keeps resumed records in place and cuts the campaign
        at the first pending unit over the fresh-execution budget
        (``max_units``), so every ``jobs`` reports the same units in the
        same order.  Under ``jobs > 1`` the pool takes the pending units
        first; the serial finish then runs, in order, every pending unit
        the pool did not return (each one at ``jobs=1``).
        """
        from repro.runtime.pool import remove_shards, run_pooled

        report = CampaignReport()
        kept: List[Any] = []            # unit or its resumed record, in order
        pending: List[WorkUnit] = []
        for unit in units:
            record = completed.get(unit.unit_id)
            # Only a terminal status satisfies a unit without re-running:
            # older checkpoints can hold behaviour-only answers that must
            # never reach a report.
            if record is not None and record.get("status") in STATUSES:
                kept.append(UnitResult.from_record(record))
                continue
            if max_units is not None and len(pending) >= max_units:
                report.interrupted = True
                break
            pending.append(unit)
            kept.append(unit)

        results: Dict[str, UnitResult] = {}
        if pending and self.jobs > 1:
            if warmup is not None:
                warmup()
            results = run_pooled(self, pending)
        leftover = [u for u in pending if u.unit_id not in results]
        for unit in leftover:
            # The serial finish.  Under a pool: no worker could be
            # forked, or the unit's worker died.
            result = self._run_unit(unit)
            results[unit.unit_id] = result
            if self.store is not None:
                self.store.append(result.record())
        if self.store is not None:
            # Every pending unit's record is in the canonical checkpoint
            # now, so no worker shard holds anything it lacks, including
            # a dead worker's.
            remove_shards(self.store.path)
        for entry in kept:
            if isinstance(entry, UnitResult):
                report.results[entry.unit_id] = entry
            else:
                report.results[entry.unit_id] = results[entry.unit_id]
        return report

    # ------------------------------------------------------------------
    def leaked_thread_count(self) -> int:
        """Abandoned timeout threads still running right now."""
        self._leaked_threads = [
            t for t in self._leaked_threads if t.is_alive()
        ]
        return len(self._leaked_threads)

    def _run_unit(self, unit: WorkUnit) -> UnitResult:
        span = obs.span("unit", key=unit.unit_id)
        with span, obs.section("runner.unit"):
            result = self._execute_unit(unit)
            span.set(status=result.status, attempts=result.attempts)
            obs.incr(f"campaign.units.{result.status}")
            return result

    def _execute_unit(self, unit: WorkUnit) -> UnitResult:
        started = self.clock()
        timeouts = 0
        last_error: Optional[BaseException] = None
        unit_threads: List[threading.Thread] = []

        # Chaos injection (no-op unless a ChaosMonkey is installed):
        # "kill" raises ChaosKill here — mid-campaign, before this
        # unit's record can be written, exactly like a real SIGKILL —
        # and "hang" makes the first attempt block past unit_timeout.
        fired = chaos.inject("runner.unit", unit_id=unit.unit_id)
        run_fn = unit.run
        if fired == "hang" and self.unit_timeout:
            run_fn = chaos.hanging(unit.run, self.unit_timeout)

        def finish(result: UnitResult) -> UnitResult:
            result.leaked_threads = sum(
                1 for t in unit_threads if t.is_alive()
            )
            self.leaked_thread_count()  # prune the runner-level list
            return result

        for attempt in range(self.max_retries + 1):
            if attempt:
                self.sleep(self.backoff_schedule()[attempt - 1])
            try:
                value = call_with_timeout(run_fn, self.unit_timeout)
                return finish(UnitResult(
                    unit_id=unit.unit_id, status="ok", value=value,
                    attempts=attempt + 1, timeouts=timeouts,
                    elapsed=self.clock() - started,
                ))
            except UnitTimeout as exc:
                timeouts += 1
                last_error = exc
                thread = getattr(exc, "thread", None)
                if thread is not None:  # abandoned, still running
                    unit_threads.append(thread)
                    self._leaked_threads.append(thread)
            except Exception as exc:  # noqa: BLE001 — quarantine, don't abort
                last_error = exc

        return finish(UnitResult(
            unit_id=unit.unit_id, status="quarantined", value=None,
            attempts=self.max_retries + 1, timeouts=timeouts,
            error=_describe(last_error),
            elapsed=self.clock() - started,
        ))


def check_settings(checkpoint: Optional[str],
                   unit_timeout: Optional[float]) -> None:
    """Reject runner settings no campaign can run with.

    Raises :class:`ConfigError` for a ``unit_timeout`` that is not
    positive (every attempt would time out at once) or not finite
    (``Thread.join`` rejects ``nan`` and ``inf``), and for a
    ``checkpoint`` whose directory does not exist or whose name is one
    of the store's own scratch names (``<checkpoint>.tmp`` during an
    atomic replace, ``<checkpoint>.shard-<pid>`` for pool workers).
    """
    if unit_timeout is not None and not 0 < unit_timeout < math.inf:
        raise ConfigError(
            f"unit timeout must be positive and finite, got {unit_timeout!r}")
    if not checkpoint:
        return
    name = os.path.basename(checkpoint)
    if name.endswith(".tmp") or ".shard-" in name:
        raise ConfigError(
            f"checkpoint {checkpoint!r} uses a reserved name: the store "
            "writes '<checkpoint>.tmp' and '<checkpoint>.shard-<pid>' "
            "files of its own")
    directory = os.path.dirname(os.path.abspath(checkpoint))
    if not os.path.isdir(directory):
        raise ConfigError(
            f"checkpoint directory {directory!r} does not exist")


def _describe(exc: Optional[BaseException]) -> Optional[str]:
    if exc is None:
        return None
    return f"{type(exc).__name__}: {exc}"
