"""Process-pool execution backend for the campaign runner.

Campaign work units are closures over live simulator state, which rules
out pickling them through a task queue.  The backend instead relies on
``fork`` start-method semantics: the pending units (and any state the
campaign warmed up — recorded traces, compiled evaluators, PODEM
setups) are published in a module-level context *before* the pool is
created, every forked worker inherits them copy-on-write, and the only
things that cross process boundaries are unit **indices** (parent →
worker) and JSON-serialisable result **envelopes** (worker → parent).
An envelope carries the unit's checkpoint record plus two bookkeeping
payloads: the worker's cache hit/miss counter delta for the unit
(always — the parent folds it into its own counters, so
``cache_stats()`` aggregates truthfully under ``jobs > 1``) and, when
an observability session is armed (:mod:`repro.obs`), the worker's
drained span buffer, metric snapshot and profiler timings.

Durability matches the serial backend's kill-anytime contract:

* the parent appends each completed record to the canonical checkpoint
  as it arrives (completion order — resume keys records by unit id, so
  order never matters for recovery);
* each worker *also* appends every record it produces to its own JSONL
  **shard** (``<checkpoint>.shard-<pid>``, fsync per record), so a
  parent killed between a worker finishing a unit and the parent
  persisting it loses nothing — the next ``resume=True`` run merges
  leftover shards back into the canonical file before planning
  (:func:`merge_shards`);
* shards are deleted once their records are safely in the canonical
  checkpoint (once every pending unit has its record there, from the
  pool or the serial finish, or after a merge), and a fresh
  (non-resumed) campaign deletes any it finds before it starts.

Work is dispatched in work-stealing chunks (``imap_unordered`` with a
chunk size that keeps every worker busy) and each worker grades its
units with the same retry/backoff/timeout/quarantine state machine as
the serial runner (``CampaignRunner._run_unit``).  A unit that times
out in a worker leaks a daemon thread *in that worker* — the thread
dies with the worker process at pool shutdown, which is exactly the
isolation the in-process backend cannot provide.

If the pool cannot be used at all (no ``fork`` support) or dies
mid-campaign (a worker hard-crashes), :func:`run_pooled` returns the
results it has; the runner finishes the remainder serially.  A unit
enters those results only once the parent has appended its record to
the canonical checkpoint; a failed append propagates out of the run.
"""

from __future__ import annotations

import glob
import os
import time
from typing import Any, Callable, Dict, FrozenSet, List, Optional

from repro import obs
from repro.runtime import cache, chaos
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.errors import CheckpointCorruptError, ConfigError

#: Module-level context published by the parent immediately before the
#: pool forks; inherited copy-on-write by every worker.
_POOL_CONTEXT: Optional[Dict[str, Any]] = None
#: Per-worker state built by the pool initializer (after the fork).
_WORKER_STATE: Optional[Dict[str, Any]] = None


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
def resolve_jobs(jobs: Optional[object]) -> int:
    """Normalise a ``--jobs`` / ``REPRO_JOBS`` value to a worker count.

    ``None`` defers to the ``REPRO_JOBS`` environment variable (absent
    → 1, the serial backend); ``"auto"`` means the machine's CPU count.
    """
    if jobs is None:
        jobs = os.environ.get("REPRO_JOBS") or 1
    if isinstance(jobs, str):
        if jobs.strip().lower() == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            jobs = int(jobs)
        except ValueError:
            raise ConfigError(
                f"jobs must be a positive integer or 'auto', got {jobs!r}"
            ) from None
    if not isinstance(jobs, int) or jobs < 1:
        raise ConfigError(
            f"jobs must be a positive integer or 'auto', got {jobs!r}"
        )
    return jobs


def fork_available() -> bool:
    import multiprocessing
    return "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------------------
# Checkpoint shards
# ----------------------------------------------------------------------
def shard_paths(checkpoint_path: str) -> List[str]:
    """Shard files belonging to ``checkpoint_path``, sorted for determinism."""
    return sorted(glob.glob(glob.escape(checkpoint_path) + ".shard-*"))


def shard_path_for(checkpoint_path: str, pid: int) -> str:
    return f"{checkpoint_path}.shard-{pid}"


def merge_shards(store: CheckpointStore,
                 completed: Dict[str, Dict[str, Any]]) -> int:
    """Fold leftover worker shards into the canonical checkpoint.

    Every shard starts with the chained header :func:`_worker_init`
    writes, so it loads like a canonical checkpoint under
    ``repair=True``: the records before the first one that breaks the
    chain (corrupted, edited or torn) are trusted.  A shard whose header
    is missing or fails its digest contributes nothing, and its units
    re-run.  Every trusted record not already in ``completed`` is
    appended to the canonical file and added to ``completed``.
    Consumed shards are deleted.  Returns the number of records merged.
    """
    paths = shard_paths(store.path)
    # Chaos "shard_loss": a shard vanishes before its records are
    # merged — the campaign must simply re-run the lost units.
    chaos.inject("pool.merge", paths=paths)
    merged = 0
    for path in paths:
        try:
            _, records = CheckpointStore(path).load(repair=True)
        except CheckpointCorruptError:
            records = {}
        for unit_id, record in records.items():
            if unit_id in completed:
                continue
            completed[unit_id] = record
            store.append(record)
            merged += 1
        try:
            os.remove(path)
        except OSError:
            pass  # e.g. already removed by an injected shard loss
    return merged


def remove_shards(checkpoint_path: str) -> None:
    for path in shard_paths(checkpoint_path):
        try:
            os.remove(path)
        except OSError:
            pass


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_init() -> None:
    """Build this worker's runner and open its checkpoint shard.

    Runs after the fork, so ``_POOL_CONTEXT`` (units, runner settings,
    warmed-up campaign state reachable from the unit closures) is
    already in this process's memory.
    """
    global _WORKER_STATE
    from repro.runtime.runner import CampaignRunner

    context = _POOL_CONTEXT
    assert context is not None, "worker forked without a pool context"
    config = context["config"]
    shard = None
    if context["checkpoint"]:
        shard = CheckpointStore(
            shard_path_for(context["checkpoint"], os.getpid())
        )
        shard.create(context["fingerprint"])
    _WORKER_STATE = {
        "runner": CampaignRunner(
            unit_timeout=config["unit_timeout"],
            max_retries=config["max_retries"],
            backoff_base=config["backoff_base"],
            backoff_factor=config["backoff_factor"],
            backoff_max=config["backoff_max"],
        ),
        "shard": shard,
    }
    # Observability state was inherited copy-on-write from the parent;
    # drop it so this worker's payloads only ever carry its own work.
    obs.reset_after_fork()


def _counter_delta(before: Dict[str, int],
                   after: Dict[str, int]) -> Dict[str, int]:
    """The (non-negative, sparse) difference between two counter maps."""
    return {key: after[key] - before.get(key, 0)
            for key in after if after[key] != before.get(key, 0)}


def _worker_run(index: int) -> Dict[str, Any]:
    """Grade one pending unit (by index) and return its result envelope.

    The envelope is ``{"record", "cache", "obs"}``: the checkpoint
    record (exactly what the serial backend would have written — the
    shard stores *only* this, so checkpoint bytes are
    backend-independent), the worker's cache-counter delta for this
    unit, and the drained observability payload (``None`` unless a
    session is armed).
    """
    state = _WORKER_STATE
    unit = _POOL_CONTEXT["units"][index]
    # Chaos "kill_worker": a real SIGKILL of this worker process,
    # mid-unit — the parent's stall detection must notice the death,
    # salvage what completed, and finish the remainder serially.
    chaos.inject("pool.worker.unit", unit_id=unit.unit_id)
    cache_before = cache.counter_snapshot()
    result = state["runner"]._run_unit(unit)
    record = result.record()
    if state["shard"] is not None:
        state["shard"].append(record)
    return {
        "record": record,
        "cache": _counter_delta(cache_before, cache.counter_snapshot()),
        "obs": obs.export_worker_payload(),
    }


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def run_pooled(
    runner,
    pending: List[Any],
    progress: Optional[Callable[[Any, int, int], None]] = None,
    total: Optional[int] = None,
) -> Dict[str, Any]:
    """Execute ``pending`` units on a forked pool of ``runner.jobs`` workers.

    Returns ``{unit_id: UnitResult}`` for every unit that completed;
    the caller treats missing units as "finish serially".  Completed
    records are appended to the runner's canonical checkpoint as they
    arrive.  Worker shards stay in place: the caller deletes them once
    every pending unit is in the canonical checkpoint, and a parent that
    dies or fails an append first leaves them for :func:`merge_shards`.
    """
    global _POOL_CONTEXT
    from repro.runtime.runner import UnitResult

    if not fork_available():
        return {}
    import multiprocessing

    checkpoint = runner.store.path if runner.store is not None else None
    fingerprint: Optional[Dict[str, Any]] = None
    _POOL_CONTEXT = {
        "units": pending,
        "checkpoint": checkpoint,
        "fingerprint": fingerprint,
        "config": {
            "unit_timeout": runner.unit_timeout,
            "max_retries": runner.max_retries,
            "backoff_base": runner.backoff_base,
            "backoff_factor": runner.backoff_factor,
            "backoff_max": runner.backoff_max,
        },
    }
    jobs = min(runner.jobs, len(pending))
    results: Dict[str, Any] = {}
    total = total if total is not None else len(pending)
    context = multiprocessing.get_context("fork")
    try:
        try:
            pool = context.Pool(jobs, initializer=_worker_init)
        except Exception:
            return results          # no usable pool: all units run serially
        try:
            for envelope in _envelopes(pool, len(pending),
                                       _stall_budget(runner)):
                record = envelope["record"]
                cache.merge_counts(envelope.get("cache") or {})
                obs.merge_worker_payload(envelope.get("obs"))
                result = UnitResult.from_record(record, resumed=False)
                # Durable before reported.  A failed append propagates,
                # as on the serial path; the worker's shard keeps the
                # record for the next resume to merge.
                if runner.store is not None:
                    runner.store.append(record)
                results[result.unit_id] = result
                if progress is not None:
                    progress(result, len(results), total)
            if len(results) == len(pending):
                # A clean shutdown.  A failed pool is only terminated:
                # joining it could wait forever on the task a killed
                # worker took with it.
                pool.close()
                pool.join()
        finally:
            # A worker killed inside the chaos monkey's lock would hold
            # it for good, stalling the parent and every later worker.
            with chaos.quiesced():
                pool.terminate()
    finally:
        _POOL_CONTEXT = None
    return results


def _envelopes(pool, n_units: int, stall_budget: float):
    """Yield the workers' result envelopes as they arrive.

    Ends early, without raising, when the pool fails: a worker
    hard-crashed, the pool machinery broke, or a worker died and no
    result arrived within ``stall_budget`` seconds.  The runner then
    finishes the remaining units serially.
    """
    import multiprocessing

    # chunksize must stay 1: with a larger chunk the pool returns a
    # flattening *generator* instead of the IMapUnorderedIterator whose
    # ``next(timeout)`` the dead-worker poll below needs.  (It is also
    # the finest work-stealing granularity — a slow unit cannot
    # straggle a whole chunk.)
    stream = pool.imap_unordered(_worker_run, range(n_units), chunksize=1)
    workers = _live_worker_pids(pool)
    worker_died = False
    received = 0
    last_progress = time.monotonic()
    while received < n_units:
        # `multiprocessing.Pool` silently respawns a SIGKILLed worker but
        # never redelivers the task it was holding — a plain `for
        # envelope in stream` would block forever.  Poll with a timeout
        # and give up once a worker has died and no result has arrived
        # within the stall budget.  The pool's handler thread usually
        # reaps and replaces the dead worker between two polls, so a
        # death shows as a change in the set of live worker pids; once
        # seen it counts for the rest of the run.
        try:
            envelope = stream.next(timeout=_POOL_POLL_SECONDS)
        except multiprocessing.TimeoutError:
            worker_died = worker_died or _live_worker_pids(pool) != workers
            stalled = time.monotonic() - last_progress
            if worker_died and stalled >= stall_budget:
                return
            continue
        except Exception:
            return
        received += 1
        last_progress = time.monotonic()
        yield envelope


#: How often the parent polls the result stream for worker death.
_POOL_POLL_SECONDS = 0.25


def _stall_budget(runner) -> float:
    """Seconds without progress (while a worker is dead) before the
    pool is abandoned.  Derived from the per-unit retry/backoff budget
    when the runner does not pin ``pool_stall_timeout`` explicitly."""
    if runner.pool_stall_timeout is not None:
        return runner.pool_stall_timeout
    if runner.unit_timeout is not None:
        per_attempt = runner.unit_timeout * (runner.max_retries + 2)
        return max(5.0, (per_attempt + sum(runner.backoff_schedule())) * 4)
    return 60.0


def _live_worker_pids(pool) -> Optional[FrozenSet[int]]:
    """The pids of the pool processes that have not exited.

    Reads the pool's private process list — there is no public API for
    this short of ``concurrent.futures`` (whose ``BrokenProcessPool``
    machinery cannot run closures over forked state).  Returns ``None``
    for an unreadable pool.
    """
    try:
        return frozenset(p.pid for p in pool._pool if p.exitcode is None)
    except Exception:  # noqa: BLE001 — private API, best effort
        return None
