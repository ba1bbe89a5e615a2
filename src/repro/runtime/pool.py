"""Process-pool execution backend for the campaign runner.

Campaign work units are closures over live simulator state, which rules
out pickling them through a task queue.  The backend instead relies on
``fork`` start-method semantics: the pending units (and any state the
campaign warmed up — recorded traces, compiled evaluators, PODEM
setups) are published in a module-level context *before* the workers
are forked, every worker inherits them copy-on-write, and the only
things that cross process boundaries are unit **indices** (parent →
worker) and JSON-serialisable result **envelopes** (worker → parent).
An envelope carries the unit's checkpoint record and, when an
observability session is armed (:mod:`repro.obs`), the worker's drained
counter snapshot and profiler timings.  Campaigns build
their simulators before the fork, so no worker compiles an evaluator
and the parent's ``cache_stats()`` counts every compile.

Each worker has a pipe of its own, so the pool shares no queue or lock
between workers, and a worker's death blocks no other.  The parent
hands an idle worker one unit index at a time and waits on every busy
worker's pipe at once.  A worker that dies (a hard crash, a SIGKILL)
shows as EOF, or as a failed send, on its own pipe.  It is not
replaced: the other workers carry on, and the one unit it held is left
out of the results for the runner's serial finish.  Each worker grades
its units with the same retry/backoff/timeout/quarantine state machine
as the serial runner (``CampaignRunner._run_unit``).  A unit that times
out in a worker leaks a daemon thread *in that worker*; the thread dies
with the worker at shutdown, which is exactly the isolation the
in-process backend cannot provide.  Shutdown kills and reaps every
worker, which cannot hang.

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

If no worker can be forked (no ``fork`` support, or the fork itself
fails), :func:`run_pooled` returns no results and the runner runs every
unit serially.  A unit enters the results only once the parent has
appended its record to the canonical checkpoint; a failed append
propagates out of the run.
"""

from __future__ import annotations

import glob
import os
from typing import Any, Dict, List, Optional

from repro import obs
from repro.runtime import chaos
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.errors import CheckpointCorruptError, ConfigError

#: Module-level context published by the parent immediately before the
#: workers fork; inherited copy-on-write by every worker.
_POOL_CONTEXT: Optional[Dict[str, Any]] = None


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
def _worker_main(conn, inherited: List[Any]) -> None:
    """A worker's life: grade each unit index the parent sends and send
    back its envelope, until the parent kills it.

    ``inherited`` holds the parent's ends of the pipes this worker was
    forked with (its own and those of earlier workers); closing them
    leaves the parent the only holder, so a worker whose parent died
    first sees EOF and exits.
    """
    for other in inherited:
        other.close()
    runner, shard = _worker_init()
    while True:
        try:
            index = conn.recv()
        except EOFError:
            return
        conn.send(_worker_run(runner, shard, index))


def _worker_init():
    """Build this worker's runner and open its checkpoint shard.

    Runs after the fork, so ``_POOL_CONTEXT`` (units, runner settings,
    warmed-up campaign state reachable from the unit closures) is
    already in this process's memory.  Returns ``(runner, shard)``;
    the shard is ``None`` when the campaign has no checkpoint.
    """
    from repro.runtime.runner import CampaignRunner

    context = _POOL_CONTEXT
    assert context is not None, "worker forked without a pool context"
    shard = None
    if context["checkpoint"]:
        shard = CheckpointStore(
            shard_path_for(context["checkpoint"], os.getpid())
        )
        shard.create(None)
    runner = CampaignRunner(**context["config"])
    # Observability state was inherited copy-on-write from the parent;
    # drop it so this worker's payloads only ever carry its own work.
    obs.reset_after_fork()
    return runner, shard


def _worker_run(runner, shard: Optional[CheckpointStore],
                index: int) -> Dict[str, Any]:
    """Grade one pending unit (by index) and return its result envelope.

    The envelope is ``{"record", "obs"}``: the checkpoint record
    (exactly what the serial backend would have written — the shard
    stores *only* this, so checkpoint bytes are backend-independent)
    and the drained observability payload (``None`` unless a session
    is armed).
    """
    unit = _POOL_CONTEXT["units"][index]
    # Chaos "kill_worker": a real SIGKILL of this worker process,
    # mid-unit — the parent must see the EOF on this worker's pipe and
    # finish the unit serially.
    chaos.inject("pool.worker.unit", unit_id=unit.unit_id)
    record = runner._run_unit(unit).record()
    if shard is not None:
        shard.append(record)
    return {"record": record, "obs": obs.export_worker_payload()}


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def run_pooled(runner, pending: List[Any]) -> Dict[str, Any]:
    """Execute ``pending`` units on ``min(runner.jobs, len(pending))``
    forked workers.

    Returns ``{unit_id: UnitResult}`` for every unit that completed;
    the caller finishes the missing ones serially (the unit a dead
    worker held, or every unit when no worker could be forked).
    Completed records are appended to the runner's canonical checkpoint
    as they arrive.  Worker shards stay in place: the caller deletes
    them once every pending unit is in the canonical checkpoint, and a
    parent that dies or fails an append first leaves them for
    :func:`merge_shards`.
    """
    global _POOL_CONTEXT
    from repro.runtime.runner import UnitResult

    if not fork_available():
        return {}
    import multiprocessing
    from multiprocessing.connection import wait

    checkpoint = runner.store.path if runner.store is not None else None
    _POOL_CONTEXT = {
        "units": pending,
        "checkpoint": checkpoint,
        "config": {
            "unit_timeout": runner.unit_timeout,
            "max_retries": runner.max_retries,
            "backoff_base": runner.backoff_base,
            "backoff_max": runner.backoff_max,
        },
    }
    results: Dict[str, Any] = {}
    context = multiprocessing.get_context("fork")
    workers: Dict[Any, Any] = {}    # parent's pipe end -> its worker
    try:
        for _ in range(min(runner.jobs, len(pending))):
            conn, child_conn = context.Pipe()
            process = context.Process(target=_worker_main,
                                      args=(child_conn, [conn, *workers]),
                                      daemon=True)
            try:
                process.start()
            except OSError:
                conn.close()
                break               # cannot fork: use the workers there are
            finally:
                # Only the worker may hold its end: the parent's EOF on
                # ``conn`` then means the worker is gone.
                child_conn.close()
            workers[conn] = process
        units = iter(range(len(pending)))
        busy = {conn for conn in workers if _hand_out(conn, units)}
        while busy:
            for conn in wait(list(busy)):
                try:
                    envelope = conn.recv()
                except (EOFError, OSError):
                    busy.discard(conn)  # dead mid-unit: its unit runs serially
                    continue
                if not _hand_out(conn, units):
                    busy.discard(conn)
                record = envelope["record"]
                obs.merge_worker_payload(envelope.get("obs"))
                result = UnitResult.from_record(record, resumed=False)
                # Durable before reported.  A failed append propagates,
                # as on the serial path; the worker's shard keeps the
                # record for the next resume to merge.
                if runner.store is not None:
                    runner.store.append(record)
                results[result.unit_id] = result
    finally:
        # Workers may still be mid-unit (a failed append, a ChaosKill).
        # One killed inside the chaos monkey's lock would hold it for
        # good, stalling the parent and every later worker.
        with chaos.quiesced():
            for process in workers.values():
                process.kill()
            for process in workers.values():
                process.join()
        for conn in workers:
            conn.close()
        _POOL_CONTEXT = None
    return results


def _hand_out(conn, units) -> bool:
    """Send the next pending unit index down ``conn``.  ``False`` when
    none is left, or when the send fails because the worker is dead:
    that unit is then finished serially."""
    index = next(units, None)
    if index is None:
        return False
    try:
        conn.send(index)
    except OSError:
        return False
    return True
