"""Tests for the process-pool campaign backend (repro.runtime.pool)."""

import json

import pytest

from repro.faults.hierarchical import (
    DspFaultUniverse,
    HierarchicalFaultSimulator,
)
from repro.runtime.campaigns import HierarchicalCampaign
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.errors import ConfigError
from repro.runtime.pool import (
    fork_available,
    merge_shards,
    resolve_jobs,
    shard_path_for,
    shard_paths,
)
from repro.runtime.runner import CampaignRunner, WorkUnit

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
def test_resolve_jobs_default_is_serial(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1


def test_resolve_jobs_env_and_explicit(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs(None) == 3
    assert resolve_jobs(4) == 4          # explicit beats the environment
    assert resolve_jobs("2") == 2


def test_resolve_jobs_auto(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs("auto") >= 1


@pytest.mark.parametrize("bad", [0, -2, "zero", "1.5", 2.5])
def test_resolve_jobs_rejects_garbage(bad):
    with pytest.raises(ConfigError):
        resolve_jobs(bad)


def test_runner_honours_repro_jobs_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    assert CampaignRunner(jobs=None).jobs == 2
    assert CampaignRunner().jobs == 1    # explicit default stays serial


# ----------------------------------------------------------------------
# Shard merging
# ----------------------------------------------------------------------
def write_shard(path, pid, records):
    """A worker shard exactly as ``_worker_init`` + ``_worker_run``
    leave it: a chained header, then one chained record per unit."""
    shard = CheckpointStore(shard_path_for(path, pid))
    shard.create(None)
    for record in records:
        shard.append(record)
    shard.close()
    return shard.path


def test_merge_shards_recovers_orphaned_records(tmp_path):
    """Records a killed parent never persisted are folded back in, and
    a partial tail (worker killed mid-write) is dropped silently."""
    path = str(tmp_path / "ck.jsonl")
    store = CheckpointStore(path)
    store.create({"n": 1})
    store.append({"unit": "a", "status": "ok", "value": 1})

    shard = write_shard(path, 12345, [
        {"unit": "a", "status": "ok", "value": 999},
        {"unit": "b", "status": "ok", "value": 2},
    ])
    with open(shard, "a", encoding="utf-8") as handle:
        handle.write('{"unit": "c", "status"')     # torn write

    _, completed = store.load()
    merged = merge_shards(store, completed)
    assert merged == 1
    assert completed["a"]["value"] == 1            # canonical record wins
    assert completed["b"]["value"] == 2
    assert "c" not in completed
    assert shard_paths(path) == []                 # shard consumed

    # The merged record is durable in the canonical file.
    _, reloaded = CheckpointStore(path).load()
    assert set(reloaded) == {"a", "b"}


def test_merge_shards_orders_shards_deterministically(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    store = CheckpointStore(path)
    store.create(None)
    for pid in (222, 111):
        write_shard(path, pid, [{"unit": "x", "status": "ok", "value": pid}])
    completed = {}
    merge_shards(store, completed)
    # Lexicographically first shard wins the duplicate.
    assert completed["x"]["value"] == 111


def test_headerless_shard_merges_nothing(tmp_path):
    """A shard without a verifiable chained header is untrusted as a
    whole: none of its records merge, so its units re-run."""
    path = str(tmp_path / "ck.jsonl")
    store = CheckpointStore(path)
    store.create(None)
    with open(shard_path_for(path, 4242), "w", encoding="utf-8") as f:
        f.write(json.dumps({"created": "header"}) + "\n")
        f.write(json.dumps({"unit": "b", "status": "ok", "value": 2})
                + "\n")
    completed = {}
    assert merge_shards(store, completed) == 0
    assert completed == {}
    assert shard_paths(path) == []                 # still cleaned up


def test_fresh_campaign_ignores_a_stale_shard(tmp_path):
    """A shard a killed campaign A left at the path must not leak into a
    different campaign B started fresh there and later resumed."""
    path = str(tmp_path / "c.jsonl")
    write_shard(path, 99999, [{"unit": "u0", "status": "ok",
                               "value": "A-value"}])
    units = [WorkUnit(unit_id=f"u{i}", run=lambda i=i: f"B{i}")
             for i in range(3)]

    first = CampaignRunner(checkpoint=path).run(
        units, fingerprint={"campaign": "B"}, max_units=0)
    assert first.interrupted
    assert shard_paths(path) == []

    report = CampaignRunner(checkpoint=path).run(
        units, fingerprint={"campaign": "B"}, resume=True)
    assert report["u0"].value == "B0"
    assert not report["u0"].resumed
    assert [r.value for r in report.results.values()] == ["B0", "B1", "B2"]


# ----------------------------------------------------------------------
# Pooled execution
# ----------------------------------------------------------------------
def small_universe():
    return DspFaultUniverse(components=["mux7", "macreg"],
                            include_regfile=False)


def program_words(iterations=8):
    from repro.bist.template import RandomLoad, TemplateArchitecture
    from repro.dsp.isa import Instruction, Opcode
    program = [
        RandomLoad(0), RandomLoad(1),
        Instruction(Opcode.MPYA, rega=0, regb=1, dest=2),
        Instruction(Opcode.OUT, regb=2),
        Instruction(Opcode.OUTA),
    ]
    return TemplateArchitecture(program).expand(iterations)


def make_campaign(words, checkpoint, jobs=1):
    sim = HierarchicalFaultSimulator(universe=small_universe(),
                                     block_size=32)
    return HierarchicalCampaign(words, simulator=sim,
                                checkpoint=checkpoint, jobs=jobs)


def report_fingerprint(report):
    """Everything that must match between backends (elapsed may differ)."""
    return [
        (r.unit_id, r.status, r.value, r.resumed)
        for r in report.results.values()
    ]


@needs_fork
def test_pooled_report_identical_to_serial(tmp_path):
    """`jobs=4` produces the same CampaignReport as the serial backend:
    same unit ids, statuses and values, in the same order."""
    words = program_words(8)
    serial = make_campaign(words, None, jobs=1).run()
    pooled = make_campaign(
        words, str(tmp_path / "pool.jsonl"), jobs=4).run()
    assert report_fingerprint(pooled.report) \
        == report_fingerprint(serial.report)
    assert pooled.report.counts() == serial.report.counts()

    # The assembled coverage result matches a direct run too.
    direct = HierarchicalFaultSimulator(
        universe=small_universe(), block_size=32,
    ).run(words)
    assert {f.describe(): c for f, c in pooled.result.first_detect.items()} \
        == {f.describe(): c for f, c in direct.first_detect.items()}


@needs_fork
def test_pooled_kill_and_resume_roundtrip(tmp_path):
    """A pooled campaign interrupted mid-run resumes (still pooled) and
    matches an uninterrupted serial run exactly."""
    words = program_words(8)
    path = str(tmp_path / "pool.jsonl")
    cutoff = 20

    serial = make_campaign(words, None, jobs=1).run()
    first = make_campaign(words, path, jobs=2).run(max_units=cutoff)
    assert first.report.interrupted
    assert first.report.n_executed == cutoff
    assert shard_paths(path) == []         # completed shards folded away

    second = make_campaign(words, path, jobs=2).run(resume=True)
    assert not second.report.interrupted
    assert second.report.n_resumed == cutoff
    assert {f.describe(): c for f, c in second.result.first_detect.items()} \
        == {f.describe(): c for f, c in serial.result.first_detect.items()}


@needs_fork
def test_pooled_resume_recovers_shard_only_records(tmp_path):
    """Simulate a parent killed after a worker persisted its shard
    record but before the canonical append: resume must not re-run it."""
    words = program_words(6)
    path = str(tmp_path / "pool.jsonl")
    complete = make_campaign(words, path, jobs=2).run()
    n_units = len(complete.report.results)

    # Rebuild the checkpoint as the kill would have left it: move the
    # last record out of the canonical file into a worker shard.
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().split("\n") if line]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines[:-1]) + "\n")
    write_shard(path, 99999, [json.loads(lines[-1])])

    outcome = make_campaign(words, path, jobs=2).run(resume=True)
    assert outcome.report.n_executed == 0
    assert outcome.report.n_resumed == n_units
    assert shard_paths(path) == []


@needs_fork
def test_pooled_falls_back_serially_when_pool_dies(tmp_path, monkeypatch):
    """If the pool backend returns partial results the runner finishes
    the remainder in-process, exactly, as it does for a dead worker's
    unit."""
    import repro.runtime.pool as pool_mod

    real = pool_mod.run_pooled

    def flaky(runner, pending):
        return real(runner, pending[: len(pending) // 2])

    monkeypatch.setattr(pool_mod, "run_pooled", flaky)

    units = [WorkUnit(unit_id=f"u{i}", run=lambda i=i: i * i)
             for i in range(8)]
    runner = CampaignRunner(checkpoint=str(tmp_path / "ck.jsonl"), jobs=2)
    report = runner.run(units)
    assert [r.value for r in report.results.values()] \
        == [i * i for i in range(8)]
    assert not report.interrupted


def test_unforked_pool_is_the_serial_loop(tmp_path, monkeypatch):
    """Where nothing can fork, ``jobs=2`` runs every unit in the serial
    finish: the report and checkpoint bytes equal a ``jobs=1`` run's,
    and every unit runs in this process, in order, as it does
    serially."""
    import itertools

    import repro.runtime.pool as pool_mod
    from tests.conftest import (
        GOLDEN_CAMPAIGN_FINGERPRINT,
        campaign_report_payload,
        golden_campaign_units,
    )

    monkeypatch.setattr(pool_mod, "fork_available", lambda: False)

    def run(jobs):
        path = tmp_path / f"jobs{jobs}.jsonl"
        tick = itertools.count()
        runner = CampaignRunner(checkpoint=str(path), jobs=jobs,
                                sleep=lambda s: None,
                                clock=lambda: float(next(tick)))
        calls = []
        units = golden_campaign_units()
        for unit in units:
            def recorded(unit_id=unit.unit_id, run=unit.run):
                calls.append(unit_id)
                return run()
            unit.run = recorded
        report = runner.run(units, fingerprint=GOLDEN_CAMPAIGN_FINGERPRINT)
        return campaign_report_payload(report), path.read_text(), calls

    serial = run(1)
    unforked = run(2)
    assert list(dict.fromkeys(unforked[2])) \
        == [unit.unit_id for unit in golden_campaign_units()]
    assert unforked == serial


@needs_fork
def test_pooled_run_finishes_after_a_worker_is_killed():
    """A SIGKILLed worker shows as EOF on its own pipe.  The unit it held
    must go straight to the serial finish, with no stall, while the
    other worker grades the rest."""
    import os
    import signal
    import threading

    parent = os.getpid()

    def square(i):
        if i == 0 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return i * i

    units = [WorkUnit(unit_id=f"u{i}", run=lambda i=i: square(i))
             for i in range(6)]
    runner = CampaignRunner(jobs=2)
    reports = []
    thread = threading.Thread(
        target=lambda: reports.append(runner.run(units)), daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive(), "pooled run hung on a killed worker"
    report = reports[0]
    assert [report[u.unit_id].value for u in units] \
        == [i * i for i in range(6)]


@needs_fork
def test_serial_finish_deletes_the_abandoned_pools_shards(tmp_path):
    """After a killed worker's unit is finished serially, every unit's
    record is in the canonical checkpoint: no shard may outlive the run,
    whether the dead worker's or a live one's."""
    import os
    import signal

    from repro.runtime.integrity import verify_campaign

    path = str(tmp_path / "ck.jsonl")
    parent = os.getpid()

    def square(i):
        if i == 0 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return i * i

    units = [WorkUnit(unit_id=f"u{i}", run=lambda i=i: square(i))
             for i in range(6)]
    report = CampaignRunner(checkpoint=path, jobs=2).run(
        units, fingerprint={"k": 1})
    assert [report[u.unit_id].value for u in units] \
        == [i * i for i in range(6)]
    assert shard_paths(path) == []
    assert verify_campaign(report, checkpoint=path,
                           expected_units=[u.unit_id for u in units]) == []


@needs_fork
def test_abandoned_pool_is_terminated_with_no_worker_inside_the_chaos_lock(
        tmp_path, monkeypatch):
    """A failed canonical append ends the pooled run while the other
    worker is still mid-unit, so the parent kills it.  One killed while
    it holds the chaos monkey's lock would hold it for good, and the
    parent's next injection point, or a later pool's worker, would wait
    on it forever.  So busy workers are killed only while no worker is
    inside the lock."""
    import multiprocessing
    import os
    import threading
    import time

    from repro.runtime import chaos
    from repro.runtime.chaos import ChaosConfig, ChaosMonkey

    path = str(tmp_path / "ck.jsonl")
    parent = os.getpid()
    real_append = CheckpointStore.append

    def append_failing(store, record):
        if os.getpid() == parent and store.path == path:
            raise OSError(28, "No space left on device")
        real_append(store, record)

    def unit(i):
        if os.getpid() != parent:
            if i == 0:          # its append fails while u1 holds the lock
                time.sleep(0.5)
            if i == 1:
                with chaos.active()._lock:
                    time.sleep(2.0)
        return i

    units = [WorkUnit(unit_id=f"u{i}", run=lambda i=i: unit(i))
             for i in range(4)]
    errors = []

    def run():
        try:
            CampaignRunner(checkpoint=path, jobs=2).run(units)
        except OSError as exc:
            errors.append(exc)

    monkey = chaos.install(ChaosMonkey(
        ChaosConfig(seed=5, classes=("shard_loss",))))
    try:
        monkeypatch.setattr(CheckpointStore, "append", append_failing)
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "pooled run hung on a failed append"
        assert len(errors) == 1 and "No space left" in str(errors[0])
        assert multiprocessing.active_children() == []
        assert monkey._lock.acquire(timeout=5)
        monkey._lock.release()
    finally:
        chaos.uninstall()


@needs_fork
def test_pooled_append_error_propagates_and_resume_recovers(
        tmp_path, monkeypatch):
    """A failed canonical append in the parent ends the pooled run with
    that error, as on the serial path, instead of reporting a unit that
    has no durable record.  The worker's shard still holds the record,
    so a resume leaves exactly one record per unit and no shard."""
    import os

    from repro.runtime.integrity import verify_campaign

    path = str(tmp_path / "ck.jsonl")
    parent = os.getpid()
    real_append = CheckpointStore.append
    appends = []

    def append_failing_once(store, record):
        if os.getpid() == parent and store.path == path:
            appends.append(record["unit"])
            if len(appends) == 2:
                raise OSError(28, "No space left on device")
        real_append(store, record)

    units = [WorkUnit(unit_id=f"u{i}", run=lambda i=i: i * i)
             for i in range(8)]
    monkeypatch.setattr(CheckpointStore, "append", append_failing_once)
    with pytest.raises(OSError, match="No space left"):
        CampaignRunner(checkpoint=path, jobs=2).run(
            units, fingerprint={"k": 1})
    monkeypatch.undo()

    report = CampaignRunner(checkpoint=path, jobs=2).run(
        units, fingerprint={"k": 1}, resume=True)
    assert [r.value for r in report.results.values()] \
        == [i * i for i in range(8)]
    with open(path, "r", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()][1:]
    assert sorted(r["unit"] for r in records) == [u.unit_id for u in units]
    assert verify_campaign(report, checkpoint=path,
                           expected_units=[u.unit_id for u in units]) == []
    assert shard_paths(path) == []


# ----------------------------------------------------------------------
# Worker-side aggregation (cache counters + obs metrics)
# ----------------------------------------------------------------------
@needs_fork
def test_pooled_cache_counters_aggregate_to_serial(tmp_path):
    """Worker cache hit/miss counters ship back through the result
    stream and fold into the parent's totals: the pooled campaign's
    ``cache_stats()`` delta equals the serial twin's on the same
    workload.  (Before the obs layer, worker counters died with the
    workers and pooled runs silently under-counted.)"""
    from repro.logic.random_nets import random_netlist
    from repro.runtime.cache import (
        cache_delta,
        cache_stats,
        cached_good_values,
        clear_caches,
    )

    netlist = random_netlist(5, n_inputs=4, n_gates=12)

    def probe(i):
        patterns = {"in": [i % 16, (i * 7) % 16]}
        compute = lambda: [0] * netlist.n_nets          # noqa: E731
        cached_good_values(netlist, patterns, 2, compute)  # miss
        cached_good_values(netlist, patterns, 2, compute)  # hit
        return {"i": i}

    def run(jobs, path):
        clear_caches()
        before = cache_stats()
        units = [WorkUnit(unit_id=f"p{i}", run=lambda i=i: probe(i))
                 for i in range(8)]
        CampaignRunner(checkpoint=path, jobs=jobs).run(units)
        return cache_delta(before, cache_stats())

    serial = run(1, str(tmp_path / "serial.jsonl"))
    pooled = run(3, str(tmp_path / "pooled.jsonl"))
    assert serial["trace_misses"] == 8 and serial["trace_hits"] == 8
    assert pooled == serial


@needs_fork
def test_pooled_obs_metrics_equal_serial_totals(tmp_path):
    """Metric snapshots ride the result stream: a pooled campaign's
    merged counters equal the serial run's on an identical workload."""
    from repro import obs

    def work(i):
        obs.incr("work.calls")
        obs.incr("work.weight", i)
        return {"i": i}

    def totals(jobs, path):
        with obs.enabled_session(trace=False, metrics=True,
                                 profile=False, seed=1) as session:
            units = [WorkUnit(unit_id=f"w{i}", run=lambda i=i: work(i))
                     for i in range(10)]
            CampaignRunner(checkpoint=path, jobs=jobs).run(units)
            return session.registry.snapshot()

    serial = totals(1, str(tmp_path / "s.jsonl"))
    pooled = totals(3, str(tmp_path / "p.jsonl"))
    assert serial["counters"]["work.calls"] == 10
    assert serial["counters"]["work.weight"] == 45
    assert serial["counters"]["campaign.units.ok"] == 10
    assert pooled["counters"] == serial["counters"]


@needs_fork
@pytest.mark.parametrize("killed_unit", [None, 0],
                         ids=["no-death", "worker-killed"])
def test_pooled_unit_span_ids_equal_serial(tmp_path, killed_unit):
    """Span ids are keyed by unit id, not by process: a unit graded in
    a pool worker gets the span id (and parent) it has serially, and so
    do the units graded after a worker died (``killed_unit`` SIGKILLs
    its worker, and the parent finishes it serially).  Each unit takes
    a little time, so every live worker grades some of them."""
    import os
    import signal
    import time

    from repro import obs

    parent = os.getpid()

    def work(i):
        if i == killed_unit and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.02)
        return {"i": i}

    def unit_spans(jobs, path):
        with obs.enabled_session(trace=True, metrics=False,
                                 profile=False, seed=3) as session:
            units = [WorkUnit(unit_id=f"w{i}", run=lambda i=i: work(i))
                     for i in range(8)]
            CampaignRunner(checkpoint=path, jobs=jobs).run(units)
            return [r for r in session.tracer.records
                    if r["kind"] == "span" and r["name"] == "unit"]

    serial = unit_spans(1, str(tmp_path / "s.jsonl"))
    pooled = unit_spans(2, str(tmp_path / "p.jsonl"))
    assert len(serial) == 8
    assert {(r["id"], r["parent"]) for r in pooled} \
        == {(r["id"], r["parent"]) for r in serial}
    assert len({r["pid"] for r in pooled}) > 1


@needs_fork
def test_pooled_plain_units_roundtrip(tmp_path):
    """Closure-only units (no campaign adapter) survive the fork and the
    record round trip."""
    units = [WorkUnit(unit_id=f"u{i}", run=lambda i=i: {"square": i * i})
             for i in range(10)]
    runner = CampaignRunner(checkpoint=str(tmp_path / "ck.jsonl"), jobs=3)
    report = runner.run(units, fingerprint={"k": 1})
    assert report.counts()["ok"] == 10
    assert report["u7"].value == {"square": 49}
    # Everything landed in the canonical checkpoint; no shards left.
    _, completed = CheckpointStore(str(tmp_path / "ck.jsonl")).load()
    assert len(completed) == 10
    assert shard_paths(str(tmp_path / "ck.jsonl")) == []
