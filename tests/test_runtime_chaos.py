"""Tests for the deterministic chaos injector and the soak harness."""

import os

import pytest

from repro.runtime import chaos
from repro.runtime.chaos import (
    ChaosConfig,
    ChaosKill,
    ChaosMonkey,
    DEFAULT_SOAK_CLASSES,
    FAILURE_CLASSES,
    parse_classes,
    run_soak,
)
from repro.runtime.errors import ConfigError
from repro.runtime.pool import fork_available
from repro.runtime.runner import CampaignRunner, WorkUnit


@pytest.fixture(autouse=True)
def no_leftover_monkey():
    chaos.uninstall()
    yield
    chaos.uninstall()


def units(n):
    return [WorkUnit(unit_id=f"u{i}", run=lambda i=i: i * 10)
            for i in range(n)]


# ----------------------------------------------------------------------
# Config and class parsing
# ----------------------------------------------------------------------
def test_parse_classes_roundtrip():
    assert parse_classes("kill,corrupt") == ("kill", "corrupt")
    assert parse_classes("all") == FAILURE_CLASSES
    assert parse_classes("kill, kill ,torn") == ("kill", "torn")


def test_parse_classes_rejects_unknown():
    with pytest.raises(ConfigError, match="unknown chaos class"):
        parse_classes("kill,gremlins")
    with pytest.raises(ConfigError):
        parse_classes("")


def test_config_requires_seed():
    with pytest.raises(ConfigError, match="seed"):
        ChaosConfig(seed=None).validate()


def test_config_rejects_certain_probability():
    with pytest.raises(ConfigError, match="probability"):
        ChaosConfig(seed=1, probability=1.0).validate()
    ChaosConfig(seed=1, probability=0.99).validate()  # fine


# ----------------------------------------------------------------------
# Inertness and determinism
# ----------------------------------------------------------------------
def test_inject_is_noop_when_uninstalled():
    assert chaos.active() is None
    assert chaos.inject("runner.unit", unit_id="u0") is None
    assert chaos.inject("checkpoint.append") is None


def test_campaign_identical_with_and_without_chaos_module(tmp_path):
    """Chaos off ⇒ provably inert: a checkpointed campaign writes the
    same records whether or not the injection points exist."""
    a = CampaignRunner(checkpoint=str(tmp_path / "a.jsonl")).run(units(5))
    b = CampaignRunner(checkpoint=str(tmp_path / "b.jsonl")).run(units(5))

    def rows(r):
        return [(u.unit_id, u.status, u.value) for u in r.results.values()]

    assert rows(a) == rows(b)
    assert all(u.status == "ok" for u in a.results.values())


def test_schedule_is_deterministic():
    config = ChaosConfig(seed=42, classes=("kill", "io"))
    runs = []
    for _ in range(2):
        monkey = ChaosMonkey(config, horizon=4)
        fired = []
        for i in range(30):
            try:
                fired.append(monkey.inject("runner.unit", unit_id=f"u{i}"))
            except ChaosKill:
                fired.append("KILL")
            try:
                fired.append(monkey.inject("checkpoint.append"))
            except OSError:
                fired.append("IO")
        runs.append(fired)
    assert runs[0] == runs[1]
    assert "KILL" in runs[0] and "IO" in runs[0]


def test_every_enabled_class_fires_at_least_once():
    config = ChaosConfig(seed=3, classes=("kill", "torn", "io"),
                         probability=0.0)
    monkey = ChaosMonkey(config, horizon=4)
    for i in range(20):
        try:
            monkey.inject("runner.unit", unit_id=f"u{i}")
        except ChaosKill:
            pass
        try:
            monkey.inject("checkpoint.append")
        except (ChaosKill, OSError):
            pass
    assert all(count >= 1 for count in monkey.injection_counts().values())


def test_max_per_class_bounds_firings():
    config = ChaosConfig(seed=5, classes=("io",), probability=0.99,
                         max_per_class=3)
    monkey = ChaosMonkey(config, horizon=2)
    fired = 0
    for _ in range(200):
        try:
            monkey.inject("checkpoint.append")
        except OSError:
            fired += 1
    assert fired == 3


def test_worker_filter_blocks_parent_classes():
    """A monkey observed from a different pid only acts for worker
    classes; parent-only classes silently no-op."""
    config = ChaosConfig(seed=9, classes=("kill",), probability=0.99)
    monkey = ChaosMonkey(config, horizon=1)
    monkey.pid = os.getpid() + 1   # pretend we are a forked worker
    for i in range(50):
        assert monkey.inject("runner.unit", unit_id=f"u{i}") is None
    assert monkey.injection_counts()["kill"] == 0


def _grade_units_in_worker(monkey, n_units):
    """A pool worker's view: reach the worker injection point per unit."""
    for i in range(n_units):
        monkey.inject("pool.worker.unit", unit_id=f"u{i}")


@pytest.mark.skipif(not fork_available(),
                    reason="fork start method unavailable")
def test_kill_worker_firings_are_shared_with_forked_workers():
    """``kill_worker`` fires in a forked worker and kills it.  The
    parent must count that firing, and every later worker (a respawn
    forked from the same parent) must see it, so that ``max_per_class``
    bounds the kills of the whole campaign."""
    import multiprocessing
    import signal

    config = ChaosConfig(seed=11, classes=("kill_worker",),
                         probability=0.99, max_per_class=2)
    monkey = ChaosMonkey(config, horizon=1)
    context = multiprocessing.get_context("fork")
    exits = []
    for _ in range(5):
        worker = context.Process(target=_grade_units_in_worker,
                                 args=(monkey, 3))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        exits.append(worker.exitcode)
    assert exits == [-signal.SIGKILL] * 2 + [0] * 3
    assert monkey.injection_counts() == {"kill_worker": 2}


@pytest.mark.skipif(not fork_available(),
                    reason="fork start method unavailable")
def test_kill_worker_budget_holds_under_concurrent_workers():
    """More live workers than cores race for the shared budget: a lost
    update between the check and the increment would kill more than
    ``max_per_class`` of them."""
    import multiprocessing
    import signal

    config = ChaosConfig(seed=13, classes=("kill_worker",),
                         probability=0.99, max_per_class=3)
    monkey = ChaosMonkey(config, horizon=1)
    context = multiprocessing.get_context("fork")
    workers = [context.Process(target=_grade_units_in_worker,
                               args=(monkey, 50))
               for _ in range(3 * (os.cpu_count() or 1) + 2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30)
        assert not worker.is_alive()
    exits = [worker.exitcode for worker in workers]
    assert exits.count(-signal.SIGKILL) == 3
    assert exits.count(0) == len(workers) - 3
    assert monkey.injection_counts() == {"kill_worker": 3}


@pytest.mark.skipif(not fork_available(),
                    reason="fork start method unavailable")
def test_injection_counts_do_not_wait_on_a_dead_lock_holder():
    """A process killed inside the monkey's lock holds it for good; the
    soak report must still read the counts."""
    import multiprocessing
    import signal
    import threading

    monkey = ChaosMonkey(ChaosConfig(seed=3, classes=("kill_worker",)))

    def die_holding_the_lock():
        monkey._lock.acquire()
        os.kill(os.getpid(), signal.SIGKILL)

    holder = multiprocessing.get_context("fork").Process(
        target=die_holding_the_lock)
    holder.start()
    holder.join(timeout=30)
    assert holder.exitcode == -signal.SIGKILL
    counts = []
    reader = threading.Thread(
        target=lambda: counts.append(monkey.injection_counts()), daemon=True)
    reader.start()
    reader.join(timeout=10)
    assert counts == [{"kill_worker": 0}]


# ----------------------------------------------------------------------
# File-level mutations
# ----------------------------------------------------------------------
def test_mutate_checkpoint_spares_header(tmp_path):
    from repro.runtime.checkpoint import CheckpointStore
    path = str(tmp_path / "c.jsonl")
    store = CheckpointStore(path)
    store.create({"n": 1})
    store.append({"unit": "a", "status": "ok"})
    store.close()
    with open(path, "rb") as handle:
        header_line = handle.readline()

    config = ChaosConfig(seed=11,
                         classes=("corrupt", "truncate", "duplicate"))
    monkey = ChaosMonkey(config, horizon=1)
    applied = {monkey.mutate_checkpoint(path) for _ in range(3)}
    assert applied <= {"corrupt", "truncate", "duplicate", None}
    assert applied != {None}
    with open(path, "rb") as handle:
        assert handle.readline() == header_line


# ----------------------------------------------------------------------
# Injected failures drive the real recovery paths
# ----------------------------------------------------------------------
def test_kill_escapes_runner_quarantine(tmp_path):
    chaos.install(ChaosMonkey(
        ChaosConfig(seed=1, classes=("kill",), probability=0.0),
        horizon=1,
    ))
    runner = CampaignRunner(checkpoint=str(tmp_path / "k.jsonl"))
    with pytest.raises(ChaosKill):
        runner.run(units(5), fingerprint={"n": 5})


def test_io_failure_surfaces_as_oserror(tmp_path):
    chaos.install(ChaosMonkey(
        ChaosConfig(seed=1, classes=("io",), probability=0.0),
        horizon=1,
    ))
    runner = CampaignRunner(checkpoint=str(tmp_path / "io.jsonl"))
    with pytest.raises(OSError):
        runner.run(units(5), fingerprint={"n": 5})


def test_torn_write_repaired_on_resume(tmp_path):
    from repro.runtime.checkpoint import CheckpointStore
    path = str(tmp_path / "t.jsonl")
    chaos.install(ChaosMonkey(
        ChaosConfig(seed=1, classes=("torn",), probability=0.0),
        horizon=1,
    ))
    with pytest.raises(ChaosKill):
        CampaignRunner(checkpoint=path).run(units(5), fingerprint={"n": 5})
    chaos.uninstall()
    # The torn half-line is on disk; repair clears it and resume finishes.
    report = CampaignRunner(checkpoint=path).run(
        units(5), fingerprint={"n": 5}, resume=True, repair=True)
    assert [u.status for u in report.results.values()] == ["ok"] * 5
    _, records = CheckpointStore(path).load()   # chain intact again
    assert set(records) == {f"u{i}" for i in range(5)}


def test_hang_times_out_then_retry_succeeds(tmp_path):
    chaos.install(ChaosMonkey(
        ChaosConfig(seed=1, classes=("hang",), probability=0.0),
        horizon=1,
    ))
    runner = CampaignRunner(checkpoint=str(tmp_path / "h.jsonl"),
                            unit_timeout=0.05, max_retries=2,
                            backoff_base=0.001, backoff_max=0.01)
    report = runner.run(units(3), fingerprint={"n": 3})
    assert [u.status for u in report.results.values()] == ["ok"] * 3
    assert report.counts()["retried"] >= 1
    assert report.counts()["leaked"] >= 1       # the hung thread


# ----------------------------------------------------------------------
# The soak harness end to end
# ----------------------------------------------------------------------
def test_small_soak_zero_violations(tmp_path):
    report = run_soak(
        seed=123, campaigns=3, n_units=8,
        classes=DEFAULT_SOAK_CLASSES,
        scratch=str(tmp_path / "scratch"),
    )
    assert report.ok(), [
        v.describe() for c in report.campaigns for v in c.violations]
    # Every campaign really suffered: at least one induced crash and one
    # resume each (kill/torn/io are all crash classes).
    assert all(c.crashes >= 1 for c in report.campaigns)
    assert all(c.resumes >= 1 for c in report.campaigns)
    # Every enabled class fired at least once per campaign.
    for campaign in report.campaigns:
        for name in DEFAULT_SOAK_CLASSES:
            assert campaign.injections[name] >= 1, (campaign.index, name)
    assert report.summary().startswith("3 chaos campaigns")
    assert chaos.active() is None               # soak cleans up


def test_soak_scratch_removed_when_private():
    before = set(os.listdir("/tmp"))
    report = run_soak(seed=5, campaigns=1, n_units=6,
                      classes=("kill",))
    assert report.ok()
    leftover = [d for d in set(os.listdir("/tmp")) - before
                if d.startswith("repro-chaos-")]
    assert leftover == []


def test_soak_report_json_shape(tmp_path):
    report = run_soak(seed=77, campaigns=2, n_units=6,
                      classes=("kill", "corrupt"),
                      scratch=str(tmp_path / "s"))
    doc = report.to_json()
    assert doc["seed"] == 77
    assert doc["violations"] == 0
    assert len(doc["campaigns"]) == 2
    assert doc["injections"]["kill"] >= 2


def test_soak_not_ok_when_an_enabled_class_never_fires(tmp_path):
    # A serial soak never starts a pool worker, so ``kill_worker`` has
    # no injection point to fire at.
    report = run_soak(seed=5, campaigns=1, n_units=6,
                      classes=("kill", "kill_worker"), jobs=1,
                      scratch=str(tmp_path / "s"))
    assert report.n_violations == 0
    assert report.unfired() == ["kill_worker"]
    assert not report.ok()
    assert "never fired: kill_worker" in report.summary()
