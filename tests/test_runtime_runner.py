"""Tests for the resilient campaign runner."""

import sys
import threading
import time

import pytest

from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.errors import (
    CampaignError,
    ConfigError,
    UnitTimeout,
)
from repro.runtime.integrity import verify_campaign
from repro.runtime.runner import (
    CampaignRunner,
    UnitResult,
    WorkUnit,
    call_with_timeout,
)


def make_runner(**kwargs):
    """A runner whose backoff sleeps are recorded, not slept."""
    slept = []
    kwargs.setdefault("sleep", slept.append)
    runner = CampaignRunner(**kwargs)
    return runner, slept


def ok_units(n, log=None):
    def make(i):
        def run():
            if log is not None:
                log.append(i)
            return i * 10
        return run
    return [WorkUnit(unit_id=f"u{i}", run=make(i)) for i in range(n)]


# ----------------------------------------------------------------------
# call_with_timeout
# ----------------------------------------------------------------------
def test_call_with_timeout_passes_value_through():
    assert call_with_timeout(lambda: 42, timeout=None) == 42
    assert call_with_timeout(lambda: 42, timeout=5.0) == 42


def test_call_with_timeout_reraises_exceptions():
    def boom():
        raise RuntimeError("no")
    with pytest.raises(RuntimeError):
        call_with_timeout(boom, timeout=5.0)


def test_call_with_timeout_expires():
    with pytest.raises(UnitTimeout):
        call_with_timeout(lambda: time.sleep(5), timeout=0.02)


def test_call_with_timeout_rejects_an_attempt_that_returned_late():
    """The caller here waits for the GIL until the attempt has returned,
    20 ms into a 1 ms budget: the attempt still times out."""
    def busy():
        end = time.perf_counter() + 0.02
        while time.perf_counter() < end:
            pass
        return 42

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1.0)
    try:
        with pytest.raises(UnitTimeout) as info:
            call_with_timeout(busy, timeout=0.001)
    finally:
        sys.setswitchinterval(interval)
    # The attempt's thread has ended, so nothing leaked.
    assert not hasattr(info.value, "thread")


# ----------------------------------------------------------------------
# Plain execution and accounting
# ----------------------------------------------------------------------
def test_run_all_ok():
    runner, slept = make_runner()
    report = runner.run(ok_units(4))
    counts = report.counts()
    assert counts == {"ok": 4, "quarantined": 0,
                      "total": 4, "executed": 4, "resumed": 0,
                      "retried": 0, "leaked": 0}
    assert report["u2"].value == 20
    assert report["u0"].status == "ok"
    assert not report.interrupted
    assert slept == []


def test_duplicate_unit_ids_rejected():
    runner, _ = make_runner()
    units = [WorkUnit(unit_id="same", run=lambda: 1),
             WorkUnit(unit_id="same", run=lambda: 2)]
    with pytest.raises(CampaignError):
        runner.run(units)


def test_max_units_cutoff_marks_interrupted():
    log = []
    runner, _ = make_runner()
    report = runner.run(ok_units(5, log), max_units=2)
    assert report.interrupted
    assert log == [0, 1]
    assert report.counts()["executed"] == 2


# ----------------------------------------------------------------------
# Retry with exponential backoff
# ----------------------------------------------------------------------
def test_backoff_schedule_shape():
    runner = CampaignRunner(max_retries=5, backoff_base=0.1,
                            backoff_max=0.5, sleep=lambda _: None)
    assert runner.backoff_schedule() == [0.1, 0.2, 0.4, 0.5, 0.5]


def test_transient_failure_retried_to_success():
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise RuntimeError("transient")
        return "fine"

    runner, slept = make_runner(max_retries=3, backoff_base=0.1,
                                backoff_max=10.0)
    report = runner.run([WorkUnit(unit_id="flaky", run=flaky)])
    result = report["flaky"]
    assert result.status == "ok"
    assert result.value == "fine"
    assert result.attempts == 3
    assert slept == pytest.approx([0.1, 0.2])  # before attempts 2 and 3
    assert report.counts()["retried"] == 1


def test_poisoned_unit_quarantined_not_fatal():
    def boom():
        raise RuntimeError("poisoned")

    log = []
    runner, slept = make_runner(max_retries=2, backoff_base=0.05,
                                backoff_max=2.0)
    units = [WorkUnit(unit_id="bad", run=boom)] + ok_units(2, log)
    report = runner.run(units)
    bad = report["bad"]
    assert bad.status == "quarantined"
    assert bad.attempts == 3
    assert bad.value is None
    assert "poisoned" in bad.error
    assert slept == [0.05, 0.1]          # full backoff schedule consumed
    assert log == [0, 1]                 # later units still ran
    assert report.counts()["quarantined"] == 1
    assert report.counts()["ok"] == 2


def test_unexpected_exception_also_quarantined():
    def boom():
        raise KeyError("not a ReproError")

    runner, _ = make_runner(max_retries=0)
    report = runner.run([WorkUnit(unit_id="bad", run=boom)])
    assert report["bad"].status == "quarantined"
    assert "KeyError" in report["bad"].error


# ----------------------------------------------------------------------
# Timeout → quarantine (never a cheaper answer)
# ----------------------------------------------------------------------
def test_timeout_without_fallback_quarantines():
    runner, _ = make_runner(unit_timeout=0.02, max_retries=1)
    report = runner.run([WorkUnit(unit_id="u", run=lambda: time.sleep(5))])
    result = report["u"]
    assert result.status == "quarantined"
    assert result.value is None
    assert result.attempts == 2
    assert result.timeouts == 2          # every attempt timed out
    assert "UnitTimeout" in result.error
    assert report.counts()["quarantined"] == 1


# ----------------------------------------------------------------------
# Settings the runner rejects when it is built
# ----------------------------------------------------------------------
@pytest.mark.parametrize("timeout", [0, 0.0, -1.5, float("nan"),
                                     float("inf")])
def test_non_positive_unit_timeout_rejected(timeout):
    with pytest.raises(ConfigError, match="unit timeout must be positive"):
        CampaignRunner(unit_timeout=timeout)


def test_checkpoint_in_missing_directory_rejected(tmp_path):
    path = str(tmp_path / "missing" / "run.jsonl")
    with pytest.raises(ConfigError, match="does not exist"):
        CampaignRunner(checkpoint=path)


@pytest.mark.parametrize("name", ["run.jsonl.tmp", "run.jsonl.shard-7",
                                  "x.shard-y"])
def test_checkpoint_with_reserved_name_rejected(tmp_path, name):
    with pytest.raises(ConfigError, match="reserved name"):
        CampaignRunner(checkpoint=str(tmp_path / name))


def test_plain_settings_accepted(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    CampaignRunner(checkpoint="run.jsonl", unit_timeout=0.5)
    CampaignRunner(checkpoint=str(tmp_path / "tmp.jsonl"))
    CampaignRunner(checkpoint=None, unit_timeout=None)


# ----------------------------------------------------------------------
# Checkpointing and resume
# ----------------------------------------------------------------------
def test_kill_and_resume_executes_nothing_twice(tmp_path):
    path = str(tmp_path / "run.jsonl")
    fingerprint = {"kind": "unit-test", "n": 5}
    log = []

    runner, _ = make_runner(checkpoint=path)
    first = runner.run(ok_units(5, log), fingerprint=fingerprint,
                       max_units=3)
    assert first.interrupted
    assert log == [0, 1, 2]

    runner2, _ = make_runner(checkpoint=path)
    second = runner2.run(ok_units(5, log), fingerprint=fingerprint,
                         resume=True)
    assert not second.interrupted
    assert log == [0, 1, 2, 3, 4]       # units 0-2 never re-ran
    counts = second.counts()
    assert counts["resumed"] == 3
    assert counts["executed"] == 2
    assert [second[f"u{i}"].value for i in range(5)] == [0, 10, 20, 30, 40]

    # A third resume of the complete campaign executes nothing at all.
    runner3, _ = make_runner(checkpoint=path)
    third = runner3.run(ok_units(5, log), fingerprint=fingerprint,
                        resume=True)
    assert log == [0, 1, 2, 3, 4]
    assert third.counts()["executed"] == 0
    assert third.counts()["resumed"] == 5


def test_resume_fingerprint_mismatch_rejected(tmp_path):
    path = str(tmp_path / "run.jsonl")
    runner, _ = make_runner(checkpoint=path)
    runner.run(ok_units(2), fingerprint={"n": 2})
    runner2, _ = make_runner(checkpoint=path)
    with pytest.raises(CampaignError):
        runner2.run(ok_units(3), fingerprint={"n": 3}, resume=True)


def test_resume_without_existing_checkpoint_starts_fresh(tmp_path):
    path = str(tmp_path / "new.jsonl")
    runner, _ = make_runner(checkpoint=path)
    report = runner.run(ok_units(2), fingerprint={"n": 2}, resume=True)
    assert report.counts() == {"ok": 2, "quarantined": 0,
                               "total": 2, "executed": 2, "resumed": 0,
                               "retried": 0, "leaked": 0}


def test_run_without_resume_restarts_campaign(tmp_path):
    path = str(tmp_path / "run.jsonl")
    log = []
    runner, _ = make_runner(checkpoint=path)
    runner.run(ok_units(3, log), fingerprint={"n": 3})
    runner2, _ = make_runner(checkpoint=path)
    runner2.run(ok_units(3, log), fingerprint={"n": 3})  # resume not given
    assert log == [0, 1, 2, 0, 1, 2]


def test_quarantined_units_resume_without_retry(tmp_path):
    path = str(tmp_path / "run.jsonl")
    calls = []

    def boom():
        calls.append(1)
        raise RuntimeError("still poisoned")

    units = [WorkUnit(unit_id="bad", run=boom)]
    runner, _ = make_runner(checkpoint=path, max_retries=0)
    runner.run(units, fingerprint={})
    assert len(calls) == 1

    runner2, _ = make_runner(checkpoint=path, max_retries=0)
    report = runner2.run(units, fingerprint={}, resume=True)
    assert len(calls) == 1               # not retried
    assert report["bad"].status == "quarantined"
    assert report["bad"].resumed


def test_legacy_degraded_record_reruns_on_resume(tmp_path):
    """A checkpoint from before degradation was removed can hold a
    behaviour-only ``degraded`` answer: resume must re-run that unit,
    never report it."""
    path = str(tmp_path / "run.jsonl")
    store = CheckpointStore(path)
    store.create({})
    store.append(UnitResult(unit_id="u0", status="ok", value=0).record())
    store.append({"unit": "u1", "status": "degraded", "value": "cheap",
                  "attempts": 3, "timeouts": 2, "error": "UnitTimeout: x",
                  "elapsed": 0.5, "leaked_threads": 0})
    store.close()

    log = []
    runner, _ = make_runner(checkpoint=path)
    report = runner.run(ok_units(2, log), fingerprint={}, resume=True)
    assert log == [1]                    # only the degraded unit re-ran
    assert report["u0"].resumed
    assert not report["u1"].resumed
    assert report["u1"].status == "ok" and report["u1"].value == 10
    counts = report.counts()
    assert counts["ok"] + counts["quarantined"] == counts["total"] == 2
    assert verify_campaign(report, checkpoint=path,
                           expected_units=["u0", "u1"]) == []


def test_summary_line_mentions_every_status():
    report_ok = CampaignRunner(sleep=lambda _: None).run(ok_units(2))
    text = report_ok.summary()
    assert "2 units" in text and "2 ok" in text
    report_ok.interrupted = True
    assert "[interrupted]" in report_ok.summary()


def test_unit_result_record_roundtrip():
    original = UnitResult(unit_id="u", status="quarantined", value=[1, 2],
                          attempts=3, timeouts=2, error="UnitTimeout: x",
                          elapsed=1.25)
    restored = UnitResult.from_record(original.record())
    assert restored.unit_id == "u"
    assert restored.status == "quarantined"
    assert restored.value == [1, 2]
    assert restored.attempts == 3
    assert restored.timeouts == 2
    assert restored.resumed


# ----------------------------------------------------------------------
# Leaked-thread accounting and state isolation
# ----------------------------------------------------------------------
def test_timeout_attaches_zombie_thread():
    release = threading.Event()
    try:
        with pytest.raises(UnitTimeout) as info:
            call_with_timeout(release.wait, timeout=0.02)
        thread = info.value.thread
        assert thread.daemon
        assert thread.is_alive()
    finally:
        release.set()


def test_timed_out_unit_records_leaked_threads():
    release = threading.Event()
    try:
        runner, _ = make_runner(unit_timeout=0.02, max_retries=1)
        report = runner.run([WorkUnit(unit_id="hang", run=release.wait)])
        result = report["hang"]
        assert result.status == "quarantined"
        assert result.timeouts == 2
        assert result.leaked_threads == 2     # one zombie per attempt
        assert runner.leaked_thread_count() == 2
    finally:
        release.set()
    for _ in range(100):                      # zombies die once released
        if runner.leaked_thread_count() == 0:
            break
        time.sleep(0.01)
    assert runner.leaked_thread_count() == 0


def test_fast_unit_leaks_nothing():
    runner, _ = make_runner(unit_timeout=5.0)
    report = runner.run(ok_units(3))
    assert all(r.leaked_threads == 0 for r in report.results.values())
    assert runner.leaked_thread_count() == 0


def test_leaked_threads_survive_checkpoint_roundtrip(tmp_path):
    release = threading.Event()
    path = str(tmp_path / "run.jsonl")
    try:
        runner, _ = make_runner(checkpoint=path, unit_timeout=0.02,
                                max_retries=0)
        runner.run([WorkUnit(unit_id="hang", run=release.wait)])
    finally:
        release.set()
    runner2, _ = make_runner(checkpoint=path)
    report = runner2.run([WorkUnit(unit_id="hang", run=lambda: 1)],
                         resume=True)
    assert report["hang"].resumed
    assert report["hang"].leaked_threads >= 1
