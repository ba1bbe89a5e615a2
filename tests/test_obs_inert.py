"""The observability layer's inertness contract.

Same discipline as ``repro.runtime.chaos``: when no session is armed,
the layer must be *provably* absent — zero behavioural delta (the
deterministic golden campaign reproduces, byte for byte, goldens that
were generated before the obs layer existed) and near-zero timing
delta (tens of thousands of disabled hook calls complete in a small
fraction of a second).  Arming a session must not change behaviour
either: it may only add side channels (spans, metrics, timings).
"""

import time

import pytest

from tests.conftest import (
    GOLDEN_CAMPAIGN_FINGERPRINT,
    GOLDEN_DIR,
    campaign_report_payload,
    canonical_json,
    golden_campaign_runner,
    golden_campaign_units,
)

from repro import obs


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test here starts and ends with the layer disarmed."""
    obs.disable()
    yield
    obs.disable()


def _golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text()


def _run_campaign(tmp_path, tag):
    checkpoint = tmp_path / f"{tag}.jsonl"
    runner = golden_campaign_runner(str(checkpoint))
    report = runner.run(golden_campaign_units(),
                        fingerprint=GOLDEN_CAMPAIGN_FINGERPRINT)
    return report, checkpoint.read_text()


def test_disabled_campaign_matches_pre_obs_goldens(tmp_path):
    """Obs off: report payload and checkpoint bytes are byte-identical
    to the pre-obs goldens — the layer never ran, as far as the
    campaign's observable output can tell."""
    assert not obs.enabled()
    report, checkpoint_text = _run_campaign(tmp_path, "off")
    assert canonical_json(campaign_report_payload(report)) \
        == _golden("campaign_report.json")
    assert canonical_json({"jsonl": checkpoint_text.splitlines()}) \
        == _golden("campaign_checkpoint.json")


def test_armed_campaign_is_behaviourally_identical(tmp_path):
    """Obs on: still byte-identical output; the session only *adds*
    side channels (spans, per-phase timings, unit-status counters)."""
    with obs.enabled_session(seed=2004) as session:
        report, checkpoint_text = _run_campaign(tmp_path, "on")
    assert canonical_json(campaign_report_payload(report)) \
        == _golden("campaign_report.json")
    assert canonical_json({"jsonl": checkpoint_text.splitlines()}) \
        == _golden("campaign_checkpoint.json")
    timings = session.profiler.timings()       # side channel populated
    assert timings["runner.unit"]["calls"] == 7
    spans = [r for r in session.tracer.records if r["kind"] == "span"]
    assert {r["name"] for r in spans} >= {"campaign", "unit"}
    assert session.registry.counters["campaign.units.ok"] == 6
    assert session.registry.counters["campaign.units.quarantined"] == 1


def test_disabled_hooks_are_shared_noops():
    """The disarmed fast path allocates nothing: every call returns the
    same shared singleton (or None) and records no state anywhere."""
    assert obs.active() is None
    assert obs.span("x", key=1, attr=2) is obs.span("y")
    assert obs.section("x") is obs.section("y")
    assert obs.span("x").set(a=1) is obs.span("x")
    obs.incr("c", 5)
    obs.point("p", k=1)
    assert obs.export_worker_payload() is None
    obs.merge_worker_payload({"metrics": {"counters": {"c": 1}}})
    obs.reset_after_fork()                     # all no-ops, no errors
    assert obs.active() is None


def test_disabled_overhead_is_negligible():
    """~30k disabled hook invocations inside a generous wall bound —
    the hot paths pay one ``is None`` check each when disarmed."""
    start = time.perf_counter()
    for _ in range(10_000):
        with obs.span("unit", key="u"), obs.section("runner.unit"):
            obs.incr("campaign.units.ok")
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"disabled obs hooks took {elapsed:.3f}s"
