"""Tests for the campaign adapters, including the kill-and-resume
acceptance round trip on the hierarchical fault simulator."""

import pytest

from repro.bist.template import RandomLoad, TemplateArchitecture
from repro.dsp.isa import Instruction, Opcode
from repro.faults.hierarchical import (
    DspFaultUniverse,
    HierarchicalFaultSimulator,
)
from repro.runtime.errors import CampaignError, FingerprintMismatchError
from repro.runtime.campaigns import (
    HierarchicalCampaign,
    MetricsCampaign,
)


def small_universe():
    return DspFaultUniverse(components=["mux7", "macreg"],
                            include_regfile=False)


def program_words(iterations=8):
    program = [
        RandomLoad(0), RandomLoad(1),
        Instruction(Opcode.MPYA, rega=0, regb=1, dest=2),
        Instruction(Opcode.OUT, regb=2),
        Instruction(Opcode.OUTA),
    ]
    return TemplateArchitecture(program).expand(iterations)


def make_campaign(words, checkpoint):
    sim = HierarchicalFaultSimulator(universe=small_universe(),
                                     block_size=32)
    return HierarchicalCampaign(words, simulator=sim,
                                checkpoint=checkpoint)


def count_grading_calls(campaign):
    """Instrument the campaign's simulator; returns the call log."""
    calls = []
    sim = campaign.simulator
    real_comb = sim.grade_comb_fault
    real_storage = sim.grade_storage_fault

    def comb(ctx, name, fault):
        calls.append(("comb", name, fault))
        return real_comb(ctx, name, fault)

    def storage(ctx, fault, max_cycles=None):
        calls.append(("storage", fault))
        return real_storage(ctx, fault, max_cycles)

    sim.grade_comb_fault = comb
    sim.grade_storage_fault = storage
    return calls


def by_description(result):
    return {fault.describe(): cycle
            for fault, cycle in result.first_detect.items()}


# ----------------------------------------------------------------------
# The acceptance round trip
# ----------------------------------------------------------------------
def test_hierarchical_kill_and_resume_roundtrip(tmp_path):
    """A campaign killed mid-run resumes from its checkpoint,
    re-executes zero completed units, and reports coverage identical to
    an uninterrupted run with the same seed."""
    words = program_words(8)
    path = str(tmp_path / "grade.jsonl")
    cutoff = 20

    uninterrupted = HierarchicalFaultSimulator(
        universe=small_universe(), block_size=32,
    ).run(words)
    n_units = len(make_campaign(words, None).units())
    assert cutoff < n_units

    # Kill mid-run: the unit-count cutoff stands in for a SIGKILL.
    first = make_campaign(words, path)
    outcome1 = first.run(max_units=cutoff)
    assert outcome1.report.interrupted
    assert outcome1.report.n_executed == cutoff

    # Resume in a fresh process-equivalent (new campaign, new simulator).
    second = make_campaign(words, path)
    calls = count_grading_calls(second)
    outcome2 = second.run(resume=True)
    assert not outcome2.report.interrupted
    assert outcome2.report.n_resumed == cutoff
    assert outcome2.report.n_executed == n_units - cutoff
    assert len(calls) == n_units - cutoff   # zero completed units re-ran

    # The reassembled result matches the uninterrupted run exactly.
    assert by_description(outcome2.result) == by_description(uninterrupted)
    report_a = outcome2.result.coverage_report()
    report_b = uninterrupted.coverage_report()
    assert report_a.n_detected == report_b.n_detected
    assert report_a.fault_coverage == report_b.fault_coverage
    assert report_a.by_component == report_b.by_component

    # Resuming the now-complete campaign touches nothing at all.
    third = make_campaign(words, path)
    calls3 = count_grading_calls(third)
    outcome3 = third.run(resume=True)
    assert calls3 == []
    assert outcome3.report.n_executed == 0
    assert outcome3.report.n_resumed == n_units
    assert by_description(outcome3.result) == by_description(uninterrupted)


def test_hierarchical_fingerprint_mismatch_rejected(tmp_path):
    path = str(tmp_path / "grade.jsonl")
    make_campaign(program_words(4), path).run()
    with pytest.raises(CampaignError):
        make_campaign(program_words(6), path).run(resume=True)


def test_tier_rules_enter_the_fingerprint_off_their_defaults(tmp_path):
    """A campaign graded under other tier rules does not resume into a
    default one; a default campaign's fingerprint keeps its old keys."""
    words = program_words(4)
    path = str(tmp_path / "grade.jsonl")
    default = make_campaign(words, path).fingerprint()
    assert "max_starts_per_block" not in default
    assert "max_continuous_starts" not in default
    for setting in ("max_starts_per_block", "max_continuous_starts"):
        sim = HierarchicalFaultSimulator(universe=small_universe(),
                                         block_size=32,
                                         **{setting: 0})
        campaign = HierarchicalCampaign(words, simulator=sim,
                                        checkpoint=path)
        assert campaign.fingerprint() == {**default, setting: 0}
        campaign.run(max_units=10)
        with pytest.raises(FingerprintMismatchError):
            make_campaign(words, path).run(resume=True)


def test_hierarchical_campaign_matches_direct_run():
    """Without checkpoint or interruption the campaign is a pure
    reorganisation of ``HierarchicalFaultSimulator.run``."""
    words = program_words(6)
    direct = HierarchicalFaultSimulator(
        universe=small_universe(), block_size=32,
    ).run(words)
    outcome = make_campaign(words, None).run()
    assert by_description(outcome.result) == by_description(direct)
    assert outcome.result.n_vectors == direct.n_vectors
    counts = outcome.report.counts()
    assert counts["quarantined"] == 0 and counts["ok"] == counts["total"]


def test_clearing_caches_after_every_unit_leaves_the_report_unchanged():
    """The shared caches are pure memos: a campaign that empties them
    (and its trace's good-value memo) after every unit reports exactly
    what an uninterrupted twin does."""
    from repro.runtime.cache import CACHE_KINDS, cache_stats, clear_caches
    words = program_words(6)
    twin = make_campaign(words, None).run()
    campaign = make_campaign(words, None)
    misses = {}
    real_units = campaign.units

    def clearing_units():
        units = real_units()
        for unit in units:
            def run(unit_id=unit.unit_id, grade=unit.run):
                value = grade()
                stats = cache_stats()
                misses[unit_id] = {k: stats[f"{k}_misses"]
                                   for k in CACHE_KINDS}
                clear_caches()
                campaign._ctx()._good_cache.clear()
                return value
            unit.run = run
        return units

    campaign.units = clearing_units
    cleared = campaign.run()

    def rows(outcome):
        return [(r.unit_id, r.status, r.value)
                for r in outcome.report.results.values()]

    assert rows(cleared) == rows(twin)
    assert by_description(cleared.result) == by_description(twin.result)
    assert list(misses) == [unit_id for unit_id, _, _ in rows(twin)]
    # Not vacuous: every combinational unit re-derived its site's cone
    # from empty caches, and some re-simulated a good-machine trace.
    comb = [m for unit_id, m in misses.items() if unit_id.startswith("comb:")]
    assert comb and all(m["cone"] for m in comb)
    assert sum(1 for m in comb if m["trace"]) > 1


# ----------------------------------------------------------------------
# Metrics campaign
# ----------------------------------------------------------------------
def test_metrics_campaign_matches_build_metrics_table(tmp_path):
    from repro.metrics.controllability import default_variants
    from repro.metrics.table import build_metrics_table

    variants = default_variants()[:2]
    expected = build_metrics_table(variants=variants,
                                   n_controllability_samples=8,
                                   n_observability_good=2)
    path = str(tmp_path / "metrics.jsonl")
    campaign = MetricsCampaign(variants=variants,
                               n_controllability_samples=8,
                               n_observability_good=2,
                               checkpoint=path)
    outcome = campaign.run()
    assert outcome.result.cells == expected.cells
    assert outcome.result.fault_counts == expected.fault_counts

    resumed = MetricsCampaign(variants=variants,
                              n_controllability_samples=8,
                              n_observability_good=2,
                              checkpoint=path).run(resume=True)
    assert resumed.report.n_executed == 0
    assert resumed.report.n_resumed == len(variants)
    assert resumed.result.cells == expected.cells


def test_metrics_campaign_timed_out_variant_quarantines():
    """A variant that times out on every attempt is quarantined, and no
    cheaper measurement fills its cells in."""
    from repro.metrics.controllability import default_variants
    from repro.runtime.runner import CampaignRunner

    variants = default_variants()[:1]
    campaign = MetricsCampaign(
        variants=variants, n_controllability_samples=10,
        n_observability_good=2,
        runner=CampaignRunner(unit_timeout=1e-7, max_retries=0,
                              sleep=lambda _: None),
    )
    outcome = campaign.run()
    result = outcome.report[f"variant:{variants[0].label}"]
    assert result.status == "quarantined"
    assert result.value is None
    assert outcome.report.counts()["quarantined"] == 1
    assert not any(key[0] == variants[0].label
                   for key in outcome.result.cells)
