"""Tests for the campaign-config lint rules (CMP001..CMP004)."""

from repro.lint.campaign_rules import CampaignConfig, lint_campaigns
from repro.lint.findings import Severity


def rules_fired(report):
    return {f.rule for f in report}


def test_clean_configs_have_no_findings(tmp_path):
    configs = [
        CampaignConfig(name="a", checkpoint=str(tmp_path / "a.jsonl"),
                       unit_timeout=30.0, jobs=4),
        CampaignConfig(name="b", checkpoint=str(tmp_path / "b.jsonl")),
        CampaignConfig(name="c"),  # no checkpoint at all is fine
    ]
    assert lint_campaigns(configs).findings == []


def test_cmp001_checkpoint_collision(tmp_path):
    path = str(tmp_path / "shared.jsonl")
    configs = [CampaignConfig(name="a", checkpoint=path),
               CampaignConfig(name="b", checkpoint=path),
               CampaignConfig(name="c",
                              checkpoint=str(tmp_path / "own.jsonl"))]
    report = lint_campaigns(configs)
    cmp001 = [f for f in report if f.rule == "CMP001"]
    assert len(cmp001) == 2  # one finding per colliding campaign
    assert {f.location for f in cmp001} == {"campaign:a:checkpoint",
                                            "campaign:b:checkpoint"}
    assert report.exit_code() == 1


def test_cmp002_zero_timeout_is_error():
    report = lint_campaigns([CampaignConfig(name="a", unit_timeout=0.0)])
    cmp002 = [f for f in report if f.rule == "CMP002"]
    assert len(cmp002) == 1
    assert cmp002[0].severity is Severity.ERROR


def test_cmp002_implausibly_small_timeout_is_warning():
    report = lint_campaigns([CampaignConfig(name="a", unit_timeout=0.001)])
    cmp002 = [f for f in report if f.rule == "CMP002"]
    assert len(cmp002) == 1
    assert cmp002[0].severity is Severity.WARNING


def test_cmp002_bad_fallback_jobs_and_retries():
    report = lint_campaigns([
        CampaignConfig(name="a", unit_timeout=10.0, fallback_timeout=0.0,
                       jobs=0, max_retries=-1),
    ])
    locations = {f.location for f in report if f.rule == "CMP002"}
    assert locations == {"campaign:a:fallback_timeout",
                         "campaign:a:jobs",
                         "campaign:a:max_retries"}


def test_cmp003_reserved_suffixes(tmp_path):
    report = lint_campaigns([
        CampaignConfig(name="a", checkpoint=str(tmp_path / "grade.tmp")),
        CampaignConfig(name="b",
                       checkpoint=str(tmp_path / "grade.shard-99")),
    ])
    cmp003 = [f for f in report if f.rule == "CMP003"]
    assert len(cmp003) == 2


def test_cmp003_missing_parent_directory(tmp_path):
    missing = tmp_path / "does-not-exist" / "grade.jsonl"
    report = lint_campaigns([CampaignConfig(name="a",
                                            checkpoint=str(missing))])
    cmp003 = [f for f in report if f.rule == "CMP003"]
    assert len(cmp003) == 1
    assert "does not exist" in cmp003[0].message


def test_from_adapter_reads_runner_configuration(tmp_path):
    """A live campaign adapter is normalised via its CampaignRunner."""
    from repro.dsp.components import component_by_name
    from repro.faults.combsim import CombFaultSimulator
    from repro.faults.model import collapse_faults
    from repro.runtime.campaigns import CombSimCampaign
    netlist = component_by_name("mux7").netlist()
    sim = CombFaultSimulator(netlist, collapse_faults(netlist))
    checkpoint = tmp_path / "mux7.jsonl"
    campaign = CombSimCampaign(
        sim, blocks=[],
        checkpoint=str(checkpoint), unit_timeout=12.5, jobs=1,
    )
    config = CampaignConfig.from_adapter("mux7", campaign)
    assert config.checkpoint == str(checkpoint)
    assert config.unit_timeout == 12.5
    assert config.jobs == 1
    assert lint_campaigns([config]).findings == []


def test_from_doc_defaults():
    config = CampaignConfig.from_doc({"name": "x"})
    assert config.jobs == 1 and config.max_retries == 2
    assert config.checkpoint is None and config.unit_timeout is None


# ----------------------------------------------------------------------
# CMP004 — chaos-injection policies
# ----------------------------------------------------------------------
def test_cmp004_clean_chaos_block_passes(tmp_path):
    config = CampaignConfig(
        name="soak", checkpoint=str(tmp_path / "soak.jsonl"),
        chaos={"seed": 7, "probability": 0.25,
               "scratch": str(tmp_path / "scratch")},
    )
    assert lint_campaigns([config]).findings == []


def test_cmp004_certain_probability_flagged(tmp_path):
    config = CampaignConfig(
        name="soak", checkpoint=str(tmp_path / "soak.jsonl"),
        chaos={"seed": 7, "probability": 1.0},
    )
    report = lint_campaigns([config])
    cmp004 = [f for f in report if f.rule == "CMP004"]
    assert len(cmp004) == 1
    assert cmp004[0].severity is Severity.ERROR
    assert "probability" in cmp004[0].location


def test_cmp004_missing_seed_flagged(tmp_path):
    config = CampaignConfig(
        name="soak", checkpoint=str(tmp_path / "soak.jsonl"),
        chaos={"probability": 0.25},
    )
    report = lint_campaigns([config])
    assert [f.location for f in report if f.rule == "CMP004"] \
        == ["campaign:soak:chaos.seed"]


def test_cmp004_checkpoint_inside_scratch_flagged(tmp_path):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    config = CampaignConfig(
        name="soak", checkpoint=str(scratch / "soak.jsonl"),
        chaos={"seed": 7, "scratch": str(scratch)},
    )
    report = lint_campaigns([config])
    cmp004 = [f for f in report if f.rule == "CMP004"]
    assert len(cmp004) == 1
    assert "scratch" in cmp004[0].message


def test_cmp004_unknown_class_flagged():
    # ChaosConfig.validate() raises on this block, so lint must too.
    config = CampaignConfig.from_doc({
        "name": "soak",
        "chaos": {"seed": 7, "classes": ["kill", "gremlins"]},
    })
    report = lint_campaigns([config])
    cmp004 = [f for f in report if f.rule == "CMP004"]
    assert len(cmp004) == 1
    assert cmp004[0].location == "campaign:soak:chaos.classes"
    assert cmp004[0].severity is Severity.ERROR
    assert cmp004[0].message.startswith(
        "unknown chaos class(es) gremlins:")
    assert report.exit_code() == 1


def test_cmp004_chaos_config_lint_doc_is_clean(tmp_path):
    """A valid ChaosConfig naming every class passes its own lint."""
    from repro.runtime.chaos import FAILURE_CLASSES, ChaosConfig
    doc = ChaosConfig(seed=7, classes=FAILURE_CLASSES).lint_doc()
    config = CampaignConfig(
        name="soak", checkpoint=str(tmp_path / "soak.jsonl"), chaos=doc)
    assert lint_campaigns([config]).findings == []


def test_cmp004_non_object_chaos_block_flagged():
    report = lint_campaigns([CampaignConfig(name="a", chaos=[1, 2])])
    assert {f.rule for f in report} == {"CMP004"}


def test_cmp004_no_chaos_block_is_silent():
    assert lint_campaigns([CampaignConfig(name="a")]).findings == []


def test_from_doc_carries_chaos_block():
    config = CampaignConfig.from_doc(
        {"name": "x", "chaos": {"seed": 1}})
    assert config.chaos == {"seed": 1}
