"""Tests for the BIST/ATPG baselines and the experiment harness."""

import pytest

from repro.baselines.atpg_baseline import AtpgBaseline, AtpgBaselineResult
from repro.baselines.pseudorandom import pseudorandom_bist_words
from repro.harness.experiments import (
    ExperimentRegistry,
    ExperimentResult,
    current_scale,
    scaled,
)
from repro.harness.reporting import format_curve, format_table


def test_bist_words_all_distinct():
    words = pseudorandom_bist_words(500)
    assert len(set(words)) == 500
    assert all(0 < w < (1 << 17) for w in words)


def test_bist_words_cap():
    with pytest.raises(ValueError):
        pseudorandom_bist_words(131072)


def test_bist_words_deterministic():
    assert pseudorandom_bist_words(64, seed=3) == \
        pseudorandom_bist_words(64, seed=3)


def test_atpg_baseline_tiny_sample():
    baseline = AtpgBaseline(n_frames=4, backtrack_limit=40, fault_sample=6)
    result = baseline.result(baseline.attack(f) for f in baseline.survivors)
    assert result.n_faults == 6
    assert (result.n_detected + result.n_untestable_within_frames
            + result.n_aborted) == 6
    report = result.coverage_report()
    assert 0.0 <= report.fault_coverage <= 1.0
    assert "frames" in report.name


def test_atpg_baseline_result_coverage():
    r = AtpgBaselineResult(n_faults=200, n_detected=17,
                           n_untestable_within_frames=3, n_aborted=180,
                           n_frames=6)
    assert r.fault_coverage == pytest.approx(0.085)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def test_scaled_respects_env(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert current_scale() == "default"
    assert scaled(1, 2, 3) == 2
    monkeypatch.setenv("REPRO_SCALE", "quick")
    assert scaled(1, 2, 3) == 1
    monkeypatch.setenv("REPRO_SCALE", "full")
    assert scaled(1, 2, 3) == 3
    monkeypatch.setenv("REPRO_SCALE", "bogus")
    with pytest.raises(ValueError):
        current_scale()


def test_registry_markdown(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    registry = ExperimentRegistry()
    registry.record(ExperimentResult(
        experiment_id="E1", description="self-test coverage",
        paper_value="98.14%", measured_value="97.2%",
    ))
    registry.record(ExperimentResult(
        experiment_id="T1", description="metrics table",
        paper_value="shape", measured_value="shape",
    ))
    table = registry.markdown_table()
    assert table.splitlines()[2].startswith("| E1 ")
    assert "98.14%" in table
    assert "default" in table


def test_format_table():
    text = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "long-name" in lines[3]
    with pytest.raises(ValueError):
        format_table(["one"], [["a", "b"]])


def test_format_curve():
    text = format_curve([(0, 0.0), (100, 0.5), (200, 1.0)])
    assert "100" in text
    assert "100.00%" in text
    assert format_curve([]) == "(no data)"
