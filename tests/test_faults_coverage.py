"""Tests for coverage reports and coverage curves."""

import pytest

from repro.faults.coverage import CoverageReport, coverage_curve


def test_basic_coverages():
    report = CoverageReport(name="x", n_faults=200, n_detected=150,
                            n_untestable=20, n_vectors=1000)
    assert report.fault_coverage == pytest.approx(0.75)
    assert report.test_coverage == pytest.approx(150 / 180)


def test_paper_style_numbers():
    """98.14% FC and 98.33% TC are consistent with a small untestable set."""
    report = CoverageReport(name="paper", n_faults=10000, n_detected=9814,
                            n_untestable=19)
    assert report.fault_coverage == pytest.approx(0.9814)
    assert report.test_coverage == pytest.approx(9814 / 9981, abs=1e-4)


def test_empty_population_is_full_coverage():
    report = CoverageReport(name="empty", n_faults=0, n_detected=0)
    assert report.fault_coverage == 1.0
    assert report.test_coverage == 1.0


def test_test_time_at_500mhz():
    """Paper: 204,000 vectors at 500 MHz = 0.408 ms."""
    report = CoverageReport(name="t", n_faults=1, n_detected=1,
                            n_vectors=204000)
    assert report.test_time_seconds(500e6) == pytest.approx(0.408e-3)
    with pytest.raises(ValueError):
        report.test_time_seconds(0)


def test_str_rendering():
    report = CoverageReport(name="demo", n_faults=4, n_detected=2,
                            by_component={"alu": (2, 4)})
    text = str(report)
    assert "demo" in text
    assert "alu" in text
    assert "50.00%" in text


def test_coverage_curve_monotonic():
    first_detect = {f"f{i}": t for i, t in enumerate([0, 0, 3, 7, None])}
    curve = coverage_curve(first_detect, n_vectors=10, step=1)
    values = [v for _, v in curve]
    assert values == sorted(values)
    assert curve[0] == (0, 0.0)
    assert curve[-1][1] == pytest.approx(4 / 5)


def test_coverage_curve_step_and_empty():
    assert coverage_curve({}, 5) == [(5, 1.0)]
    curve = coverage_curve({"a": 1}, n_vectors=4, step=2)
    assert [p for p, _ in curve] == [0, 2, 4]
