"""Tests for the sweep landscape artifact check (``validate_sweep_doc``)."""

import pytest

from repro.harness.sweeps import SWEEP_SCHEMA, quick_factorial, validate_sweep_doc


def _point(spec, **overrides):
    record = {
        "spec": spec.to_doc(), "label": spec.label(), "area": 1404,
        "n_columns": 40, "n_covered_columns": 38,
        "phase1_instructions": 9, "phase2_sequences": 2,
        "still_uncovered": 0, "program_length": 30, "n_vectors": 96,
        "signature": 17, "n_faults": 1000, "n_detected": 605,
        "fault_coverage": 0.605, "lint_errors": 0,
        "campaign": {"metrics": {}, "grade": {}},
    }
    record.update(overrides)
    return record


def _doc(points):
    return {
        "schema": SWEEP_SCHEMA, "context": {"seed": 2004},
        "n_points": len(points), "interrupted": False, "points": points,
    }


def _valid_doc():
    return _doc([_point(spec) for spec in quick_factorial()[:2]])


def test_valid_doc_has_no_violations():
    assert validate_sweep_doc(_valid_doc()) == []


def test_resumed_v1_point_with_parity_ok_validates():
    """A point finished before the schema bump is reloaded as-is on
    ``--resume``; its leftover ``parity_ok`` key is not a violation."""
    doc = _valid_doc()
    doc["points"][0]["parity_ok"] = True
    assert validate_sweep_doc(doc) == []


def _first_point(doc):
    return doc["points"][0]


@pytest.mark.parametrize("mutate, violation", [
    pytest.param(lambda d: d.update(schema="repro.sweep/1"), "schema must be",
                 id="schema"),
    pytest.param(lambda d: d.pop("context"), "missing context", id="context"),
    pytest.param(lambda d: d.update(points=None), "missing points",
                 id="points"),
    pytest.param(lambda d: d.update(n_points=3), "n_points=3", id="n-points"),
    pytest.param(lambda d: _first_point(d).pop("campaign"),
                 "missing keys: campaign", id="missing-key"),
    pytest.param(lambda d: _first_point(d)["spec"].update(operand_width=3),
                 "spec does not validate", id="spec"),
    pytest.param(lambda d: d["points"].__setitem__(1, dict(_first_point(d))),
                 "duplicate label", id="label"),
    pytest.param(lambda d: _first_point(d).update(fault_coverage=1.5),
                 "fault_coverage out of", id="coverage"),
    pytest.param(lambda d: _first_point(d).update(n_detected=1001),
                 "more faults than exist", id="detected"),
    pytest.param(lambda d: _first_point(d).update(lint_errors=2),
                 "lint errors", id="lint"),
])
def test_each_violation_is_reported(mutate, violation):
    doc = _valid_doc()
    mutate(doc)
    errors = validate_sweep_doc(doc)
    assert len(errors) == 1, errors
    assert violation in errors[0]


def test_interrupted_sweep_may_hold_fewer_points():
    doc = _valid_doc()
    doc["interrupted"] = True
    doc["n_points"] = 4
    assert validate_sweep_doc(doc) == []
