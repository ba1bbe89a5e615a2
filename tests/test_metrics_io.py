"""Tests for metrics-table persistence."""

import json

import pytest

from repro.dsp.isa import Opcode
from repro.metrics.controllability import InstructionVariant
from repro.metrics.io import (
    load_table,
    save_table,
    table_from_json,
    table_to_json,
)
from repro.metrics.table import MetricsCell, MetricsTable


def sample_table():
    rows = [InstructionVariant(Opcode.MPYA, "0"),
            InstructionVariant(Opcode.MACA_ADD, "R")]
    table = MetricsTable(
        rows=rows,
        columns=[("multiplier", 0), ("shifter", 1)],
        fault_counts={"multiplier": 837, "shifter": 663},
        c_theta=0.7, o_theta=0.5,
    )
    table.set_cell(rows[0], ("multiplier", 0), MetricsCell(0.99, 0.71))
    table.set_cell(rows[1], ("shifter", 1), MetricsCell(0.98, 0.51))
    return table


def test_roundtrip_preserves_everything():
    table = sample_table()
    restored = table_from_json(table_to_json(table))
    assert restored.rows == table.rows
    assert restored.columns == table.columns
    assert restored.fault_counts == table.fault_counts
    assert restored.c_theta == table.c_theta
    assert restored.cells == table.cells


def test_coverage_marks_survive_roundtrip():
    table = sample_table()
    restored = table_from_json(table_to_json(table))
    for row in table.rows:
        for column in table.columns:
            assert restored.is_covered(row, column) == \
                table.is_covered(row, column)


def test_save_load_file(tmp_path):
    path = tmp_path / "table.json"
    table = sample_table()
    save_table(table, path)
    restored = load_table(path)
    assert restored.cells == table.cells


def test_schema_guard():
    payload = json.loads(table_to_json(sample_table()))
    payload["schema"] = 99
    with pytest.raises(ValueError, match="schema"):
        table_from_json(json.dumps(payload))


def test_json_is_stable():
    a = table_to_json(sample_table())
    b = table_to_json(sample_table())
    assert a == b


def test_phase1_runs_on_restored_table():
    """The downstream flow must not care whether a table was measured or
    loaded."""
    from repro.selftest.phase1 import run_phase1
    restored = table_from_json(table_to_json(sample_table()))
    result = run_phase1(restored)
    assert result.chosen
