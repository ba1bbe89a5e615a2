"""Tests for Phase 1 (greedy cover) and Phase 2 (sequences) on synthetic
metrics tables, mirroring the paper's worked examples."""

from repro.dsp.isa import Opcode
from repro.metrics.controllability import InstructionVariant
from repro.metrics.table import MetricsCell, MetricsTable
from repro.selftest.phase1 import run_phase1
from repro.selftest.phase2 import unreachable_columns


def v(op, state="0"):
    return InstructionVariant(op, state)


def make_table(rows, columns, cells):
    """cells: {(row_label, column): (c, o)}"""
    table = MetricsTable(rows=rows, columns=columns)
    for (label, column), (c, o) in cells.items():
        row = next(r for r in rows if r.label == label)
        table.set_cell(row, column, MetricsCell(c=c, o=o))
    return table


GOOD = (0.95, 0.9)
BAD = (0.2, 0.0)


def test_greedy_picks_widest_cover_first():
    rows = [v(Opcode.LDI), v(Opcode.MPYA), v(Opcode.MACA_ADD, "R")]
    columns = [("multiplier", 0), ("addsub", 0), ("shifter", 0)]
    cells = {
        ("MpyA", ("multiplier", 0)): GOOD,
        ("MacA+R", ("multiplier", 0)): GOOD,
        ("MacA+R", ("addsub", 0)): GOOD,
        ("MacA+R", ("shifter", 0)): GOOD,
    }
    result = run_phase1(make_table(rows, columns, cells))
    assert result.chosen == [v(Opcode.MACA_ADD, "R")]
    assert result.selections[0][1] == columns
    assert result.uncovered == []


def test_wrapper_columns_removed_first():
    rows = [v(Opcode.LDI), v(Opcode.MPYA)]
    columns = [("buffer", 0), ("multiplier", 0)]
    cells = {
        ("load", ("buffer", 0)): GOOD,
        ("MpyA", ("buffer", 0)): GOOD,
        ("MpyA", ("multiplier", 0)): GOOD,
    }
    result = run_phase1(make_table(rows, columns, cells))
    assert ("buffer", 0) in result.wrapper_covered
    # MpyA is then only credited with the multiplier.
    assert result.selections[0][1] == [("multiplier", 0)]


def test_uncoverable_columns_left_for_phase2():
    rows = [v(Opcode.MPYA)]
    columns = [("multiplier", 0), ("acca", 0)]
    cells = {
        ("MpyA", ("multiplier", 0)): GOOD,
        ("MpyA", ("acca", 0)): (0.95, 0.0),  # controllable, unobservable
    }
    result = run_phase1(make_table(rows, columns, cells))
    assert result.uncovered == [("acca", 0)]


def test_greedy_is_deterministic_on_ties():
    rows = [v(Opcode.MPYA), v(Opcode.MPYB)]
    columns = [("multiplier", 0)]
    cells = {
        ("MpyA", ("multiplier", 0)): GOOD,
        ("MpyB", ("multiplier", 0)): GOOD,
    }
    result = run_phase1(make_table(rows, columns, cells))
    assert result.chosen == [v(Opcode.MPYA)]  # first row wins ties


def test_phase1_summary_readable():
    rows = [v(Opcode.MPYA)]
    columns = [("multiplier", 0)]
    cells = {("MpyA", ("multiplier", 0)): GOOD}
    summary = run_phase1(make_table(rows, columns, cells)).summary()
    assert "MpyA" in summary and "multiplier:0" in summary


def test_unreachable_columns_detected():
    """Shifter modes 10/11 have no cells in any row -> discardable
    (the paper's Phase 2 observation b)."""
    rows = [v(Opcode.MPYA), v(Opcode.SHIFTA, "R")]
    columns = [("shifter", 0), ("shifter", 1), ("shifter", 2),
               ("shifter", 3)]
    cells = {
        ("MpyA", ("shifter", 0)): BAD,
        ("ShiftAR", ("shifter", 1)): GOOD,
    }
    table = make_table(rows, columns, cells)
    assert unreachable_columns(table) == [("shifter", 2), ("shifter", 3)]


def test_lowered_thresholds_change_coverage():
    rows = [v(Opcode.MPYA)]
    columns = [("multiplier", 0)]
    cells = {("MpyA", ("multiplier", 0)): (0.65, 0.45)}
    table = make_table(rows, columns, cells)
    strict = run_phase1(table)
    assert strict.uncovered == columns
    relaxed = run_phase1(table.with_thresholds(0.6, 0.4))
    assert relaxed.uncovered == []
