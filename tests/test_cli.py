"""Tests for the command-line driver."""

import re

import pytest

from repro.__main__ import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_table1_command(capsys):
    assert main(["table1", "--samples", "120", "--good", "6"]) == 0
    out = capsys.readouterr().out
    assert "Mult" in out and "Clear" in out
    assert "Mac R" in out


def test_metrics_command(capsys):
    assert main(["metrics", "--samples", "30", "--good", "2",
                 "--columns", "4"]) == 0
    out = capsys.readouterr().out
    assert "multiplier" in out
    assert "loadR" in out


def test_generate_command(tmp_path, capsys):
    vectors = tmp_path / "v.txt"
    assert main(["generate", "--samples", "30", "--good", "2",
                 "--iterations", "3", "--vectors", str(vectors)]) == 0
    out = capsys.readouterr().out
    assert "Phase 1" in out
    assert "ld rnd" in out
    assert "MISR signature" in out
    assert vectors.exists()
    first = vectors.read_text().splitlines()[0]
    assert len(first.split()[0]) == 17


def test_grade_command(capsys):
    assert main(["grade", "--samples", "30", "--good", "2",
                 "--iterations", "2"]) == 0
    out = capsys.readouterr().out
    assert "faults detected" in out
    assert "500 MHz" in out


def test_grade_command_checkpoint_resume(tmp_path, capsys):
    checkpoint = tmp_path / "grade.jsonl"
    args = ["grade", "--samples", "30", "--good", "2", "--iterations", "2",
            "--checkpoint", str(checkpoint)]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "campaign:" in out and "0 resumed" in out
    assert checkpoint.exists()
    # Resuming the finished campaign re-executes nothing.
    assert main(args + ["--resume"]) == 0
    out = capsys.readouterr().out
    assert "resuming" in out
    assert "0 quarantined" in out
    assert "faults detected" in out


def test_resume_requires_checkpoint(capsys):
    assert main(["grade", "--resume"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "--checkpoint" in err


def test_grade_jobs_and_max_units_roundtrip(tmp_path, capsys):
    """`--max-units` interrupts with exit 3; a pooled `--resume` finishes."""
    checkpoint = tmp_path / "grade.jsonl"
    args = ["grade", "--samples", "30", "--good", "2", "--iterations", "2",
            "--jobs", "2", "--checkpoint", str(checkpoint)]
    assert main(args + ["--max-units", "5"]) == 3
    out = capsys.readouterr().out
    assert "interrupted" in out and "--resume" in out
    assert main(args + ["--resume"]) == 0
    out = capsys.readouterr().out
    assert "5 resumed" in out
    assert "faults detected" in out
    # The completed campaign leaves no worker shards behind.
    assert list(tmp_path.glob("grade.jsonl.shard-*")) == []


def test_grade_rejects_bad_jobs(capsys):
    assert main(["grade", "--jobs", "zero"]) == 2
    assert "jobs" in capsys.readouterr().err


def test_grade_summary_surfaces_health_counts(tmp_path, capsys):
    """The one-line campaign summary exposes quarantine, retry and
    leaked-thread accounting at a glance."""
    checkpoint = tmp_path / "grade.jsonl"
    assert main(["grade", "--samples", "30", "--good", "2",
                 "--iterations", "2", "--checkpoint", str(checkpoint)]) == 0
    out = capsys.readouterr().out
    assert "0 quarantined" in out
    assert "retried" in out and "threads leaked" in out


@pytest.mark.parametrize("extra, message", [
    (["--checkpoint", "{tmp}/missing/g.jsonl"], "does not exist"),
    (["--checkpoint", "{tmp}/g.jsonl.tmp"], "reserved name"),
    (["--unit-timeout", "0"], "unit timeout must be positive"),
    (["--unit-timeout", "-2"], "unit timeout must be positive"),
    (["--unit-timeout", "nan"], "unit timeout must be positive"),
    (["--unit-timeout", "inf"], "unit timeout must be positive"),
])
def test_grade_rejects_bad_campaign_settings_before_any_work(
        tmp_path, capsys, monkeypatch, extra, message):
    """Bad runner settings fail in main(), before the metrics warm-up,
    with one ``error:`` line and no traceback."""
    import repro.__main__ as cli

    def no_work(args):
        raise AssertionError("the grade flow started")

    monkeypatch.setattr(cli, "_build_selftest", no_work)
    extra = [arg.format(tmp=tmp_path) for arg in extra]
    assert main(["grade", "--samples", "4", "--good", "1",
                 "--iterations", "1"] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_sweep_rejects_non_positive_unit_timeout(capsys, monkeypatch):
    """Zero, nan and inf fail in main(); a timeout that slipped through
    would reach the stubbed sweep instead of starting a campaign."""
    import repro.harness.sweeps as sweeps

    def no_work(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(sweeps, "run_sweep", no_work)
    for timeout in ("0", "nan", "inf"):
        assert main(["sweep", "--unit-timeout", timeout]) == 2
        assert "unit timeout must be positive" in capsys.readouterr().err


def quarantine_first_grading_unit(monkeypatch):
    """Make the first fault's grading unit raise on every attempt."""
    from repro.runtime.campaigns import HierarchicalCampaign

    real_units = HierarchicalCampaign.units

    def boom():
        raise RuntimeError("injected grading failure")

    def units(self):
        units = real_units(self)
        units[0].run = boom
        return units

    monkeypatch.setattr(HierarchicalCampaign, "units", units)


def test_grade_fails_when_a_unit_is_quarantined(monkeypatch, capsys):
    """A quarantined fault counts as undetected, so the coverage figure
    is only a lower bound: the report still prints, the exit is 1."""
    quarantine_first_grading_unit(monkeypatch)
    assert main(["grade", "--samples", "4", "--good", "1",
                 "--iterations", "1"]) == 1
    captured = capsys.readouterr()
    assert "faults detected" in captured.out
    assert "1 quarantined" in captured.out
    assert "500 MHz" in captured.out
    assert "FAILED: 1 unit(s) quarantined" in captured.err


def test_trace_grade_fails_when_a_unit_is_quarantined(monkeypatch, tmp_path,
                                                      capsys):
    """A traced grading campaign exits 1 on a quarantined unit, as an
    untraced one does; the trace is still written."""
    quarantine_first_grading_unit(monkeypatch)
    trace = tmp_path / "t.jsonl"
    assert main(["grade", "--samples", "4", "--good", "1",
                 "--iterations", "1", "--trace", str(trace)]) == 1
    captured = capsys.readouterr()
    assert "1 quarantined" in captured.out
    assert "FAILED: 1 unit(s) quarantined" in captured.err
    assert trace.stat().st_size > 0


def test_profile_fails_when_a_unit_is_quarantined(monkeypatch, tmp_path,
                                                  capsys):
    """A traced ``grade`` still prints its profile (the section table),
    and the exit is 1."""
    quarantine_first_grading_unit(monkeypatch)
    assert main(["grade", "--samples", "4", "--good", "1",
                 "--iterations", "1",
                 "--trace", str(tmp_path / "t.jsonl")]) == 1
    captured = capsys.readouterr()
    assert "section" in captured.out
    assert "FAILED: 1 unit(s) quarantined" in captured.err


def test_profile_reports_how_much_of_tier2_ran_at_gate_level(tmp_path,
                                                             capsys):
    """A traced ``grade`` prints the session's profile: the section
    table with mean ms, cache hits and misses per kind and the tier-2
    line."""
    assert main(["grade", "--samples", "4", "--good", "1",
                 "--iterations", "1",
                 "--trace", str(tmp_path / "t.jsonl")]) == 0
    out = capsys.readouterr().out
    found = re.search(r"^tier 2: (\d+) checks, (\d+) cycles, (\d+) at gate "
                      r"level$", out, re.MULTILINE)
    checks, cycles, gate_level = map(int, found.groups())
    assert 0 < checks <= cycles and gate_level < cycles
    assert re.search(r"^section +calls +seconds +mean ms *$", out,
                     re.MULTILINE)
    for kind in ("compile", "cone", "trace"):
        found = re.search(rf"^{kind} +(\d+) +(\d+) *$", out, re.MULTILINE)
        hits, misses = map(int, found.groups())
        assert hits + misses > 0


@pytest.mark.parametrize("argv", [
    ["profile"],
    ["trace", "grade"],
    ["trace", "metrics", "--table", "x"],
    ["trace", "metrics", "--save-table", "x"],
    ["trace", "metrics", "--iterations", "2"],
])
def test_removed_commands_and_options_exit_2(argv, capsys):
    """``grade --trace`` replaced ``profile`` and ``trace grade``; the
    ``trace metrics`` campaign reads no metrics table and expands no
    program, so argparse rejects those options instead of ignoring
    them."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_grade_force_overrides_fingerprint_mismatch(tmp_path, capsys):
    checkpoint = tmp_path / "grade.jsonl"
    base = ["grade", "--samples", "30", "--good", "2",
            "--checkpoint", str(checkpoint)]
    assert main(base + ["--iterations", "2"]) == 0
    capsys.readouterr()
    # A different workload against the same checkpoint: refused...
    assert main(base + ["--iterations", "3", "--resume"]) == 2
    err = capsys.readouterr().err
    assert "fingerprint mismatch" in err and "force" in err
    # ... unless forced.
    assert main(base + ["--iterations", "3", "--resume", "--force"]) == 0
    assert "faults detected" in capsys.readouterr().out


def test_chaos_command_clean_soak(tmp_path, capsys):
    report_file = tmp_path / "soak.json"
    assert main(["chaos", "--seed", "11", "--campaigns", "2",
                 "--units", "8", "--inject", "kill,torn,corrupt",
                 "--scratch", str(tmp_path / "scratch"),
                 "--report", str(report_file), "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "chaos soak" in out
    assert "0 invariant violations" in out
    assert report_file.exists()
    import json
    doc = json.loads(report_file.read_text())
    assert doc["violations"] == 0 and doc["crashes"] >= 2


def test_sweep_fails_when_a_point_has_a_quarantined_unit(
        tmp_path, monkeypatch, capsys):
    """The landscape artifact is still written, then the exit is 1 and
    no registry row is recorded from the partial result."""
    import json

    import repro.harness.sweeps as sweeps

    def fake_run_sweep(config, **kwargs):
        return {"interrupted": False, "points": [
            {"campaign": {"metrics": {"quarantined": 0},
                          "grade": {"quarantined": 2}}},
        ]}

    def no_record(doc):
        raise AssertionError("a failed sweep was recorded")

    monkeypatch.setattr(sweeps, "run_sweep", fake_run_sweep)
    monkeypatch.setattr(sweeps, "record_sweep", no_record)
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["points"]
    assert "FAILED: 2 unit(s) quarantined" in capsys.readouterr().err


def test_chaos_fails_when_an_enabled_class_never_fires(tmp_path, capsys):
    # A one-job soak never starts a pool worker, so ``kill_worker`` has
    # no injection point to fire at: a clean exit would be a false pass.
    assert main(["chaos", "--seed", "1", "--campaigns", "2",
                 "--units", "6", "--jobs", "1", "--inject", "kill_worker",
                 "--scratch", str(tmp_path / "scratch")]) == 1
    captured = capsys.readouterr()
    assert "never fired: kill_worker" in captured.out
    assert "UNFIRED: chaos class kill_worker" in captured.err


def test_chaos_rejects_unknown_class(capsys):
    # ``backend`` went with the degraded-unit fallback it exercised.
    for name in ("gremlins", "backend"):
        assert main(["chaos", "--seed", "1", "--inject", name]) == 2
        assert f"unknown chaos class(es) {name}" in capsys.readouterr().err


def test_invalid_repro_scale_exits_cleanly(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SCALE", "bogus")
    assert main(["isa"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "bogus" in err
    assert "Traceback" not in err


def test_constraints_command(capsys):
    assert main(["constraints", "--patterns", "512"]) == 0
    out = capsys.readouterr().out
    assert "shifter modes" in out
    assert "discardable modes" in out


def test_export_verilog_command(tmp_path, capsys):
    output = tmp_path / "core.v"
    assert main(["export-verilog", "--output", str(output)]) == 0
    src = output.read_text()
    assert src.startswith("module dsp_core")
    assert "endmodule" in src


def test_save_and_reuse_metrics_table(tmp_path, capsys):
    table_file = tmp_path / "table.json"
    assert main(["metrics", "--samples", "30", "--good", "2",
                 "--columns", "3", "--save-table", str(table_file)]) == 0
    assert table_file.exists()
    capsys.readouterr()
    # Reusing the saved table must skip measurement entirely and produce
    # a program.
    assert main(["generate", "--iterations", "2",
                 "--table", str(table_file)]) == 0
    out = capsys.readouterr().out
    assert "ld rnd" in out


def test_testability_command(tmp_path, capsys):
    report = tmp_path / "testability.json"
    assert main(["testability", "--target", "components",
                 "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "multiplier" in out and "med p(det)" in out
    assert "statically untestable" in out
    import json
    doc = json.loads(report.read_text())
    assert doc["schema"] == "repro.testability/1"
    names = {c["name"] for c in doc["components"]}
    assert {"multiplier", "shifter", "limiter"} <= names
    mult = next(c for c in doc["components"] if c["name"] == "multiplier")
    # The multiplier's tie-off faults are statically untestable.
    assert mult["n_unbounded"] >= 2


def test_testability_rejects_bad_floor(capsys):
    assert main(["testability", "--floor", "-1"]) == 2
    assert "floor" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["grade", "--iterations", "0"], "--iterations must be",
                 id="grade-iterations-zero"),
    pytest.param(["grade", "--iterations", "-1"], "--iterations must be",
                 id="grade-iterations-negative"),
    pytest.param(["generate", "--iterations", "0"], "--iterations must be",
                 id="generate-iterations-zero"),
    pytest.param(["generate", "--iterations", "-1"], "--iterations must be",
                 id="generate-iterations-negative"),
    pytest.param(["metrics", "--columns", "0"], "--columns must be",
                 id="metrics-columns-zero"),
    pytest.param(["sweep", "--sample", "0"], "--sample must be",
                 id="sweep-sample-zero"),
    pytest.param(["table1", "--samples", "0", "--good", "1"],
                 "--samples must be at least 2", id="table1-samples-zero"),
    pytest.param(["grade", "--samples", "1"], "--samples must be at least 2",
                 id="grade-samples-one"),
    pytest.param(["metrics", "--good", "0"], "--good must be at least 1",
                 id="metrics-good-zero"),
    pytest.param(["chaos", "--seed", "1", "--campaigns", "0"],
                 "--campaigns must be at least 1", id="chaos-campaigns-zero"),
    pytest.param(["chaos", "--seed", "1", "--units", "0"],
                 "--units must be at least 1", id="chaos-units-zero"),
    pytest.param(["constraints", "--patterns", "0"], "--patterns must be",
                 id="constraints-patterns-zero"),
    pytest.param(["constraints", "--component", "nosuch"], "'nosuch'",
                 id="constraints-unknown-component"),
    pytest.param(["constraints", "--component", "acca"], "'acca'",
                 id="constraints-storage-component"),
    pytest.param(["testability", "--floor", "nan"], "--floor must be",
                 id="testability-floor-nan"),
    pytest.param(["testability", "--floor", "2"], "--floor must be",
                 id="testability-floor-above-one"),
    pytest.param(["testability", "--seq-cost", "nan"], "--seq-cost must be",
                 id="testability-seq-cost-nan"),
])
def test_bad_inputs_exit_2_with_one_error_line(argv, message, capsys,
                                               monkeypatch):
    """Each input fails with one ``error:`` line and no traceback, before
    any metrics warm-up, sweep or analysis starts."""
    import repro.__main__ as cli
    import repro.analysis
    import repro.harness.sweeps as sweeps

    def no_work(*args, **kwargs):
        raise AssertionError("the command started its work")

    monkeypatch.setattr(cli, "_measure_or_load", no_work)
    monkeypatch.setattr(sweeps, "run_sweep", no_work)
    monkeypatch.setattr(repro.analysis, "analyze_testability", no_work)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_isa_command(capsys):
    assert main(["isa"]) == 0
    out = capsys.readouterr().out
    assert "MPYSHIFTMACA" in out
    assert "ld-rnd trap opcode" in out
    assert "F2" in out and "F3" in out


def test_core_report_command(capsys):
    assert main(["core-report"]) == 0
    out = capsys.readouterr().out
    assert "logic depth" in out
    assert "multiplier" in out
    assert "fanout histogram" in out
