"""End-to-end tests for ``python -m repro lint``."""

import json
from pathlib import Path

from repro.__main__ import main

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "lint"


def test_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("NET001", "NET004", "PRG002", "PRG003", "ISA001"):
        assert rule_id in out
    # Campaign settings are checked by the runner, not linted.
    assert "CMP" not in out


def test_default_targets_clean_paper_core(capsys):
    """The shipped core/components/ISA carry no error-level findings."""
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "0 error" in out


def test_unknown_target_is_config_error(capsys):
    assert main(["lint", "bogus-target"]) == 2
    assert "unknown lint target" in capsys.readouterr().err


def test_unreadable_artifact_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["lint", str(bad)]) == 2
    assert "not JSON" in capsys.readouterr().err


def test_seeded_defect_artifacts_fail():
    assert main(["lint", str(EXAMPLES / "defective_netlist.json")]) == 1
    assert main(["lint", str(EXAMPLES / "dead_store_program.json")]) == 1
    assert main(["lint",
                 str(EXAMPLES / "unreachable_covers_program.json")]) == 1


def test_clean_artifact_passes(capsys):
    assert main(["lint", str(EXAMPLES / "clean_netlist.json")]) == 0


def test_json_output_is_machine_readable(capsys):
    assert main(["lint", "--json",
                 str(EXAMPLES / "defective_netlist.json")]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == 1
    assert doc["counts"]["error"] >= 2
    rules = {f["rule"] for f in doc["findings"]}
    assert {"NET000", "NET001", "NET005"} <= rules
    for record in doc["findings"]:
        assert record["key"] == f"{record['rule']}@{record['location']}"


def test_min_severity_drops_lower_findings(capsys):
    assert main(["lint", "--json", "--min-severity", "error",
                 str(EXAMPLES / "defective_netlist.json")]) == 1
    doc = json.loads(capsys.readouterr().out)
    severities = {f["severity"] for f in doc["findings"]}
    assert severities == {"error"}


def test_baseline_roundtrip(tmp_path, capsys):
    """--write-baseline then --baseline suppresses exactly those keys."""
    target = str(EXAMPLES / "defective_netlist.json")
    baseline = str(tmp_path / "baseline.json")
    assert main(["lint", "--write-baseline", baseline, target]) == 0
    capsys.readouterr()
    assert main(["lint", "--baseline", baseline, target]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out and "baselined" in out
    # A finding not in the baseline still fails.
    assert main(["lint", "--baseline", baseline,
                 str(EXAMPLES / "dead_store_program.json"), target]) == 1


def test_baseline_rejects_wrong_version(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text('{"version": 99, "suppress": []}')
    assert main(["lint", "--baseline", str(baseline),
                 str(EXAMPLES / "clean_netlist.json")]) == 2


def test_strict_promotes_warnings(tmp_path, capsys):
    """A warnings-only subject passes by default and fails under --strict."""
    artifact = tmp_path / "warn.json"
    artifact.write_text(json.dumps({
        "kind": "program",
        "lines": [
            {"ld_rnd": 0}, {"ld_rnd": 1},
            {"asm": "mpya R0, R1, R2", "covers": [["addsub", 1]]},
            {"asm": "out R2"}, {"asm": "outa"},
        ],
    }))
    assert main(["lint", str(artifact)]) == 0
    capsys.readouterr()
    assert main(["lint", "--strict", str(artifact)]) == 1
    assert "PRG006" in capsys.readouterr().out


def test_committed_baseline_covers_default_targets(capsys):
    """The repo's lint-baseline.json keeps `--strict` green in CI."""
    baseline = EXAMPLES.parent.parent / "lint-baseline.json"
    assert baseline.exists()
    assert main(["lint", "--baseline", str(baseline), "--strict"]) == 0


def test_campaigns_artifact_kind_is_rejected(tmp_path, capsys):
    """Campaign configurations are no longer a lint subject."""
    artifact = tmp_path / "campaigns.json"
    artifact.write_text(json.dumps({"kind": "campaigns", "campaigns": []}))
    assert main(["lint", str(artifact)]) == 2
    assert "\"kind\" in ('netlist', 'program')" in capsys.readouterr().err
