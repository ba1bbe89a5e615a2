"""Tests for checkpoint hash chaining and the campaign invariant checker.

Includes the property-style corruption sweep: ``load(repair=True)`` is
driven through hundreds of seeded random corruptions (byte truncation,
mid-record bit flips, duplicated trailing records) and must *never*
raise and *never* resurrect a corrupted record.
"""

import json
import random

import pytest

from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.errors import (
    CampaignError,
    CheckpointCorruptError,
    ConfigError,
    FingerprintMismatchError,
)
from repro.runtime.integrity import chain_digest, verify_campaign
from repro.runtime.runner import CampaignRunner, WorkUnit


def units(n, base=0):
    return [WorkUnit(unit_id=f"u{i}", run=lambda i=i: base + i * 10)
            for i in range(n)]


# ----------------------------------------------------------------------
# Chain primitives
# ----------------------------------------------------------------------
def test_chain_digest_ignores_key_order():
    a = {"unit": "x", "status": "ok", "value": 1}
    b = {"value": 1, "unit": "x", "status": "ok"}
    assert chain_digest("t", a) == chain_digest("t", b)


def test_chain_digest_excludes_chain_field():
    a = {"unit": "x", "status": "ok"}
    b = {"unit": "x", "status": "ok", "chain": "ffff"}
    assert chain_digest("t", a) == chain_digest("t", b)


def test_chain_digest_depends_on_predecessor():
    record = {"unit": "x", "status": "ok"}
    assert chain_digest("t1", record) != chain_digest("t2", record)


# ----------------------------------------------------------------------
# Acceptance: a single flipped bit is detected on the next load
# ----------------------------------------------------------------------
def test_single_bit_flip_detected_by_chain(tmp_path):
    path = str(tmp_path / "run.jsonl")
    CampaignRunner(checkpoint=path).run(units(4), fingerprint={"n": 4})
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    lines = data.split(b"\n")
    # Flip one bit in the middle record line (never the header).
    target = 2
    offset = sum(len(l) + 1 for l in lines[:target]) + len(lines[target]) // 2
    data[offset] ^= 0x01
    with open(path, "wb") as handle:
        handle.write(data)
    with pytest.raises(CheckpointCorruptError):
        CheckpointStore(path).load()


# ----------------------------------------------------------------------
# Enforced fingerprint on resume
# ----------------------------------------------------------------------
def test_fingerprint_mismatch_is_config_error(tmp_path):
    path = str(tmp_path / "run.jsonl")
    CampaignRunner(checkpoint=path).run(units(2), fingerprint={"n": 2})
    with pytest.raises(FingerprintMismatchError) as excinfo:
        CampaignRunner(checkpoint=path).run(
            units(3), fingerprint={"n": 3}, resume=True)
    # The ISSUE contract (ConfigError) and the historical contract
    # (CampaignError) are both honoured.
    assert isinstance(excinfo.value, ConfigError)
    assert isinstance(excinfo.value, CampaignError)


def test_fingerprint_mismatch_force_override(tmp_path):
    path = str(tmp_path / "run.jsonl")
    CampaignRunner(checkpoint=path).run(units(2), fingerprint={"n": 2})
    report = CampaignRunner(checkpoint=path).run(
        units(3), fingerprint={"n": 3}, resume=True, force=True)
    assert report.counts()["resumed"] == 2
    assert report.counts()["executed"] == 1


# ----------------------------------------------------------------------
# verify_campaign invariants
# ----------------------------------------------------------------------
def test_verify_clean_campaign_has_no_violations(tmp_path):
    path = str(tmp_path / "run.jsonl")
    golden = CampaignRunner().run(units(5))
    report = CampaignRunner(checkpoint=path).run(units(5))
    assert verify_campaign(
        report, checkpoint=path, golden=golden,
        expected_units=[f"u{i}" for i in range(5)],
    ) == []


def test_verify_detects_missing_and_extra_units():
    report = CampaignRunner().run(units(3))
    kinds = {v.kind for v in verify_campaign(
        report, expected_units=["u0", "u1", "u2", "u3"])}
    assert kinds == {"missing-unit"}
    kinds = {v.kind for v in verify_campaign(
        report, expected_units=["u0", "u1"])}
    assert kinds == {"extra-unit"}


def test_verify_detects_golden_value_divergence():
    golden = CampaignRunner().run(units(3))
    report = CampaignRunner().run(units(3, base=1))  # every value off by 1
    violations = verify_campaign(report, golden=golden)
    assert [v.kind for v in violations] == ["golden-mismatch"]


def test_verify_detects_unpersisted_unit(tmp_path):
    path = str(tmp_path / "run.jsonl")
    report = CampaignRunner(checkpoint=path).run(units(3))
    # Chop the last record off the file: u2 is now reported but not
    # durable.
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().split("\n") if line]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines[:-1]) + "\n")
    kinds = [v.kind for v in verify_campaign(report, checkpoint=path)]
    assert kinds == ["unpersisted-unit"]


def test_verify_detects_orphan_scratch(tmp_path):
    path = str(tmp_path / "run.jsonl")
    report = CampaignRunner(checkpoint=path).run(units(2))
    open(path + ".shard-123", "w").close()
    open(path + ".tmp", "w").close()
    kinds = sorted(v.kind for v in verify_campaign(report, checkpoint=path))
    assert kinds == ["orphan-scratch", "orphan-scratch"]


def test_verify_detects_broken_chain(tmp_path):
    path = str(tmp_path / "run.jsonl")
    report = CampaignRunner(checkpoint=path).run(units(2))
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace('"value": 0', '"value": 5'))
    kinds = [v.kind for v in verify_campaign(report, checkpoint=path)]
    assert kinds == ["broken-chain"]


# ----------------------------------------------------------------------
# Property sweep: repair never raises, never resurrects corruption
# ----------------------------------------------------------------------
def _fresh_checkpoint(path, n_records):
    store = CheckpointStore(path)
    store.create({"kind": "prop", "n": n_records})
    for i in range(n_records):
        store.append({"unit": f"u{i}", "status": "ok", "value": i * 3})
    store.close()


def _mutate(rng, path):
    """Apply one random corruption; returns its human-readable name."""
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    if len(data) < 2:
        return "noop"  # earlier truncations ate (almost) everything
    choice = rng.randrange(3)
    if choice == 0:                         # byte truncation
        cut = rng.randrange(1, len(data))
        data = data[:-cut]
        name = f"truncate:{cut}"
    elif choice == 1:                       # mid-record bit flip
        lines = bytes(data).split(b"\n")
        targets = [i for i in range(1, len(lines)) if lines[i]]
        if not targets:
            return "noop"  # no record lines survive to flip
        t = targets[rng.randrange(len(targets))]
        line = bytearray(lines[t])
        line[rng.randrange(len(line))] ^= 1 << rng.randrange(8)
        lines = list(lines)
        lines[t] = bytes(line)
        data = bytearray(b"\n".join(lines))
        name = f"flip:line{t}"
    else:                                   # duplicated trailing record
        lines = [l for l in bytes(data).split(b"\n") if l]
        data = bytearray(bytes(data) + lines[-1] + b"\n")
        name = "duplicate"
    with open(path, "wb") as handle:
        handle.write(data)
    return name


@pytest.mark.parametrize("case_seed", range(200))
def test_repair_never_raises_never_resurrects(tmp_path, case_seed):
    rng = random.Random(case_seed)
    path = str(tmp_path / "prop.jsonl")
    n_records = rng.randrange(1, 8)
    _fresh_checkpoint(path, n_records)
    with open(path, "rb") as handle:
        pristine_lines = [l for l in handle.read().split(b"\n") if l]
    for _ in range(rng.randrange(1, 4)):
        name = _mutate(rng, path)

    store = CheckpointStore(path)
    try:
        _, records = store.load(repair=True)
    except CheckpointCorruptError:
        # Repair may still (correctly) refuse a checkpoint whose header
        # was destroyed — identity loss is not repairable.  It must be
        # the *typed* error, never a bare ValueError/KeyError/etc.
        return
    # Every surviving record is byte-identical to one the pristine file
    # held: corruption can delete history, never rewrite it.
    pristine = {
        json.loads(line)["unit"]: json.loads(line)
        for line in pristine_lines[1:]
    }
    for unit_id, record in records.items():
        assert record == pristine[unit_id], \
            f"corrupted record resurrected (seed {case_seed}, {name})"
    # Survivors form a prefix: repair truncates, it does not cherry-pick.
    survived = list(records)
    assert survived == [f"u{i}" for i in range(len(survived))]
    # The repaired file is now trustworthy (idempotence).
    _, again = CheckpointStore(path).load()
    assert again == records
