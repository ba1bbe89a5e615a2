"""Checkpoint hash chaining and campaign invariant checking.

The paper's discipline is that a fault is only *known* to be detected
when it propagates to an observable output.  This module applies the
same discipline to the campaign runtime itself: every recovery path
(crash-resume, corruption repair, shard merge, pooled execution) is
made observable through two mechanisms.

**Hash chaining.**  Every record in the JSONL checkpoint carries a
``chain`` digest over its own payload *and* its predecessor's digest
(the header anchors the chain).  A single flipped bit, a duplicated
line, a reordered record or a silently edited value breaks the chain at
that record, so :meth:`CheckpointStore.load` can tell *exactly* where a
checkpoint stops being trustworthy — and ``repair=True`` discards from
there instead of resurrecting corrupted results.

**Invariant checking.**  :func:`verify_campaign` turns "the campaign
recovered correctly" into a machine-checked list of
:class:`Violation`\\ s: every unit graded exactly once, statuses drawn
from the legal set, the report identical to a golden (serial, no-chaos)
twin, no orphaned ``.tmp``/``.shard-`` scratch files, and the on-disk
chain intact.  The chaos soak (:mod:`repro.runtime.chaos`) fails a run
on any violation, which is what makes the runtime stack falsifiable.
"""

from __future__ import annotations

import glob
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

#: Hex digits of SHA-256 kept per record; 64 bits of collision margin is
#: plenty for corruption *detection* (the adversary is a cosmic ray, not
#: a cryptographer) and keeps checkpoint lines short.
CHAIN_DIGEST_HEX = 16

#: Legal terminal unit statuses (mirrors ``runner.STATUSES``; kept here
#: so the checker does not import the runner it is auditing).
LEGAL_STATUSES = ("ok", "quarantined")


def canonical_payload(record: Dict[str, Any]) -> bytes:
    """The byte string a record's chain digest covers.

    The ``chain`` field itself is excluded (it cannot cover itself);
    everything else is serialised with sorted keys and fixed separators
    so the digest is independent of ``dict`` insertion order.
    """
    body = {k: v for k, v in record.items() if k != "chain"}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def chain_digest(previous: str, record: Dict[str, Any]) -> str:
    """Digest of ``record`` chained onto ``previous`` (hex string)."""
    digest = hashlib.sha256()
    digest.update(previous.encode())
    digest.update(canonical_payload(record))
    return digest.hexdigest()[:CHAIN_DIGEST_HEX]


# ----------------------------------------------------------------------
# Invariant checking
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Violation:
    """One broken campaign invariant."""

    kind: str        # "duplicate-unit" | "missing-unit" | ... (see below)
    subject: str     # unit id, file path, or campaign-level marker
    message: str

    def describe(self) -> str:
        return f"[{self.kind}] {self.subject}: {self.message}"

    def to_json(self) -> Dict[str, str]:
        return {"kind": self.kind, "subject": self.subject,
                "message": self.message}


def _report_rows(report) -> List[tuple]:
    """The (id, status, value) triples of a report, in report order."""
    return [(r.unit_id, r.status, r.value)
            for r in report.results.values()]


def verify_campaign(
    report,
    checkpoint: Optional[str] = None,
    golden=None,
    expected_units: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Audit one finished campaign; returns every violated invariant.

    ``report`` is the :class:`~repro.runtime.runner.CampaignReport`
    under test.  Optionally also supply:

    * ``expected_units`` — the unit ids the campaign was asked to grade,
      in order.  Checks every unit is reported exactly once, in order,
      with nothing extra.
    * ``golden`` — a trusted report of the same workload (serial,
      no chaos).  Checks ids, statuses and values match *exactly*, in
      order — the cross-backend / cross-recovery equivalence contract.
    * ``checkpoint`` — the campaign's checkpoint path.  Checks the file
      loads with an intact hash chain, covers every reported unit, and
      left no orphaned ``.tmp`` / ``.shard-*`` scratch files behind.
    """
    violations: List[Violation] = []

    # -- statuses ------------------------------------------------------
    for unit_id, result in report.results.items():
        if result.status not in LEGAL_STATUSES:
            violations.append(Violation(
                "illegal-status", unit_id,
                f"status {result.status!r} not in {LEGAL_STATUSES}",
            ))
        if unit_id != result.unit_id:
            violations.append(Violation(
                "key-mismatch", unit_id,
                f"report key disagrees with result id {result.unit_id!r}",
            ))

    # -- exactly-once grading ------------------------------------------
    if expected_units is not None:
        expected = list(expected_units)
        got = list(report.results)
        missing = [u for u in expected if u not in report.results]
        extra = [u for u in got if u not in set(expected)]
        for unit_id in missing:
            violations.append(Violation(
                "missing-unit", unit_id, "expected unit never reported"))
        for unit_id in extra:
            violations.append(Violation(
                "extra-unit", unit_id, "reported unit was never requested"))
        if not missing and not extra and got != expected:
            violations.append(Violation(
                "order-mismatch", "<report>",
                "units reported in a different order than requested"))

    # -- golden equivalence --------------------------------------------
    if golden is not None:
        mine, theirs = _report_rows(report), _report_rows(golden)
        if mine != theirs:
            diverging = [
                f"{a[0]}: got {a[1:]}, golden {b[1:]}"
                for a, b in zip(mine, theirs) if a != b
            ][:3]
            if len(mine) != len(theirs):
                diverging.append(
                    f"{len(mine)} units reported vs {len(theirs)} golden")
            violations.append(Violation(
                "golden-mismatch", "<report>",
                "; ".join(diverging) or "reports differ",
            ))

    # -- durable, chain-intact checkpoint ------------------------------
    if checkpoint is not None:
        violations.extend(_verify_checkpoint(report, checkpoint))
    return violations


def _verify_checkpoint(report, checkpoint: str) -> List[Violation]:
    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.errors import CheckpointCorruptError

    violations: List[Violation] = []
    # Glob for scratch orphans *before* loading: load() itself sweeps a
    # stale ``.tmp`` away, which would hide the violation it evidences.
    for orphan in sorted(
        glob.glob(glob.escape(checkpoint) + ".shard-*")
        + glob.glob(glob.escape(checkpoint) + ".tmp")
    ):
        violations.append(Violation(
            "orphan-scratch", orphan,
            "scratch file left behind after the campaign finished"))
    try:
        _, records = CheckpointStore(checkpoint).load()
    except CheckpointCorruptError as exc:
        violations.append(Violation(
            "broken-chain", checkpoint, str(exc)))
    else:
        unpersisted = [u for u in report.results if u not in records]
        for unit_id in unpersisted:
            violations.append(Violation(
                "unpersisted-unit", unit_id,
                "reported unit has no durable checkpoint record"))
    return violations
