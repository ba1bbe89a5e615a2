"""Campaign-configuration lint rules.

A campaign configuration is linted as a list of normalised
:class:`CampaignConfig` records, built either from live adapter instances
(:meth:`CampaignConfig.from_adapter` introspects the adapter's
:class:`~repro.runtime.runner.CampaignRunner`) or from a JSON document
(the ``{"kind": "campaigns", ...}`` artifact the CLI loads).

Rules:

* ``CMP001`` — two campaigns share one checkpoint path: the second
  ``create()`` clobbers the first's records, and on resume the
  fingerprint check aborts one of them;
* ``CMP002`` — timeout/jobs combinations that cannot make progress
  (non-positive budgets, budgets so small every attempt times out,
  a fallback budget that is not finite when the primary already timed
  out);
* ``CMP003`` — checkpoint paths the store machinery reserves or cannot
  create (missing parent directory, ``.tmp`` / ``.shard-`` suffixes used
  by atomic replace and the process-pool shards);
* ``CMP004`` — unusable chaos-injection policies (probability ≥ 1.0,
  missing seed, unknown failure class names, a checkpoint inside the
  chaos scratch directory that the soak deletes on exit).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.lint.findings import Finding, LintReport, Severity, finding, rule, rules_for

#: Below this per-unit budget (seconds) even trivial units time out:
#: thread spawn + checkpoint fsync alone typically cost more.
MIN_PLAUSIBLE_TIMEOUT = 0.01


@dataclass(frozen=True)
class CampaignConfig:
    """The lint-relevant slice of one campaign's configuration."""

    name: str
    checkpoint: Optional[str] = None
    unit_timeout: Optional[float] = None
    fallback_timeout: Optional[float] = None
    jobs: int = 1
    max_retries: int = 2
    #: The ``"chaos"`` block of the campaign entry, when present — the
    #: injection policy :mod:`repro.runtime.chaos` would run with.
    chaos: Optional[Any] = None

    @classmethod
    def from_adapter(cls, name: str, campaign: Any) -> "CampaignConfig":
        """Introspect a live campaign adapter (anything with ``.runner``)."""
        runner = campaign.runner
        store = runner.store
        return cls(
            name=name,
            checkpoint=None if store is None else store.path,
            unit_timeout=runner.unit_timeout,
            fallback_timeout=runner.fallback_timeout,
            jobs=runner.jobs,
            max_retries=runner.max_retries,
        )

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "CampaignConfig":
        """Build from one entry of a ``campaigns`` JSON document."""
        return cls(
            name=str(doc.get("name", "campaign")),
            checkpoint=doc.get("checkpoint"),
            unit_timeout=doc.get("unit_timeout"),
            fallback_timeout=doc.get("fallback_timeout"),
            jobs=int(doc.get("jobs", 1)),
            max_retries=int(doc.get("max_retries", 2)),
            chaos=doc.get("chaos"),
        )


def _loc(config: CampaignConfig, what: str = "") -> str:
    base = f"campaign:{config.name}"
    return f"{base}:{what}" if what else base


# ----------------------------------------------------------------------
# CMP001 — checkpoint path collisions
# ----------------------------------------------------------------------
@rule("CMP001", "campaign", Severity.ERROR,
      "two campaigns share one checkpoint path")
def check_checkpoint_collisions(
    configs: Sequence[CampaignConfig],
) -> Iterator[Finding]:
    by_path: Dict[str, List[CampaignConfig]] = {}
    for config in configs:
        if config.checkpoint:
            key = os.path.abspath(config.checkpoint)
            by_path.setdefault(key, []).append(config)
    for path, sharers in sorted(by_path.items()):
        if len(sharers) < 2:
            continue
        names = ", ".join(c.name for c in sharers)
        for config in sharers:
            yield finding(
                "CMP001", _loc(config, "checkpoint"),
                f"checkpoint {config.checkpoint!r} is shared by "
                f"[{names}]; whichever campaign starts second wipes the "
                "first's records, and resume aborts on the fingerprint "
                "mismatch",
                hint="give every campaign its own checkpoint file",
            )


# ----------------------------------------------------------------------
# CMP002 — no-progress timeout/jobs combinations
# ----------------------------------------------------------------------
@rule("CMP002", "campaign", Severity.ERROR,
      "timeout/jobs combination cannot make progress")
def check_progress(configs: Sequence[CampaignConfig]) -> Iterator[Finding]:
    for config in configs:
        timeout = config.unit_timeout
        if timeout is not None and timeout <= 0:
            yield finding(
                "CMP002", _loc(config, "unit_timeout"),
                f"unit_timeout={timeout!r}: every attempt times out "
                "immediately, so every unit is quarantined",
                hint="use a positive budget, or None for no timeout",
            )
        elif timeout is not None and timeout < MIN_PLAUSIBLE_TIMEOUT:
            yield finding(
                "CMP002", _loc(config, "unit_timeout"),
                f"unit_timeout={timeout!r} is below "
                f"{MIN_PLAUSIBLE_TIMEOUT}s; even trivial units are likely "
                "to time out and quarantine",
                hint="budget per unit, not per campaign",
                severity=Severity.WARNING,
            )
        fallback = config.fallback_timeout
        if fallback is not None and fallback <= 0:
            yield finding(
                "CMP002", _loc(config, "fallback_timeout"),
                f"fallback_timeout={fallback!r}: the degraded attempt "
                "can never finish, so timed-out units still quarantine",
                hint="the fallback budget must be positive (or None)",
            )
        if config.jobs < 1:
            yield finding(
                "CMP002", _loc(config, "jobs"),
                f"jobs={config.jobs}: no worker would run any unit",
                hint="jobs must be >= 1 ('auto' resolves to the core count)",
            )
        if config.max_retries < 0:
            yield finding(
                "CMP002", _loc(config, "max_retries"),
                f"max_retries={config.max_retries}: the retry loop never "
                "attempts the unit at all",
                hint="use 0 to disable retries but still attempt once",
            )


# ----------------------------------------------------------------------
# CMP003 — reserved / uncreatable checkpoint paths
# ----------------------------------------------------------------------
@rule("CMP003", "campaign", Severity.ERROR,
      "checkpoint path is reserved or cannot be created")
def check_checkpoint_paths(
    configs: Sequence[CampaignConfig],
) -> Iterator[Finding]:
    for config in configs:
        path = config.checkpoint
        if not path:
            continue
        base = os.path.basename(path)
        if base.endswith(".tmp") or ".shard-" in base:
            yield finding(
                "CMP003", _loc(config, "checkpoint"),
                f"checkpoint {path!r} uses a reserved suffix: the store "
                "writes '<checkpoint>.tmp' during atomic replace and the "
                "pool writes '<checkpoint>.shard-<pid>' worker shards",
                hint="pick a name that is not '.tmp'-suffixed and does "
                     "not contain '.shard-'",
            )
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            yield finding(
                "CMP003", _loc(config, "checkpoint"),
                f"checkpoint directory {parent!r} does not exist; the "
                "store opens the file lazily and the campaign dies on "
                "its first completed unit",
                hint="create the directory before launching the campaign",
            )


# ----------------------------------------------------------------------
# CMP004 — unusable chaos-injection policies
# ----------------------------------------------------------------------
@rule("CMP004", "campaign", Severity.ERROR,
      "chaos-injection policy is unusable or self-destructive")
def check_chaos_policy(
    configs: Sequence[CampaignConfig],
) -> Iterator[Finding]:
    for config in configs:
        doc = config.chaos
        if doc is None:
            continue
        if not isinstance(doc, dict):
            yield finding(
                "CMP004", _loc(config, "chaos"),
                f"chaos block must be an object, got {type(doc).__name__}",
                hint="use {\"seed\": ..., \"probability\": ..., ...}",
            )
            continue
        probability = doc.get("probability")
        if isinstance(probability, (int, float)) and probability >= 1.0:
            yield finding(
                "CMP004", _loc(config, "chaos.probability"),
                f"chaos probability={probability!r}: every eligible "
                "injection point fires until the per-class budget is "
                "exhausted, so the campaign only measures the budget "
                "(usually a percentage pasted where a fraction belongs)",
                hint="use a fraction in [0, 1), e.g. 0.25",
            )
        if doc.get("seed") is None:
            yield finding(
                "CMP004", _loc(config, "chaos.seed"),
                "chaos block has no seed: an unseeded failure schedule "
                "cannot be replayed, so a soak failure is unreproducible",
                hint="set an integer seed (the soak derives per-campaign "
                     "seeds from it)",
            )
        classes = doc.get("classes")
        if isinstance(classes, list):
            from repro.runtime.chaos import CLASS_POINTS
            unknown = [name for name in classes
                       if not isinstance(name, str)
                       or name not in CLASS_POINTS]
            if unknown:
                yield finding(
                    "CMP004", _loc(config, "chaos.classes"),
                    f"unknown chaos class(es) "
                    f"{', '.join(map(str, unknown))}: the soak rejects "
                    "this config before injecting anything",
                    hint=f"use classes from {', '.join(CLASS_POINTS)}",
                )
        scratch = doc.get("scratch")
        if scratch and config.checkpoint:
            checkpoint = os.path.abspath(config.checkpoint)
            root = os.path.abspath(scratch)
            if os.path.commonpath([checkpoint, root]) == root:
                yield finding(
                    "CMP004", _loc(config, "checkpoint"),
                    f"checkpoint {config.checkpoint!r} lives inside the "
                    f"chaos scratch directory {scratch!r}, which the soak "
                    "deletes on exit — the campaign's durable state is "
                    "destroyed with the chaos debris",
                    hint="point the checkpoint outside the scratch "
                         "directory",
                )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def lint_campaigns(
    configs: Sequence[CampaignConfig],
    min_severity: Severity = Severity.INFO,
) -> LintReport:
    """Run every campaign rule over the normalised configurations."""
    report = LintReport()
    for entry in rules_for("campaign"):
        report.extend(f for f in entry.check(configs)
                      if f.severity >= min_severity)
    return report
