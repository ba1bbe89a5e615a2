"""Findings, severities and the pluggable rule registry.

The linter is organised as a flat registry of *rules*.  Each rule has a
stable id (``NET001``, ``PRG003``, ...), belongs to one analysis *domain*
(``netlist`` / ``program``), carries a default severity and
a one-line description, and is a plain function from the domain subject to
an iterable of :class:`Finding`\\ s.  Domains are what the CLI and the
in-process hooks run; the registry is what ``repro lint --list-rules`` and
the README's rule catalog render.

A finding's ``key`` (``rule@location``) is the unit of *baseline
suppression*: a committed baseline file lists the keys of known, accepted
findings so CI only fails on new ones (see :mod:`repro.lint.baseline`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Callable, Dict, Iterable, Iterator, List

from repro.runtime.errors import ConfigError


class Severity(IntEnum):
    """Finding severity; ordering matters (``ERROR`` > ``WARNING``)."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()

    @staticmethod
    def parse(text: str) -> "Severity":
        try:
            return Severity[text.upper()]
        except KeyError:
            raise ConfigError(f"unknown severity {text!r}") from None


@dataclass(frozen=True)
class Finding:
    """One structured lint finding."""

    rule: str
    severity: Severity
    domain: str
    location: str       # e.g. "netlist:dsp_core:net 'p[3]'"
    message: str
    hint: str = ""      # how to fix / why it might be acceptable

    @property
    def key(self) -> str:
        """Stable identity used by baseline suppression."""
        return f"{self.rule}@{self.location}"

    def render(self) -> str:
        text = f"{self.severity.label:<8}{self.rule}  {self.location}: " \
               f"{self.message}"
        if self.hint:
            text += f"  [hint: {self.hint}]"
        return text

    def to_record(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity.label,
            "domain": self.domain,
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
            "key": self.key,
        }


@dataclass(frozen=True)
class Rule:
    """Registry entry for one lint rule."""

    rule_id: str
    domain: str
    severity: Severity
    description: str
    check: Callable[..., Iterable[Finding]]
    #: What the check function is called with.  Defaults to the domain
    #: subject (a netlist / a program); rules with a different subject
    #: (``"isa"``, or ``"table"`` for the metrics-table cross-check) run
    #: from their own entry point.
    subject: str = ""


#: rule id -> Rule, in registration order (dicts preserve it).
REGISTRY: Dict[str, Rule] = {}

DOMAINS = ("netlist", "program")


def rule(rule_id: str, domain: str, severity: Severity,
         description: str,
         subject: str = "") -> Callable[[Callable[..., Iterable[Finding]]],
                                        Callable[..., Iterable[Finding]]]:
    """Decorator registering a rule function under ``rule_id``."""
    if domain not in DOMAINS:
        raise ConfigError(f"unknown lint domain {domain!r}")

    def register(check: Callable[..., Iterable[Finding]]
                 ) -> Callable[..., Iterable[Finding]]:
        if rule_id in REGISTRY:
            raise ConfigError(f"duplicate lint rule id {rule_id!r}")
        REGISTRY[rule_id] = Rule(
            rule_id=rule_id, domain=domain, severity=severity,
            description=description, check=check,
            subject=subject or domain,
        )
        return check

    return register


def finding(rule_id: str, location: str, message: str,
            hint: str = "") -> Finding:
    """Build a :class:`Finding` carrying its rule's registered severity."""
    entry = REGISTRY[rule_id]
    return Finding(
        rule=rule_id,
        severity=entry.severity,
        domain=entry.domain,
        location=location,
        message=message,
        hint=hint,
    )


def rule_catalog() -> str:
    """Human-readable table of every registered rule (CLI / README)."""
    header = f"{'id':<8}{'domain':<10}{'severity':<10}description"
    lines = [header, "-" * len(header)]
    for entry in REGISTRY.values():
        lines.append(
            f"{entry.rule_id:<8}{entry.domain:<10}"
            f"{entry.severity.label:<10}{entry.description}"
        )
    return "\n".join(lines)


@dataclass
class LintReport:
    """The outcome of one lint invocation: kept + suppressed findings."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def merge(self, other: "LintReport") -> None:
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    def by_severity(self, severity: Severity) -> List[Finding]:
        return [f for f in self.findings if f.severity is severity]

    @property
    def errors(self) -> List[Finding]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Finding]:
        return self.by_severity(Severity.WARNING)

    def counts(self) -> Dict[str, int]:
        return {
            severity.label: len(self.by_severity(severity))
            for severity in (Severity.ERROR, Severity.WARNING, Severity.INFO)
        }

    def apply_baseline(self, keys: Iterable[str]) -> int:
        """Move findings whose key is baselined into ``suppressed``.

        Returns the number of findings suppressed.
        """
        accepted = set(keys)
        kept: List[Finding] = []
        n_before = len(self.suppressed)
        for item in self.findings:
            if item.key in accepted:
                self.suppressed.append(item)
            else:
                kept.append(item)
        self.findings = kept
        return len(self.suppressed) - n_before

    def exit_code(self, strict: bool = False) -> int:
        """CI exit code: 1 when errors (or warnings under ``strict``)."""
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0

    def render(self) -> str:
        lines = [f.render() for f in sorted(
            self.findings, key=lambda f: (-int(f.severity), f.rule, f.location)
        )]
        counts = self.counts()
        summary = (f"{len(self.findings)} finding(s): "
                   f"{counts['error']} error, {counts['warning']} warning, "
                   f"{counts['info']} info")
        if self.suppressed:
            summary += f" ({len(self.suppressed)} baselined)"
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": 1,
            "findings": [f.to_record() for f in self.findings],
            "suppressed": [f.to_record() for f in self.suppressed],
            "counts": self.counts(),
        }


def run_rules(subject: str, target: Any,
              min_severity: Severity = Severity.INFO) -> LintReport:
    """Run every rule on ``subject`` subjects (``target`` is the check
    argument) whose registered severity is ``min_severity`` or above, in
    registration order.

    A finding carries its rule's severity, so selecting the rules before
    they run keeps exactly the findings a filter after them would keep,
    and a rule below the threshold costs nothing.
    """
    report = LintReport()
    for entry in REGISTRY.values():
        if entry.subject == subject and entry.severity >= min_severity:
            report.extend(entry.check(target))
    return report
