"""Structured exception hierarchy for the whole reproduction.

Every error the package raises deliberately derives from
:class:`ReproError`, so callers (the CLI, the campaign runner, the
benchmark harness) can distinguish *our* failures from genuine Python
bugs with one ``except`` clause.

The configuration and campaign subclasses also inherit the builtin
type they historically raised (``ValueError`` / ``RuntimeError``), so
code written against the old bare exceptions keeps working.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every deliberate error raised by :mod:`repro`."""


class ConfigError(ReproError, ValueError):
    """Invalid configuration: bad parameter values, malformed inputs,
    unknown names, inconsistent sizes."""


class CampaignError(ReproError, RuntimeError):
    """The campaign runner could not run or resume a campaign (unit id
    collisions, fingerprint mismatch on resume, exhausted budget)."""


class CheckpointCorruptError(CampaignError):
    """A checkpoint file failed validation — truncated mid-write,
    non-JSON garbage, a broken record hash chain, or a header that does
    not match the campaign."""


class FingerprintMismatchError(ConfigError, CampaignError):
    """A resumed checkpoint's header fingerprint does not identify the
    campaign being run (different adapter, netlist hash, seed ...).

    Derives from both :class:`ConfigError` (it is a configuration
    problem: the wrong checkpoint was supplied) and
    :class:`CampaignError` (historical callers catch the latter).
    ``--force`` / ``force=True`` overrides the check deliberately.
    """


class UnitTimeout(ReproError):
    """A work unit exceeded its wall-clock budget (internal signal used
    by the campaign runner; a unit quarantined after repeated timeouts
    reports it as a string in its result record)."""
