"""Resilient campaign runtime.

Long-running workloads (hierarchical fault simulation, metric sampling,
ATPG baselines) run as *campaigns* of idempotent work units with JSONL
checkpointing, per-unit wall-clock timeouts, retry-with-backoff and
quarantine of poisoned units: every unit ends exact (``ok``) or failed
(``quarantined``), never on a cheaper backend.  See
:mod:`repro.runtime.runner` for the execution model and
:mod:`repro.runtime.campaigns` for the per-workload adapters.

Campaigns scale across cores through the process-pool backend
(:mod:`repro.runtime.pool`, ``jobs > 1`` / ``REPRO_JOBS``) and share
compiled evaluators and good-machine traces through the
content-addressed caches in :mod:`repro.runtime.cache`.

The package also owns the structured exception hierarchy
(:class:`ReproError` and friends) used across the whole reproduction.
"""

from repro.runtime.cache import cache_stats, clear_caches, netlist_hash
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.pool import merge_shards, resolve_jobs
from repro.runtime.errors import (
    CampaignError,
    CheckpointCorruptError,
    ConfigError,
    ReproError,
    UnitTimeout,
)
from repro.runtime.rng import derive_rng, rng_factory
from repro.runtime.runner import (
    CampaignReport,
    CampaignRunner,
    UnitResult,
    WorkUnit,
    call_with_timeout,
)

__all__ = [
    "CampaignError",
    "CampaignReport",
    "CampaignRunner",
    "CheckpointCorruptError",
    "CheckpointStore",
    "ConfigError",
    "ReproError",
    "UnitResult",
    "UnitTimeout",
    "WorkUnit",
    "cache_stats",
    "call_with_timeout",
    "clear_caches",
    "derive_rng",
    "merge_shards",
    "netlist_hash",
    "resolve_jobs",
    "rng_factory",
]
