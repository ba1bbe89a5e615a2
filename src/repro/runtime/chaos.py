"""Deterministic chaos: seeded fault injection into the runtime stack.

The repo grades a DSP core by injecting faults and checking what
propagates to an observable output.  This module turns that discipline
on the campaign runtime itself: a seed-driven :class:`ChaosMonkey`
injects *infrastructure* failures — simulated SIGKILLs, torn checkpoint
writes, disk-full errors, hung units, killed pool workers,
corrupted/truncated/duplicated checkpoint records, lost worker shards —
at named injection points wired into :mod:`~repro.runtime.runner`,
:mod:`~repro.runtime.pool` and :mod:`~repro.runtime.checkpoint`.

Design rules:

* **Inert when off.**  Every injection point calls :func:`inject`,
  which is a single ``is None`` check unless a monkey is installed.
  No chaos config ⇒ byte-for-byte identical runtime behaviour.
* **Deterministic.**  All decisions come from one ``random.Random``
  seeded by the config; a given (seed, workload) replays the same
  failure schedule, so every soak failure is reproducible.
* **Planned and bounded.**  Each enabled failure class has a planned
  first occurrence (it fires the first time its point is reached at or
  after a seeded index) and fires at most ``max_per_class`` times, so
  campaigns always terminate.  A class whose point the workload never
  reaches cannot fire at all.
* **Falsifiable.**  :func:`run_soak` runs K seeded campaigns under
  injection, resumes after every induced crash, and audits each final
  report with :func:`repro.runtime.integrity.verify_campaign` against
  a serial no-chaos golden run.  Any violation fails the soak, and so
  does an enabled class that fired in none of its campaigns.

The worker-process rule: a forked pool worker inherits the parent's
monkey, but only worker-targeted classes (``kill_worker``) act there —
everything else silently no-ops outside the installing process, so the
parent's failure schedule stays deterministic.  Firings are counted in
memory the monkey shares with every process forked after it was made, so
the parent reports a worker's firings and ``max_per_class`` bounds them
across every worker of every pool the campaign forks.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.runtime.errors import CampaignError, ConfigError


class ChaosKill(BaseException):
    """A simulated SIGKILL.

    Derives from ``BaseException`` so it rips through the runner's
    quarantine machinery (which absorbs ``Exception``) exactly the way
    a real kill signal would end the process — only the soak harness,
    standing in for the operator restarting the job, catches it.
    """


#: Failure classes → the injection point each one acts at.  File-level
#: classes (applied to the checkpoint between runs, not at a live
#: injection point) map to the pseudo-point ``"file"``.
CLASS_POINTS = {
    "kill": "runner.unit",            # simulated SIGKILL mid-campaign
    "hang": "runner.unit",            # attempt blocks past unit_timeout
    "torn": "checkpoint.append",      # partial line + SIGKILL mid-write
    "io": "checkpoint.append",        # ENOSPC-style append failure
    "kill_worker": "pool.worker.unit",  # real SIGKILL of a pool worker
    "shard_loss": "pool.merge",       # worker shard vanishes pre-merge
    "corrupt": "file",                # bit flip in a checkpoint record
    "truncate": "file",               # checkpoint tail chopped off
    "duplicate": "file",              # trailing record duplicated
}

FAILURE_CLASSES = tuple(CLASS_POINTS)

#: The classes the ``repro chaos`` soak enables by default: everything
#: that is recoverable in a serial campaign with a golden twin.
DEFAULT_SOAK_CLASSES = (
    "kill", "torn", "io", "hang", "corrupt", "truncate", "duplicate",
)

#: Classes allowed to act inside a forked pool worker.
WORKER_CLASSES = ("kill_worker",)


def parse_classes(spec: str) -> Tuple[str, ...]:
    """Parse a ``--inject kill,corrupt,...`` list (``all`` = every class)."""
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if names == ["all"]:
        return FAILURE_CLASSES
    unknown = [name for name in names if name not in CLASS_POINTS]
    if unknown:
        raise ConfigError(
            f"unknown chaos class(es) {', '.join(unknown)}: expected "
            f"{', '.join(FAILURE_CLASSES)}"
        )
    if not names:
        raise ConfigError("chaos needs at least one failure class")
    return tuple(dict.fromkeys(names))


@dataclass(frozen=True)
class ChaosConfig:
    """One soak's injection policy."""

    seed: Optional[int]
    classes: Tuple[str, ...] = DEFAULT_SOAK_CLASSES
    #: Chance that a class fires *again* at an eligible occurrence after
    #: its guaranteed first firing.  ≥ 1.0 is rejected: every occurrence
    #: failing until the budget is gone is a misconfiguration (usually a
    #: percentage pasted where a fraction belongs).
    probability: float = 0.25
    #: Hard per-class injection budget per campaign (termination bound).
    max_per_class: int = 2

    def validate(self) -> None:
        if self.seed is None:
            raise ConfigError(
                "chaos requires a seed: an unseeded failure schedule "
                "cannot be replayed"
            )
        if not (0.0 <= self.probability < 1.0):
            raise ConfigError(
                f"chaos probability must be in [0, 1), got "
                f"{self.probability!r} (1.0 would fail every injection "
                "point until the budget is exhausted)"
            )
        if self.max_per_class < 1:
            raise ConfigError("chaos max_per_class must be >= 1")
        parse_classes(",".join(self.classes))


class ChaosMonkey:
    """The installed injector: owns the schedule, counters and actions."""

    def __init__(self, config: ChaosConfig, horizon: int = 8):
        import multiprocessing

        config.validate()
        self.config = config
        self.rng = random.Random(config.seed)
        self.pid = os.getpid()
        #: Firings per class so far, one slot per ``config.classes``
        #: entry.  A worker class fires in a pool worker, whose memory
        #: dies with it, so the counts live in memory made before any
        #: fork: the parent and every worker of every pool read and
        #: bound one count.
        self.fired = multiprocessing.Array("i", len(config.classes))
        self._slot = {name: slot for slot, name in enumerate(config.classes)}
        #: Guards the monkey in every process.  Being the counts' own
        #: process-shared lock, a fork cannot copy it in a held state.
        self._lock = self.fired.get_lock()
        #: Occurrence counters per injection point.
        self.occurrences: Dict[str, int] = {}
        #: Guaranteed first firing: the first occurrence of the class's
        #: point at/after this index triggers it (``horizon`` should be
        #: ≲ the workload size so the guarantee is reachable).
        self.planned: Dict[str, int] = {
            name: self.rng.randrange(max(1, horizon))
            for name in config.classes
        }
        #: (point, class, occurrence) log for the soak report.
        self.events: List[Tuple[str, str, int]] = []

    # ------------------------------------------------------------------
    def _classes_at(self, point: str) -> List[str]:
        return [name for name in self.config.classes
                if CLASS_POINTS[name] == point]

    def _pick(self, point: str) -> Optional[str]:
        """Decide (under the lock) which class, if any, fires now."""
        with self._lock:
            occurrence = self.occurrences.get(point, 0)
            self.occurrences[point] = occurrence + 1
            for name in self._classes_at(point):
                slot = self._slot[name]
                fired = self.fired[slot]
                if fired >= self.config.max_per_class:
                    continue
                first_due = fired == 0 and occurrence >= self.planned[name]
                again = fired > 0 \
                    and self.rng.random() < self.config.probability
                if first_due or again:
                    self.fired[slot] = fired + 1
                    self.events.append((point, name, occurrence))
                    return name
        return None

    def inject(self, point: str, **ctx: Any) -> Optional[str]:
        """One injection point was reached; maybe act.  Returns the
        fired class name (for caller-driven effects like ``hang``)."""
        in_worker = os.getpid() != self.pid
        if in_worker and not any(
            CLASS_POINTS[name] == point for name in self.config.classes
            if name in WORKER_CLASSES
        ):
            return None
        name = self._pick(point)
        if name is None:
            return None
        return self._act(name, ctx)

    # ------------------------------------------------------------------
    def _act(self, name: str, ctx: Dict[str, Any]) -> Optional[str]:
        if name == "kill":
            raise ChaosKill("chaos: simulated SIGKILL mid-campaign")
        if name == "torn":
            self._torn_write(ctx)
            raise ChaosKill("chaos: simulated SIGKILL mid-append")
        if name == "io":
            raise OSError(28, "chaos: no space left on device",
                          ctx.get("store") and ctx["store"].path)
        if name == "kill_worker":
            import signal
            os.kill(os.getpid(), signal.SIGKILL)
        if name == "shard_loss":
            paths = list(ctx.get("paths") or ())
            if paths:
                victim = paths[self.rng.randrange(len(paths))]
                try:
                    os.remove(victim)
                except OSError:
                    pass
        return name  # "hang" (and the handled classes) reach here

    def _torn_write(self, ctx: Dict[str, Any]) -> None:
        """Persist the front half of the record the store was appending,
        simulating a kill between ``write`` and the trailing newline."""
        store, line = ctx.get("store"), ctx.get("line")
        if store is None or not line:
            return
        cut = max(1, len(line) // 2)
        store.close()
        try:
            with open(store.path, "a", encoding="utf-8") as handle:
                handle.write(line[:cut])
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            pass

    # ------------------------------------------------------------------
    # File-level mutations (applied between runs, at crash boundaries)
    # ------------------------------------------------------------------
    def pending_file_mutations(self) -> List[str]:
        """File classes that still owe their guaranteed first firing."""
        return [name for name in ("corrupt", "truncate", "duplicate")
                if name in self._slot and self.fired[self._slot[name]] == 0]

    def mutate_checkpoint(self, path: str) -> Optional[str]:
        """Apply at most one pending file-level mutation to ``path``.

        Prefers classes that have not fired yet (the ≥1 guarantee);
        afterwards fires extras with ``probability``.  Returns the class
        applied, or ``None`` (no file classes enabled, empty file ...).
        """
        candidates = self.pending_file_mutations()
        if not candidates:
            candidates = [
                name for name in ("corrupt", "truncate", "duplicate")
                if name in self._slot
                and self.fired[self._slot[name]] < self.config.max_per_class
                and self.rng.random() < self.config.probability
            ]
        for name in candidates:
            if self._mutate(path, name):
                with self._lock:
                    self.fired[self._slot[name]] += 1
                    self.events.append(("file", name, -1))
                return name
        return None

    def _mutate(self, path: str, name: str) -> bool:
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return False
        lines = data.split(b"\n")
        # Record lines only: index 0 is the header, a destroyed header is
        # a destroyed campaign identity, not a recoverable corruption.
        records = [i for i in range(1, len(lines)) if lines[i]]
        if not records:
            return False
        if name == "corrupt":
            target = records[self.rng.randrange(len(records))]
            line = bytearray(lines[target])
            line[self.rng.randrange(len(line))] ^= \
                1 << self.rng.randrange(8)
            lines[target] = bytes(line)
            mutated = b"\n".join(lines)
        elif name == "truncate":
            cut = self.rng.randrange(1, min(len(data), 40) + 1)
            mutated = data[:-cut]
        else:  # duplicate
            tail = lines[records[-1]]
            mutated = data + tail + b"\n"
        with open(path, "wb") as handle:
            handle.write(mutated)
        return True

    def injection_counts(self) -> Dict[str, int]:
        """Firings per class.  Read without the lock: a campaign reports
        once its pools are gone, and a process that died holding the
        lock would hold it for good."""
        return dict(zip(self.config.classes, self.fired.get_obj()))


# ----------------------------------------------------------------------
# The global injection switchboard
# ----------------------------------------------------------------------
_ACTIVE: Optional[ChaosMonkey] = None


def install(monkey: ChaosMonkey) -> ChaosMonkey:
    global _ACTIVE
    _ACTIVE = monkey
    return monkey


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[ChaosMonkey]:
    return _ACTIVE


@contextmanager
def quiesced() -> Iterator[None]:
    """Hold the active monkey's lock, so no other process is inside it:
    a worker killed meanwhile cannot die holding it."""
    monkey = _ACTIVE
    if monkey is None:
        yield
        return
    with monkey._lock:
        yield


def inject(point: str, **ctx: Any) -> Optional[str]:
    """The single call every injection point makes.  One attribute read
    and an ``is None`` test when chaos is off — provably inert."""
    monkey = _ACTIVE
    if monkey is None:
        return None
    return monkey.inject(point, **ctx)


def hanging(fn: Callable[[], Any], timeout: float) -> Callable[[], Any]:
    """Wrap ``fn`` so its *first* call blocks well past ``timeout``
    (the attempt times out and leaks its thread, like any real hang);
    later calls — the retry — run ``fn`` directly."""
    state = {"first": True}

    def hung():
        if state["first"]:
            state["first"] = False
            time.sleep(timeout * 3 + 0.05)
        return fn()

    return hung


# ----------------------------------------------------------------------
# The soak harness
# ----------------------------------------------------------------------
@dataclass
class SoakCampaign:
    """Outcome of one chaos campaign inside a soak."""

    index: int
    seed: int
    n_units: int
    crashes: int
    resumes: int
    injections: Dict[str, int]
    violations: List[Any] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations


@dataclass
class SoakReport:
    """Aggregate outcome of one ``repro chaos`` invocation."""

    seed: int
    classes: Tuple[str, ...]
    campaigns: List[SoakCampaign] = field(default_factory=list)

    @property
    def n_crashes(self) -> int:
        return sum(c.crashes for c in self.campaigns)

    @property
    def n_resumes(self) -> int:
        return sum(c.resumes for c in self.campaigns)

    @property
    def n_violations(self) -> int:
        return sum(len(c.violations) for c in self.campaigns)

    def injection_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {name: 0 for name in self.classes}
        for campaign in self.campaigns:
            for name, count in campaign.injections.items():
                totals[name] = totals.get(name, 0) + count
        return totals

    def unfired(self) -> List[str]:
        """Enabled classes that fired in no campaign of the soak: the
        workload never reached their injection point, so nothing was
        tested for them."""
        totals = self.injection_totals()
        return [name for name in self.classes if not totals[name]]

    def ok(self) -> bool:
        return self.n_violations == 0 and not self.unfired()

    def summary(self) -> str:
        injected = ", ".join(
            f"{name}={count}"
            for name, count in sorted(self.injection_totals().items())
            if count
        )
        unfired = self.unfired()
        never = f"; never fired: {', '.join(unfired)}" if unfired else ""
        return (
            f"{len(self.campaigns)} chaos campaigns: "
            f"{self.n_crashes} induced crashes, "
            f"{self.n_resumes} resumes, "
            f"{self.n_violations} invariant violations "
            f"[{injected or 'nothing injected'}{never}]"
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "classes": list(self.classes),
            "crashes": self.n_crashes,
            "resumes": self.n_resumes,
            "violations": self.n_violations,
            "injections": self.injection_totals(),
            "campaigns": [
                {
                    "index": c.index, "seed": c.seed, "units": c.n_units,
                    "crashes": c.crashes, "resumes": c.resumes,
                    "injections": {k: v for k, v in c.injections.items()
                                   if v},
                    "violations": [v.to_json() for v in c.violations],
                }
                for c in self.campaigns
            ],
        }


def _soak_value(seed: int, index: int) -> int:
    """The deterministic value of soak unit ``index`` (stable across
    processes and resumes — no RNG state involved)."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).hexdigest()
    return int(digest[:8], 16)


def _soak_units(seed: int, n_units: int):
    from repro.runtime.runner import WorkUnit
    return [
        WorkUnit(unit_id=f"unit{i:03d}",
                 run=lambda i=i: _soak_value(seed, i))
        for i in range(n_units)
    ]


def run_one_chaos_campaign(
    campaign_seed: int,
    n_units: int,
    config: ChaosConfig,
    checkpoint: str,
    index: int = 0,
    jobs: int = 1,
    unit_timeout: float = 0.25,
) -> SoakCampaign:
    """One golden run, then the same workload under chaos with a
    crash-resume loop, then the invariant audit."""
    from repro.runtime.integrity import verify_campaign
    from repro.runtime.runner import CampaignRunner

    fingerprint = {"kind": "chaos-soak", "campaign": index,
                   "seed": campaign_seed, "n_units": n_units}
    unit_ids = [f"unit{i:03d}" for i in range(n_units)]

    def make_runner() -> CampaignRunner:
        # A fresh runner per attempt — each resume models a new process.
        return CampaignRunner(
            checkpoint=checkpoint, unit_timeout=unit_timeout,
            max_retries=3, backoff_base=0.001, backoff_max=0.01,
            jobs=jobs,
        )

    golden = CampaignRunner(unit_timeout=None).run(
        _soak_units(campaign_seed, n_units))

    monkey = install(ChaosMonkey(config, horizon=max(2, n_units)))
    crashes = resumes = 0
    # Generous bound: every planned + probabilistic firing, plus slack.
    budget = 8 + 6 * config.max_per_class * len(config.classes)
    try:
        resume = False
        while True:
            if budget <= 0:
                raise CampaignError(
                    "chaos campaign failed to converge (injection "
                    "budget exhausted without a clean completion)"
                )
            budget -= 1
            if resume:
                resumes += 1
            try:
                report = make_runner().run(
                    _soak_units(campaign_seed, n_units),
                    fingerprint=fingerprint, resume=resume, repair=True,
                )
            except (ChaosKill, OSError):
                crashes += 1
                monkey.mutate_checkpoint(checkpoint)
                resume = True
                continue
            if monkey.pending_file_mutations() \
                    and monkey.mutate_checkpoint(checkpoint):
                # Tamper with the completed checkpoint, then prove the
                # chain detects it and a repairing resume re-heals.
                resume = True
                continue
            break
    finally:
        uninstall()

    violations = verify_campaign(
        report, checkpoint=checkpoint, golden=golden,
        expected_units=unit_ids,
    )
    return SoakCampaign(
        index=index, seed=campaign_seed, n_units=n_units,
        crashes=crashes, resumes=resumes,
        injections=monkey.injection_counts(), violations=violations,
    )


def run_soak(
    seed: int,
    campaigns: int = 50,
    n_units: int = 12,
    classes: Sequence[str] = DEFAULT_SOAK_CLASSES,
    probability: float = 0.25,
    max_per_class: int = 2,
    jobs: int = 1,
    scratch: Optional[str] = None,
    unit_timeout: float = 0.25,
    progress: Optional[Callable[[SoakCampaign], None]] = None,
) -> SoakReport:
    """Run ``campaigns`` seeded chaos campaigns; audit every one.

    Each campaign derives its own seed (so failures localise to one
    campaign index), resumes after every induced crash, and must end
    with a report identical to its no-chaos golden twin — otherwise the
    violations land in the returned :class:`SoakReport` and the CLI
    exits nonzero.  It does the same when an enabled class fired in no
    campaign at all (:meth:`SoakReport.unfired`).
    """
    import shutil
    import tempfile

    classes = tuple(classes)
    report = SoakReport(seed=seed, classes=classes)
    own_scratch = scratch is None
    scratch = scratch or tempfile.mkdtemp(prefix="repro-chaos-")
    os.makedirs(scratch, exist_ok=True)
    try:
        for index in range(campaigns):
            campaign_seed = seed * 1_000_003 + index
            config = ChaosConfig(
                seed=campaign_seed, classes=classes,
                probability=probability, max_per_class=max_per_class,
            )
            checkpoint = os.path.join(scratch, f"campaign{index:04d}.jsonl")
            outcome = run_one_chaos_campaign(
                campaign_seed, n_units, config, checkpoint,
                index=index, jobs=jobs, unit_timeout=unit_timeout,
            )
            report.campaigns.append(outcome)
            if progress is not None:
                progress(outcome)
    finally:
        uninstall()
        if own_scratch:
            shutil.rmtree(scratch, ignore_errors=True)
    return report
