#!/usr/bin/env python
"""Serial-vs-parallel campaign sweep → ``BENCH_campaigns.json``.

Runs the two campaign-heavy experiments — E1 (hierarchical fault
grading of the generated self-test program) and E5 (the whole-core
sequential ATPG baseline) — once on the serial backend and once per
requested worker count, and records wall clock, units/second, shared
compile/trace cache hit rates and the speedup over serial for each.

Workload sizes follow ``REPRO_SCALE`` (quick / default / full), like
the benchmark suite.  Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_campaigns.py --jobs 4
    PYTHONPATH=src REPRO_SCALE=quick python benchmarks/bench_campaigns.py

The artefact is honest by construction: every number in the JSON is
measured on the machine that wrote it (CPU count included in the
context block), not asserted.
"""

from __future__ import annotations

import argparse
import time

from repro import obs
from repro.harness.experiments import scaled
from repro.harness.perf import BENCH_FILENAME, PerfTrajectory, cache_delta
from repro.runtime.cache import cache_stats, clear_caches
from repro.runtime.campaigns import AtpgBaselineCampaign, HierarchicalCampaign
from repro.runtime.pool import resolve_jobs


def measure(trajectory, experiment, label, jobs, build):
    """Time one campaign run and record its sample.

    Runs under a profile-only observability session, so the sample's
    ``meta`` carries the per-phase wall-clock breakdown
    (``CampaignReport.timings``) alongside the aggregate cache rates.
    """
    clear_caches()
    before = cache_stats()
    campaign = build(jobs)
    start = time.perf_counter()
    with obs.enabled_session(trace=False, metrics=False, profile=True,
                             seed=2004):
        outcome = campaign.run()
    elapsed = time.perf_counter() - start
    counts = outcome.report.counts()
    sample = trajectory.record(
        experiment=experiment, label=label, jobs=campaign.runner.jobs,
        units=counts["executed"], wall_seconds=round(elapsed, 3),
        cache=cache_delta(before, cache_stats()),
        quarantined=counts["quarantined"],
        timings=outcome.report.timings,
    )
    print(f"  {label:<24} {elapsed:8.2f}s  "
          f"{sample.units_per_second:8.1f} units/s  "
          f"(trace hit rate {sample.cache['trace_hit_rate']:.0%})")
    return sample


def selftest_words():
    """The E1 workload: the generated self-test program, expanded."""
    from repro.metrics.table import build_metrics_table
    from repro.selftest.generator import SelfTestGenerator
    from repro.selftest.vectors import expand_program

    table = build_metrics_table(
        n_controllability_samples=scaled(40, 150, 400),
        n_observability_good=scaled(2, 8, 16),
    )
    selftest = SelfTestGenerator(table=table).generate()
    return expand_program(selftest.program, scaled(40, 400, 6000))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", default="auto",
                        help="parallel worker counts to sweep, comma-"
                             "separated (integers or 'auto'; default auto)")
    parser.add_argument("--output", default=BENCH_FILENAME,
                        help=f"artefact path (default {BENCH_FILENAME})")
    args = parser.parse_args(argv)
    sweep = []
    for token in str(args.jobs).split(","):
        jobs = resolve_jobs(token.strip())
        if jobs > 1 and jobs not in sweep:
            sweep.append(jobs)

    trajectory = PerfTrajectory()

    print("E1: self-test fault grading (hierarchical campaign)")
    words = selftest_words()
    build_e1 = lambda jobs: HierarchicalCampaign(words, jobs=jobs)  # noqa: E731
    measure(trajectory, "E1", "grade jobs=1", 1, build_e1)
    for jobs in sweep:
        measure(trajectory, "E1", f"grade jobs={jobs}", jobs, build_e1)

    print("E5: sequential ATPG baseline campaign")
    build_e5 = lambda jobs: AtpgBaselineCampaign(  # noqa: E731
        n_frames=scaled(4, 5, 8),
        backtrack_limit=scaled(40, 300, 1000),
        fault_sample=scaled(8, 60, 300),
        jobs=jobs,
    )
    measure(trajectory, "E5", "atpg jobs=1", 1, build_e5)
    for jobs in sweep:
        measure(trajectory, "E5", f"atpg jobs={jobs}", jobs, build_e5)

    path = trajectory.write(args.output)   # fills speedup_vs_serial
    for sample in trajectory.samples:
        if sample.speedup_vs_serial is not None:
            print(f"{sample.experiment} {sample.label}: "
                  f"{sample.speedup_vs_serial:.2f}x vs serial")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
