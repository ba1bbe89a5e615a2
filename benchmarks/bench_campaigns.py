#!/usr/bin/env python
"""Serial-vs-parallel campaign sweep → ``BENCH_campaigns.json``.

Runs the two campaign-heavy experiments — E1 (hierarchical fault
grading of the generated self-test program) and E5 (the whole-core
sequential ATPG baseline) — once on the serial backend and once per
requested worker count, and records wall clock, units/second and the
speedup over serial for each.

Workload sizes follow ``REPRO_SCALE`` (quick / default / full), like
the benchmark suite.  Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_campaigns.py --jobs 4
    PYTHONPATH=src REPRO_SCALE=quick python benchmarks/bench_campaigns.py

The artefact is honest by construction: every number in the JSON is
measured on the machine that wrote it (CPU count included in the
context block), not asserted.  Its layout::

    {
      "schema": "repro.bench_campaigns/1",
      "context": {"cpu_count": ..., "python": ..., "platform": ...,
                  "scale": ...},
      "samples": [
        {"experiment": "E1", "label": "grade jobs=2", "jobs": 2,
         "units": 532, "wall_seconds": 12.3, "units_per_second": 43.2,
         "speedup_vs_serial": 1.8,
         "meta": {"quarantined": 0, "timings": {section: {...}}}},
        ...
      ]
    }

``speedup_vs_serial`` is measured against the experiment's ``jobs=1``
sample, which itself keeps ``null``.  Every sample starts from an
empty compiled-evaluator cache.  ``meta.timings`` is the section table
of the profile-only observability session armed around the run; pool
workers ship their sections back to the parent, so a pooled sample's
``runner.unit`` calls equal its ``units``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

from repro import obs
from repro.harness.experiments import current_scale, scaled
from repro.runtime.cache import clear_caches
from repro.runtime.campaigns import AtpgBaselineCampaign, HierarchicalCampaign
from repro.runtime.pool import resolve_jobs

#: Default artefact path (repo root; also the CI artifact name).
BENCH_FILENAME = "BENCH_campaigns.json"


def measure(samples, experiment, label, jobs, build):
    """Time one campaign run and append its sample to ``samples``."""
    clear_caches()
    campaign = build(jobs)
    start = time.perf_counter()
    with obs.enabled_session(metrics=False) as session:
        outcome = campaign.run()
    elapsed = time.perf_counter() - start
    counts = outcome.report.counts()
    wall = round(elapsed, 3)
    serial = next((s for s in samples
                   if s["experiment"] == experiment and s["jobs"] == 1), None)
    sample = {
        "experiment": experiment, "label": label,
        "jobs": campaign.runner.jobs, "units": counts["executed"],
        "wall_seconds": wall,
        "units_per_second": counts["executed"] / wall if wall > 0 else 0.0,
        "speedup_vs_serial": (round(serial["wall_seconds"] / wall, 3)
                              if serial is not None and wall > 0 else None),
        "meta": {"quarantined": counts["quarantined"],
                 "timings": session.profiler.timings()},
    }
    samples.append(sample)
    print(f"  {label:<24} {elapsed:8.2f}s  "
          f"{sample['units_per_second']:8.1f} units/s")


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

    samples = []

    print("E1: self-test fault grading (hierarchical campaign)")
    words = selftest_words()
    build_e1 = lambda jobs: HierarchicalCampaign(words, jobs=jobs)  # noqa: E731
    measure(samples, "E1", "grade jobs=1", 1, build_e1)
    for jobs in sweep:
        measure(samples, "E1", f"grade jobs={jobs}", jobs, build_e1)

    print("E5: sequential ATPG baseline campaign")
    build_e5 = lambda jobs: AtpgBaselineCampaign(  # noqa: E731
        n_frames=scaled(4, 5, 8),
        backtrack_limit=scaled(40, 300, 1000),
        fault_sample=scaled(8, 60, 300),
        jobs=jobs,
    )
    measure(samples, "E5", "atpg jobs=1", 1, build_e5)
    for jobs in sweep:
        measure(samples, "E5", f"atpg jobs={jobs}", jobs, build_e5)

    document = {
        "schema": "repro.bench_campaigns/1",
        "context": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": sys.platform,
            "scale": current_scale(),
        },
        "samples": samples,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    for sample in samples:
        if sample["speedup_vs_serial"] is not None:
            print(f"{sample['experiment']} {sample['label']}: "
                  f"{sample['speedup_vs_serial']:.2f}x vs serial")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
