"""Paper-pipeline benchmark: end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload selftest_e1 --seed 2004 \\
        --seconds 20 --trace 0

Workloads (sizes are set in ``child.py``):

* ``selftest_e1`` -- the paper's E1 pipeline: metrics table, Phase 1/2
  synthesis and assembly, looped vectors with MISR compaction,
  hierarchical fault grading, PODEM proofs of the undetected
  combinational faults.  Most faults are detected early, so grading
  mostly takes its early-exit path.
* ``flat_exact`` -- exact flat sequential fault simulation of the
  gate-level core over a prefix of the E1 stream.  It bypasses the
  metrics, Phase 1/2, PODEM, the hierarchical grader and the
  behavioural core; the stream is made beforehand and not timed.

A run derives several input sets from ``--seed`` (``INPUT_SETS``) and
runs each in a fresh interpreter (``child.py``) with the serial runner,
the program's default engine and no checkpoint file.  With ``--trace 0``
it repeats passes over the input sets for ``--seconds`` (at least one
pass) and reports the end-to-end metrics: times as the mean over input
sets of each set's median, simulated figures as the mean over input
sets, set-up time and memory as medians over every process.  With
``--trace 1`` it runs the first input set once untraced and once traced
and reports the per-layer metrics of the traced one.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

#: Input sets per run.  One generated program's grading cost moves by
#: +-20% with its seed; the mean over several keeps runs comparable.
INPUT_SETS = {"selftest_e1": 4, "flat_exact": 3}
WORKLOADS = tuple(INPUT_SETS)
#: Every run ends within this many seconds of its start.
RUN_DEADLINE = 170.0

#: name -> unit, in reporting order.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fault_coverage": "ratio",
    "test_coverage": "ratio",
    # Simulated test-application time at 500 MHz, not host time.
    "test_time_ms": "sim_ms",
    "ok_share": "ratio",
}
PER_LAYER = {
    "metrics.table_s": "s",
    "metrics.variants": "count",
    "selftest.generate_s": "s",
    "selftest.loop_instructions": "count",
    "selftest.vectors": "count",
    "selftest.misr_s": "s",
    "dsp.core_steps_per_s": "1/s",
    "hier.universe_s": "s",
    "hier.prepare_s": "s",
    "hier.comb.graded": "count",
    "hier.comb.detected": "count",
    "hier.comb.busy_s": "s",
    "hier.comb.p50_ms": "ms",
    "hier.comb.p99_ms": "ms",
    "hier.comb.undetected_busy_s": "s",
    "hier.storage.graded": "count",
    "hier.storage.detected": "count",
    "hier.storage.busy_s": "s",
    "hier.storage.p50_ms": "ms",
    "hier.storage.p99_ms": "ms",
    "sim.comb.good_machine_s": "s",
    "sim.comb.detect_s": "s",
    "sim.hier.tier2_checks": "count",
    "cache.trace.hit_rate": "ratio",
    "cache.cone.hit_rate": "ratio",
    "cache.compile.hit_rate": "ratio",
    "atpg.podem_s": "s",
    "atpg.targets": "count",
    "atpg.proven": "count",
    "atpg.aborted": "count",
    "runtime.units": "count",
    "runtime.failed": "count",
    "runtime.retried": "count",
    "runtime.overhead_s": "s",
    "flat.setup_s": "s",
    "flat.grade_s": "s",
    "flat.faults": "count",
    "flat.detected": "count",
    "flat.faults_per_s": "1/s",
    "trace.overhead_s": "s",
    "unattributed_s": "s",
}
#: Child stages that partition a traced iteration after set-up; the rest
#: of its wall clock is ``unattributed_s``.
TOP_LEVEL_STAGES = ("metrics.table", "selftest.generate", "selftest.misr",
                    "campaign", "atpg.podem", "flat.grade")


class BenchError(Exception):
    """A child failed or the run could not be made."""


class Child:
    """One finished child process: its result and what the host saw."""

    def __init__(self, result, wall_s, setup_s, peak_rss_mb):
        self.result = result
        self.wall_s = wall_s
        self.setup_s = setup_s
        self.peak_rss_mb = peak_rss_mb


def spawn(request: dict, deadline: float) -> Child:
    """Run ``child.py`` on ``request`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SOURCE, env.get("PYTHONPATH")) if p)
    started = time.monotonic()
    if started >= deadline:
        raise BenchError("run deadline reached")
    proc = subprocess.Popen([sys.executable, CHILD], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    timer = threading.Timer(deadline - started, proc.kill)
    timer.start()
    try:
        try:
            proc.stdin.write(json.dumps(request).encode())
            proc.stdin.close()
        except BrokenPipeError:
            pass
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4 rather than Popen.wait: it returns this child's rusage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        ended = time.monotonic()
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{request['workload']} child exited with "
                         f"code {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    setup_s = result["setup_done"] - started if "setup_done" in result \
        else None
    # ru_maxrss is in KiB on Linux.
    return Child(result, ended - started, setup_s, usage.ru_maxrss / 1024)


class Tally:
    """Operations attempted and failed, with the names of failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_checks = []

    def add(self, child: Child) -> None:
        result = child.result
        checks = result["checks"]
        self.attempted += result["units"] + len(checks)
        self.failed += result["bad_units"]
        for name, ok in sorted(checks.items()):
            if not ok:
                self.failed += 1
                self.failed_checks.append(name)

    def mismatch(self, name: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failed_checks.append(name)


def make_requests(workload: str, seed: int, n_sets: int,
                  deadline: float) -> list:
    """One request per input set; ``flat_exact`` gets its stream here."""
    requests = []
    for input_set in range(n_sets):
        request = {"workload": workload, "seed": seed,
                   "input_set": input_set}
        if workload == "flat_exact":
            stream = spawn(dict(request, workload="stream"), deadline)
            request["words"] = stream.result["words"]
        requests.append(request)
    return requests


def end_to_end(requests: list, seconds: float, deadline: float,
               tally: Tally) -> tuple:
    runs = [[] for _ in requests]
    start = time.monotonic()
    while not runs[-1] or (time.monotonic() - start < seconds and
                           time.monotonic() + sum(r[-1].wall_s for r in runs)
                           < deadline):
        for request, done in zip(requests, runs):
            done.append(spawn(request, deadline))
            tally.add(done[-1])
    for done in runs:
        if any(r.result["outputs"] != done[0].result["outputs"]
               for r in done):
            tally.mismatch("outputs_repeat")
    every = [r for done in runs for r in done]

    def mean_over_sets(value):
        return statistics.fmean(
            statistics.median(value(r) for r in done) for done in runs)

    return [done[0].result["outputs"] for done in runs], {
        "wall_s": mean_over_sets(lambda r: r.wall_s),
        "setup_s": statistics.median(r.setup_s for r in every),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in every),
        "fault_coverage": mean_over_sets(
            lambda r: r.result["fault_coverage"]),
        "test_coverage": mean_over_sets(
            lambda r: r.result["test_coverage"]),
        "test_time_ms": mean_over_sets(lambda r: r.result["test_time_ms"]),
        "ok_share": 1.0 - tally.failed / tally.attempted,
    }


def per_layer(request: dict, deadline: float, tally: Tally) -> tuple:
    untraced = spawn(request, deadline)
    traced = spawn(dict(request, trace=True), deadline)
    for child in (untraced, traced):
        tally.add(child)
    if traced.result["outputs"] != untraced.result["outputs"]:
        tally.mismatch("traced_outputs_match")
    layer = {name: 0 for name in PER_LAYER}
    layer.update(traced.result["layer"])
    stages = traced.result["stages"]
    layer["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    layer["unattributed_s"] = traced.wall_s - traced.setup_s - sum(
        stages.get(name, 0.0) for name in TOP_LEVEL_STAGES)
    return [traced.result["outputs"]], layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"error: no program source under {SOURCE}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE
    tally = Tally()
    try:
        n_sets = 1 if args.trace else INPUT_SETS[args.workload]
        requests = make_requests(args.workload, args.seed, n_sets,
                                 deadline)
        if args.trace:
            outputs, values = per_layer(requests[0], deadline, tally)
            units = PER_LAYER
        else:
            outputs, values = end_to_end(requests, args.seconds, deadline,
                                         tally)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # Per input set, the outputs perfbench/pins.json pins for some seeds.
    print("outputs " + json.dumps(outputs, sort_keys=True))
    for name in units:
        print(f"{name:32s} {values[name]:14.6g} {units[name]}")
    for name in tally.failed_checks:
        print(f"check failed: {name}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.failed_checks,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
