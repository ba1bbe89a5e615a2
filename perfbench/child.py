"""One cold benchmark process: set up, run one input set, report.

``run.py`` starts this file in a fresh interpreter for every measured
iteration, writes one JSON request to its standard input and reads one
JSON result from its standard output.  Nothing here is imported by the
parent, so every iteration pays the program's full cold start.

Request keys: ``workload`` (``selftest_e1`` | ``flat_exact`` |
``stream``), ``seed`` and ``input_set`` (together they fix every input),
``trace`` (arm the program's own ``repro.obs`` profiler and registry)
and, for ``flat_exact``, ``words`` (the vector prefix a ``stream``
request made).

The result carries ``setup_done`` (a ``time.monotonic`` reading, which
the parent compares with its own spawn time), the outputs ``pins.json``
pins, named output checks, unit counts and, when traced, the per-layer
figures.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time
from contextlib import contextmanager

# Workload sizes.  One input set of either workload takes 11-15 s on a
# 2-core x86-64 host.
METRICS_SAMPLES = 8          # controllability samples per variant
METRICS_GOOD = 1             # observability good runs per variant
PHASE2_GOOD = 1              # observability good runs per Phase 2 probe
E1_ITERATIONS = 40           # loop passes expanded into the E1 stream
PODEM_BACKTRACKS = 4000      # per-fault limit of the untestability proofs
FLAT_CYCLES = 96             # E1 stream prefix graded by flat_exact
# Both fault universes are graded on a fixed 1-in-4 stride sample, so a
# run can grade several input sets: the grading cost of one generated
# program swings by +-20% with its seed, and only averaging over
# programs keeps a run's figures steady from seed to seed.
FAULT_STRIDE = 4
CLOCK_HZ = 500e6             # the paper's test clock

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")


def input_seeds(seed: int, input_set: int) -> dict:
    """Every input seed of the pipeline for one input set of a run."""
    rng = random.Random(f"{seed}/{input_set}")
    return {
        "metrics": rng.randrange(1, 1 << 31),
        "lfsr1": rng.randrange(1, 1 << 16),
        "lfsr2": rng.randrange(1, 1 << 8),
    }


def digest(items) -> str:
    """Short content digest of a JSON-able value."""
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Stages:
    """Accumulated wall clock per named stage of this process."""

    def __init__(self):
        self.seconds = {}

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + time.perf_counter() - start)


# ----------------------------------------------------------------------
# Set-up: imports, netlists, fault universe, compiled-evaluator cache
# ----------------------------------------------------------------------
def setup_hierarchical(stages: Stages):
    # Import everything the workload calls, so set-up holds the imports.
    import repro.atpg.podem  # noqa: F401
    import repro.metrics.table  # noqa: F401
    import repro.runtime.campaigns  # noqa: F401
    import repro.selftest.generator  # noqa: F401
    import repro.selftest.vectors  # noqa: F401
    from repro.faults.hierarchical import HierarchicalFaultSimulator
    with stages("hier.universe"):
        simulator = HierarchicalFaultSimulator()
        universe = simulator.universe
        universe.comb_faults = {name: faults[::FAULT_STRIDE] for name, faults
                                in universe.comb_faults.items()}
        universe.storage_faults = universe.storage_faults[::FAULT_STRIDE]
    return simulator


def setup_flat(stages: Stages):
    from repro.dsp.gatelevel import make_gatelevel_core
    from repro.faults.model import FaultList, collapse_faults
    from repro.faults.seqsim import SeqFaultSimulator
    from repro.runtime.cache import compiled_evaluator
    with stages("flat.setup"):
        core = make_gatelevel_core()
        compiled_evaluator(core)
        faults = collapse_faults(core).faults[::FAULT_STRIDE]
        return SeqFaultSimulator(
            core, fault_list=FaultList(netlist=core, faults=faults))


# ----------------------------------------------------------------------
# Pipeline pieces
# ----------------------------------------------------------------------
def selftest_stream(seeds: dict, stages: Stages):
    """Metrics table -> Phase 1/2 + assembly -> expanded vector stream."""
    from repro.bist.lfsr import Lfsr
    from repro.metrics.observability import ObservabilityEngine
    from repro.metrics.table import build_metrics_table
    from repro.selftest.generator import SelfTestGenerator
    from repro.selftest.vectors import expand_program

    with stages("metrics.table"):
        table = build_metrics_table(
            n_controllability_samples=METRICS_SAMPLES,
            n_observability_good=METRICS_GOOD, seed=seeds["metrics"],
        )
    with stages("selftest.generate"):
        program = SelfTestGenerator(
            table=table,
            o_engine=ObservabilityEngine(n_good=PHASE2_GOOD,
                                         seed=seeds["metrics"] + 2),
        ).generate().program
    with stages("selftest.expand"):
        words = expand_program(program, E1_ITERATIONS,
                               lfsr1=Lfsr(16, seed=seeds["lfsr1"]),
                               lfsr2=Lfsr(8, seed=seeds["lfsr2"]))
    return table, program, words


def prove_untestable(result, stages: Stages) -> dict:
    """Component-level PODEM over the undetected combinational faults."""
    from repro.atpg.podem import Podem
    from repro.faults.hierarchical import ComponentFault
    engines = {}
    counts = {"targets": 0, "proven": 0, "aborted": 0}
    with stages("atpg.podem"):
        for fault in result.undetected:
            if not isinstance(fault, ComponentFault):
                continue
            if fault.component not in engines:
                netlist = result.universe.comb_simulators[
                    fault.component].netlist
                engines[fault.component] = Podem(
                    netlist, backtrack_limit=PODEM_BACKTRACKS)
            status = engines[fault.component].generate(fault.fault).status
            counts["targets"] += 1
            counts["proven"] += status == "untestable"
            counts["aborted"] += status == "aborted"
    return counts


def run_selftest_e1(seeds, simulator, stages: Stages) -> dict:
    from repro.faults.hierarchical import fault_unit_id
    from repro.runtime.campaigns import HierarchicalCampaign
    from repro.selftest.vectors import run_with_misr

    table, program, words = selftest_stream(seeds, stages)
    with stages("selftest.misr"):
        signature = run_with_misr(words).signature
    campaign = HierarchicalCampaign(words, simulator=simulator, jobs=1)
    with stages("campaign"):
        outcome = campaign.run()
    proofs = prove_untestable(outcome.result, stages)

    report = outcome.result.coverage_report("self test")
    report.n_untestable = proofs["proven"]
    detect = {fault_unit_id(f): c
              for f, c in outcome.result.first_detect.items()}
    runner = outcome.report
    bad_units = sum(1 for r in runner.results.values()
                    if r.status != "ok" or r.attempts > 1 or r.timeouts)
    loop = len(program.loop_lines)
    checks = {
        "every_fault_graded": len(detect) == len(runner.results) == len(
            simulator.universe.all_faults()),
        "detect_cycles_in_stream": all(
            c is None or 0 <= c < len(words) for c in detect.values()),
        "vector_count": len(words) == (len(program.one_shot_lines)
                                       + E1_ITERATIONS * loop),
        "signature_width": 0 <= signature < 256,
        "proofs_within_undetected": proofs["proven"] <= proofs["targets"]
        <= report.n_faults - report.n_detected,
    }
    return {
        "outputs": {
            "misr_signature": signature,
            "loop_instructions": loop,
            "vectors": len(words),
            "detected": report.n_detected,
            "faults": report.n_faults,
            "proven_untestable": proofs["proven"],
            "first_detect_digest": digest(detect),
        },
        "checks": checks,
        "fault_coverage": report.fault_coverage,
        "test_coverage": report.test_coverage,
        "vectors": len(words),
        "units": len(runner.results) + proofs["targets"],
        "bad_units": bad_units,
        "report": runner,
        "layer": {
            "metrics.variants": len(table.rows),
            "selftest.loop_instructions": loop,
            "selftest.vectors": len(words),
            "atpg.targets": proofs["targets"],
            "atpg.proven": proofs["proven"],
            "atpg.aborted": proofs["aborted"],
            "runtime.retried": runner.counts()["retried"],
        },
    }


def run_flat_exact(words, simulator, stages: Stages) -> dict:
    with stages("flat.grade"):
        result = simulator.run_sequence({"instr": words})
    n_faults = len(simulator.fault_list.faults)
    detected = sorted(
        (f.net, f.stuck_at, c)
        for f, c in result.first_detect_cycle.items() if c is not None
    )
    checks = {
        "every_fault_graded": len(result.first_detect_cycle) == n_faults,
        "detect_cycles_in_stream": all(
            0 <= c < len(words) for _, _, c in detected),
    }
    coverage = len(detected) / n_faults
    return {
        "outputs": {
            "detected": len(detected),
            "faults": n_faults,
            "detected_digest": digest(detected),
        },
        "checks": checks,
        "fault_coverage": coverage,
        "test_coverage": coverage,
        "vectors": len(words),
        "units": n_faults,
        "bad_units": 0,
        "report": None,
        "layer": {
            "flat.faults": n_faults,
            "flat.detected": len(detected),
            "selftest.vectors": len(words),
        },
    }


# ----------------------------------------------------------------------
# Per-layer figures of a traced run
# ----------------------------------------------------------------------
def percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def unit_latencies(report, prepare_s: float) -> dict:
    """hier.comb.* / hier.storage.* from each unit's ``elapsed``.

    The serial runner builds the fault-free trace lazily inside the first
    unit, so that unit's ``elapsed`` is charged ``prepare_s`` less.
    """
    figures = {}
    results = list(report.results.values())
    elapsed = [r.elapsed for r in results]
    if elapsed:
        elapsed[0] = max(0.0, elapsed[0] - prepare_s)
    for kind in ("comb", "storage"):
        picked = [(e, r.value is not None) for e, r in zip(elapsed, results)
                  if r.unit_id.startswith(kind + ":")]
        times = sorted(e for e, _ in picked)
        prefix = f"hier.{kind}."
        figures[prefix + "graded"] = len(picked)
        figures[prefix + "detected"] = sum(1 for _, hit in picked if hit)
        figures[prefix + "busy_s"] = sum(times)
        figures[prefix + "p50_ms"] = percentile(times, 0.50) * 1e3
        figures[prefix + "p99_ms"] = percentile(times, 0.99) * 1e3
        if kind == "comb":
            figures[prefix + "undetected_busy_s"] = sum(
                e for e, hit in picked if not hit)
    return figures


def traced_layers(session, stages: Stages, run: dict) -> dict:
    """Per-layer figures; the parent fills bypassed layers with 0."""
    from repro.runtime.cache import cache_stats
    timings = session.profiler.timings()

    def section(name):
        return timings.get(name, {}).get("seconds", 0.0)

    seconds = stages.seconds
    layer = {
        "metrics.table_s": seconds.get("metrics.table", 0.0),
        "selftest.generate_s": seconds.get("selftest.generate", 0.0),
        "selftest.misr_s": seconds.get("selftest.misr", 0.0),
        "hier.universe_s": seconds.get("hier.universe", 0.0),
        "hier.prepare_s": section("sim.hier.prepare"),
        "sim.comb.good_machine_s": section("sim.comb.good_machine"),
        "sim.comb.detect_s": section("sim.comb.detect"),
        "sim.hier.tier2_checks":
            session.registry.snapshot()["counters"].get(
                "sim.hier.tier2_checks", 0),
        "atpg.podem_s": seconds.get("atpg.podem", 0.0),
        "flat.setup_s": seconds.get("flat.setup", 0.0),
        "flat.grade_s": seconds.get("flat.grade", 0.0),
    }
    stats = cache_stats()
    for kind in ("trace", "cone", "compile"):
        layer[f"cache.{kind}.hit_rate"] = stats[f"{kind}_hit_rate"]
    if layer["selftest.misr_s"]:
        # run_with_misr steps the core once per vector plus 4 drain NOPs.
        layer["dsp.core_steps_per_s"] = ((run["vectors"] + 4)
                                         / layer["selftest.misr_s"])
    report = run["report"]
    if report is not None:
        layer.update(unit_latencies(report, layer["hier.prepare_s"]))
        unit_total = sum(r.elapsed for r in report.results.values())
        layer["runtime.units"] = len(report.results)
        layer["runtime.failed"] = run["bad_units"]
        layer["runtime.overhead_s"] = max(
            0.0, seconds.get("campaign", 0.0) - unit_total)
    if layer["flat.grade_s"]:
        layer["flat.faults_per_s"] = (run["layer"]["flat.faults"]
                                      / layer["flat.grade_s"])
    layer.update(run["layer"])
    return layer


# ----------------------------------------------------------------------
def main() -> int:
    request = json.load(sys.stdin)
    workload, seed = request["workload"], request["seed"]
    input_set = request.get("input_set", 0)
    seeds = input_seeds(seed, input_set)
    stages = Stages()

    session = None
    if request.get("trace"):
        from repro import obs
        session = obs.configure(trace=False, metrics=True, profile=True,
                                seed=seed)

    if workload == "stream":
        # Input generation for flat_exact; the parent does not time it.
        words = selftest_stream(seeds, stages)[2]
        print(json.dumps({"words": words[:FLAT_CYCLES]}))
        return 0

    if workload == "flat_exact":
        simulator = setup_flat(stages)
    else:
        simulator = setup_hierarchical(stages)
    setup_done = time.monotonic()

    if workload == "selftest_e1":
        run = run_selftest_e1(seeds, simulator, stages)
    else:
        run = run_flat_exact(request["words"], simulator, stages)

    with stages("checks"):
        with open(PINS_PATH) as handle:
            pinned = json.load(handle).get(workload, {}).get(str(seed))
        if pinned is not None:
            for key, value in pinned[input_set].items():
                run["checks"][f"pinned.{key}"] = \
                    run["outputs"].get(key) == value

    result = {
        "setup_done": setup_done,
        "outputs": run["outputs"],
        "checks": run["checks"],
        "fault_coverage": run["fault_coverage"],
        "test_coverage": run["test_coverage"],
        "test_time_ms": run["vectors"] / CLOCK_HZ * 1e3,
        "units": run["units"],
        "bad_units": run["bad_units"],
        "stages": stages.seconds,
    }
    if session is not None:
        result["layer"] = traced_layers(session, stages, run)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
