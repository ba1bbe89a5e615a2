"""E1 — §3.3: fault coverage of the looped self-test program.

Paper: 34 instructions × 6000 iterations = 204,000 vectors → 98.14% fault
coverage / 98.33% test coverage; 0.408 ms at 500 MHz.

We grade at a scaled iteration count (pure-Python fault simulation; see
EXPERIMENTS.md) and additionally *prove* the residual untestable faults
with component-level PODEM, which is what separates test coverage from
fault coverage.
"""

from repro.atpg.podem import Podem
from repro.faults.coverage import coverage_curve
from repro.faults.hierarchical import ComponentFault
from repro.harness.experiments import REGISTRY, ExperimentResult, scaled
from repro.harness.reporting import format_curve
from repro.runtime.campaigns import HierarchicalCampaign
from repro.selftest.vectors import expand_program


def prove_untestable(result):
    """Component-level PODEM proofs for the undetected comb faults."""
    engines = {}
    proven = 0
    for fault in result.undetected:
        if not isinstance(fault, ComponentFault):
            continue
        sim = result.universe.comb_simulators[fault.component]
        if fault.component not in engines:
            engines[fault.component] = Podem(sim.netlist,
                                             backtrack_limit=4000)
        outcome = engines[fault.component].generate(fault.fault)
        if outcome.status == "untestable":
            proven += 1
    return proven


def test_selftest_fault_coverage(benchmark, selftest):
    iterations = scaled(40, 400, 6000)
    words = expand_program(selftest.program, iterations)

    # jobs=None honours REPRO_JOBS, so CI exercises the pool by exporting
    # it; benchmarks/bench_campaigns.py records serial-vs-pooled samples.
    campaign = HierarchicalCampaign(words, jobs=None)
    outcome = benchmark.pedantic(campaign.run, rounds=1, iterations=1)
    result = outcome.result
    report = result.coverage_report("self test")
    report.n_untestable = prove_untestable(result)

    print()
    print(report)
    print(f"test coverage (untestable excluded): {report.test_coverage:.2%}")
    print(f"test time at 500 MHz: "
          f"{report.test_time_seconds() * 1e3:.3f} ms "
          f"(paper at 204,000 vectors: 0.408 ms)")
    step = max(1, len(words) // 10)
    print(format_curve(coverage_curve(result.first_detect, len(words),
                                      step)))

    # Shape assertions: high coverage, steep-then-saturating curve.
    # (Thresholds scale with the loop count; the paper's 98% needs the
    # full 204,000 vectors.)
    assert report.fault_coverage > scaled(0.88, 0.93, 0.96)
    assert report.test_coverage > report.fault_coverage
    assert report.test_coverage > scaled(0.90, 0.95, 0.97)
    curve = coverage_curve(result.first_detect, len(words), step)
    half = curve[len(curve) // 2][1]
    assert half > 0.85 * report.fault_coverage  # most coverage comes early

    REGISTRY.record(ExperimentResult(
        experiment_id="E1",
        description="self-test fault coverage (scaled loop count)",
        paper_value="98.14% FC / 98.33% TC @ 204,000 vectors",
        measured_value=(
            f"{report.fault_coverage:.2%} FC / "
            f"{report.test_coverage:.2%} TC @ {len(words)} vectors"
        ),
        campaign_counts=outcome.report.counts(),
    ))
