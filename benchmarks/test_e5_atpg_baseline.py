"""E5 — §3.5: whole-core sequential ATPG does badly.

Paper: "we generated test patterns with the Tetramax ATPG tool.  The test
only gave us an 8.51% fault coverage.  Because our core is a relatively
complex circuit, it is just too hard for the ATPG tool to determine good
sequential test patterns."

We run time-frame-expansion PODEM over a deterministic sample of the flat
core's collapsed fault list.  The expected *shape* is a fault coverage far
below the self-test program's — dominated by aborts on faults whose
excitation needs instruction sequences the gate-level view cannot see.
"""

from repro.harness.experiments import REGISTRY, ExperimentResult, scaled
from repro.runtime.campaigns import AtpgBaselineCampaign


def test_sequential_atpg_baseline(benchmark):
    campaign = AtpgBaselineCampaign(
        n_frames=scaled(4, 5, 8),
        backtrack_limit=scaled(40, 300, 1000),
        fault_sample=scaled(8, 60, 300),
        jobs=None,                      # honours REPRO_JOBS
    )
    outcome = benchmark.pedantic(campaign.run, rounds=1, iterations=1)
    result = outcome.result

    print()
    print(f"frames: {result.n_frames}, sampled faults: {result.n_faults}")
    print(f"detected: {result.n_detected} "
          f"(random phase {result.n_detected_random_phase}, "
          f"deterministic {result.n_detected - result.n_detected_random_phase})"
          f"  untestable-within-frames: {result.n_untestable_within_frames}"
          f"  aborted: {result.n_aborted}")
    print(f"fault coverage: {result.fault_coverage:.2%} "
          f"(paper with Tetramax: 8.51%)")
    if result.patterns:
        print("example generated frame sequence:",
              [format(w, '017b') for w in result.patterns[0]])

    # Shape: sequential ATPG collapses on the pipelined core — the bulk of
    # the sample aborts, and the little coverage achieved comes from the
    # random-pattern phase, not the deterministic engine.
    assert result.fault_coverage < 0.25
    assert result.n_aborted + result.n_untestable_within_frames \
        >= 0.6 * result.n_faults

    REGISTRY.record(ExperimentResult(
        experiment_id="E5",
        description="whole-core sequential ATPG baseline",
        paper_value="8.51% fault coverage (Tetramax)",
        measured_value=(
            f"{result.fault_coverage:.2%} on a {result.n_faults}-fault "
            f"sample ({result.n_frames} frames; "
            f"{result.n_aborted} aborted)"
        ),
        campaign_counts=outcome.report.counts(),
    ))
