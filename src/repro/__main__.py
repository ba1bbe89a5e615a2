"""Command-line driver: ``python -m repro <command>``.

Commands cover the everyday flows:

* ``table1`` — print the simple-datapath metrics table (paper Table 1);
* ``metrics`` — measure and print the DSP-core metrics table (Table 2);
* ``generate`` — run Phases 1–2 and print the Fig. 7-style program,
  optionally writing the test-vector file and golden MISR signature;
* ``grade`` — generate and fault-grade the self-test program (exit 1
  if any fault's grading unit was quarantined); ``--trace`` or
  ``--chrome`` arms an observability session and also prints its
  section table, cache hits and misses and tier-2 counts;
* ``sweep`` — run the whole pipeline across a core-family design space
  and write the coverage/test-length/area landscape artifact
  (see :mod:`repro.harness.sweeps`);
* ``constraints`` — the Phase 3 control-bit constraint study (§3.4);
* ``lint`` — static analysis of netlists and self-test programs
  (see :mod:`repro.lint`);
* ``testability`` — SCOAP/COP static testability report over the core
  and component netlists (see :mod:`repro.analysis.testability`);
* ``chaos`` — seeded fault-injection soak of the campaign runtime
  itself (see :mod:`repro.runtime.chaos`);
* ``export-verilog`` — write the flat gate-level core as Verilog.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_table1(args) -> int:
    from repro.metrics.simple_metrics import build_table1, render_table1
    table = build_table1(n_samples=args.samples, n_good=args.good)
    print(render_table1(table))
    return 0


def _measure_or_load(args):
    """The metrics table — loaded from ``--table`` when given."""
    if args.table:
        from repro.metrics.io import load_table
        return load_table(args.table)
    from repro.metrics.table import build_metrics_table
    table = build_metrics_table(
        n_controllability_samples=args.samples,
        n_observability_good=args.good,
    )
    if args.save_table:
        from repro.metrics.io import save_table
        save_table(table, args.save_table)
        print(f"saved metrics table to {args.save_table}")
    return table


def _cmd_metrics(args) -> int:
    table = _measure_or_load(args)
    print(table.render(max_columns=args.columns))
    return 0


def _build_selftest(args):
    from repro.selftest.generator import SelfTestGenerator
    return SelfTestGenerator(table=_measure_or_load(args)).generate()


def _cmd_generate(args) -> int:
    from repro.selftest.vectors import expand_program, run_with_misr
    selftest = _build_selftest(args)
    print(selftest.phase1.summary())
    print(selftest.phase2.summary())
    print()
    print(selftest.program.render())
    words = expand_program(selftest.program, args.iterations)
    golden = run_with_misr(words)
    print(f"\n{golden.n_vectors} vectors over {args.iterations} iterations; "
          f"golden MISR signature 0x{golden.signature:02x}")
    if args.vectors:
        from repro.selftest.export import write_vector_file
        n = write_vector_file(args.vectors, words)
        print(f"wrote {n} vector lines to {args.vectors}")
    return 0


def _export_trace(session, args) -> None:
    """Write the armed session's trace file(s) and a summary line."""
    if args.trace:
        n = session.tracer.write_jsonl(args.trace)
        print(f"trace: {n} spans -> {args.trace}")
    if args.chrome:
        n = session.tracer.write_chrome(args.chrome)
        print(f"chrome trace: {n} events -> {args.chrome}")


def _print_session(session, cache_before) -> None:
    """The armed session's section table, the cache hits and misses of
    each kind since ``cache_before`` (a ``cache_stats()`` snapshot), and
    how many of tier 2's component evaluations ran at gate level."""
    from repro.harness.reporting import format_table
    from repro.runtime.cache import CACHE_KINDS, cache_delta, cache_stats
    rows = [
        (name, calls, f"{seconds:.3f}", f"{mean_ms:.2f}")
        for name, calls, seconds, mean_ms in session.profiler.rows()
    ]
    print(format_table(("section", "calls", "seconds", "mean ms"), rows))
    cache = cache_delta(cache_before, cache_stats())
    print(format_table(("cache", "hits", "misses"), [
        (kind, cache[f"{kind}_hits"], cache[f"{kind}_misses"])
        for kind in CACHE_KINDS
    ]))
    counters = session.registry.snapshot()["counters"]
    checks = counters.get("sim.hier.tier2_checks")
    if checks:
        print(f"tier 2: {checks} checks, "
              f"{counters['sim.hier.tier2_cycles']} cycles, "
              f"{counters['sim.hier.tier2_gate_cycles']} at gate level")


def _quarantine_status(quarantined: int) -> int:
    """Exit status of a finished campaign: 1 when any unit was
    quarantined, since its fault then counts as undetected and every
    figure built from it is only a lower bound."""
    if not quarantined:
        return 0
    print(f"FAILED: {quarantined} unit(s) quarantined; the figures above "
          "count them as undetected", file=sys.stderr)
    return 1


def _cmd_grade(args) -> int:
    from repro import obs
    from repro.runtime.cache import cache_stats
    from repro.runtime.campaigns import HierarchicalCampaign
    from repro.selftest.vectors import expand_program

    session = None
    if args.trace or args.chrome:
        session = obs.configure(seed=2004)
        cache_before = cache_stats()
    try:
        selftest = _build_selftest(args)
        words = expand_program(selftest.program, args.iterations)
        action = "resuming" if args.resume else "grading"
        print(f"{action} {len(words)} vectors ...")
        campaign = HierarchicalCampaign(
            words,
            checkpoint=args.checkpoint,
            unit_timeout=args.unit_timeout,
            jobs=args.jobs,
        )
        outcome = campaign.run(resume=args.resume, max_units=args.max_units,
                               force=args.force)
        if session is not None:
            _export_trace(session, args)
            _print_session(session, cache_before)
        if outcome.report.interrupted:
            print(f"campaign interrupted: {outcome.report.summary()}")
            print("re-run with --resume to finish the remaining units")
            return 3
        report = outcome.result.coverage_report("self test")
        print(report)
        print(f"campaign: {outcome.report.summary()}")
        print(f"test time at 500 MHz: "
              f"{report.test_time_seconds() * 1e3:.3f} ms")
        return _quarantine_status(outcome.report.counts()["quarantined"])
    finally:
        if session is not None:
            obs.disable()


def _cmd_sweep(args) -> int:
    import json

    from repro import obs
    from repro.harness.sweeps import (
        SweepConfig,
        quick_factorial,
        record_sweep,
        run_sweep,
        sampled_specs,
    )

    session = None
    if args.trace or args.chrome:
        session = obs.configure(seed=args.seed)
    try:
        if args.sample:
            specs = sampled_specs(args.sample, seed=args.seed)
        else:
            specs = quick_factorial()
        config = SweepConfig(
            specs=specs,
            n_controllability_samples=args.samples,
            n_observability_good=args.good,
            seed=args.seed,
            n_iterations=args.iterations,
        )
        print(f"sweeping {len(specs)} design points ...")

        def progress(label, record):
            if record.get("interrupted"):
                print(f"  {label}: interrupted in {record['stage']} stage")
            else:
                print(f"  {label}: area={record['area']} "
                      f"coverage={record['fault_coverage']:.2%} "
                      f"vectors={record['n_vectors']}")

        doc = run_sweep(
            config, checkpoint_dir=args.checkpoint_dir, jobs=args.jobs,
            unit_timeout=args.unit_timeout, resume=args.resume,
            max_units=args.max_units, progress=progress,
        )
        if session is not None:
            _export_trace(session, args)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"landscape artifact -> {args.out}")
        if doc["interrupted"]:
            print("sweep interrupted: re-run with --resume to finish")
            return 3
        quarantined = sum(counts["quarantined"]
                          for point in doc["points"]
                          for counts in point["campaign"].values())
        if quarantined:
            return _quarantine_status(quarantined)
        record_sweep(doc)
        return 0
    finally:
        if session is not None:
            obs.disable()


def _cmd_trace(args) -> int:
    """``repro trace <campaign>``: run the metrics campaign with tracing
    on (``metrics``) or validate an existing trace (``check``)."""
    from repro import obs
    from repro.runtime.errors import ConfigError

    if args.campaign == "check":
        from repro.obs.schema import validate_trace_file
        if not args.file:
            raise ConfigError("trace check requires a trace file argument")
        counts, errors = validate_trace_file(args.file)
        print(f"{args.file}: {counts['spans']} spans, "
              f"{counts['points']} points")
        if errors:
            for error in errors[:20]:
                print(f"  schema error: {error}", file=sys.stderr)
            if len(errors) > 20:
                print(f"  ... and {len(errors) - 20} more",
                      file=sys.stderr)
            return 1
        print("schema: OK")
        return 0

    if args.file:
        raise ConfigError(
            f"trace {args.campaign} takes no file argument "
            f"(use --trace to choose the output path)")

    from repro.runtime.cache import cache_stats
    from repro.runtime.campaigns import MetricsCampaign
    session = obs.configure(seed=2004)
    cache_before = cache_stats()
    try:
        campaign = MetricsCampaign(
            n_controllability_samples=args.samples,
            n_observability_good=args.good,
            jobs=args.jobs,
        )
        outcome = campaign.run()
        print(f"campaign: {outcome.report.summary()}")
        _export_trace(session, args)
        _print_session(session, cache_before)
        return _quarantine_status(outcome.report.counts()["quarantined"])
    finally:
        obs.disable()


def _cmd_chaos(args) -> int:
    import json as _json
    from repro.runtime.chaos import parse_classes, run_soak
    classes = parse_classes(args.inject)

    def progress(outcome):
        status = "ok" if outcome.ok() else \
            f"{len(outcome.violations)} VIOLATIONS"
        print(f"  campaign {outcome.index:3d} seed {outcome.seed}: "
              f"{outcome.crashes} crashes, {outcome.resumes} resumes "
              f"[{status}]")

    print(f"chaos soak: {args.campaigns} campaigns x {args.units} units, "
          f"seed {args.seed}, injecting {','.join(classes)}")
    report = run_soak(
        seed=args.seed, campaigns=args.campaigns, n_units=args.units,
        classes=classes, probability=args.probability,
        max_per_class=args.max_per_class, jobs=args.jobs,
        scratch=args.scratch,
        progress=progress if args.verbose else None,
    )
    print(report.summary())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            _json.dump(report.to_json(), handle, indent=2)
            handle.write("\n")
        print(f"wrote soak report to {args.report}")
    if not report.ok():
        for campaign in report.campaigns:
            for violation in campaign.violations:
                print(f"VIOLATION campaign {campaign.index} "
                      f"(seed {campaign.seed}): {violation.describe()}",
                      file=sys.stderr)
        for name in report.unfired():
            print(f"UNFIRED: chaos class {name} never fired in "
                  f"{len(report.campaigns)} campaigns, so the soak "
                  "tested nothing for it", file=sys.stderr)
        return 1
    return 0


def _cmd_constraints(args) -> int:
    from repro.selftest.phase3 import constraint_study, discardable_modes
    results = constraint_study(args.component, n_patterns=args.patterns)
    for result in results:
        print(result.describe())
    modes = discardable_modes(results)
    print("discardable modes:", modes if modes else "none")
    return 0


def _cmd_isa(args) -> int:
    from repro.dsp.isa import render_opcode_table
    print(render_opcode_table())
    return 0


def _cmd_core_report(args) -> int:
    from repro.dsp.gatelevel import make_gatelevel_core
    from repro.logic.analysis import (
        fanout_histogram,
        logic_depth,
        region_inventory,
    )
    netlist = make_gatelevel_core()
    print(netlist.stats())
    depth = logic_depth(netlist)
    print(f"logic depth: max {depth.max_depth}, "
          f"mean over sinks {depth.mean_output_depth:.1f}")
    print("fanout histogram:", fanout_histogram(netlist))
    print("gates per component region:")
    for region, count in sorted(region_inventory(netlist).items()):
        print(f"  {region:<14}{count}")
    return 0


def _cmd_lint(args) -> int:
    from repro.lint.cli import run_lint
    return run_lint(args)


def _cmd_testability(args) -> int:
    import json as _json
    from repro import obs
    from repro.analysis import analyze_testability, summarize_testability
    from repro.analysis.testability import DEFAULT_DETECT_FLOOR, DEFAULT_SEQ_COST
    from repro.dsp.components import COMPONENTS
    from repro.dsp.gatelevel import make_gatelevel_core
    from repro.faults.model import collapse_faults
    from repro.harness.reporting import format_table
    from repro.runtime.errors import ConfigError

    floor = args.floor if args.floor is not None else DEFAULT_DETECT_FLOOR
    seq_cost = args.seq_cost if args.seq_cost is not None \
        else DEFAULT_SEQ_COST
    if not 0.0 < floor <= 1.0:
        raise ConfigError(f"--floor must be a positive probability, "
                          f"got {floor}")
    if not seq_cost >= 0.0:
        raise ConfigError(f"--seq-cost must be non-negative, got {seq_cost}")
    session = obs.configure(trace=False, metrics=True, profile=True,
                            seed=2004) if args.profile else None
    try:
        targets = []
        if args.target in ("components", "all"):
            targets.extend(
                (spec.name, spec.factory) for spec in COMPONENTS
                if spec.factory is not None
            )
        if args.target in ("core", "all"):
            targets.append(("core", make_gatelevel_core))
        summaries = []
        for name, factory in targets:
            netlist = factory()
            analysis = analyze_testability(netlist, seq_cost=seq_cost)
            faults = collapse_faults(netlist).faults
            summaries.append(summarize_testability(
                name, netlist, faults, analysis=analysis, floor=floor))
        headers = ("component", "faults", "maxCC", "medCC", "maxCO",
                   "medCO", "med p(det)", "min p(det)", "<floor",
                   "unbounded")
        print(format_table(headers, [s.to_row() for s in summaries]))
        predicted = sum(s.n_below_floor for s in summaries)
        untestable = sum(s.n_unbounded for s in summaries)
        print(f"{len(summaries)} netlists: {predicted} predicted "
              f"random-resistant fault site(s) below floor {floor:.0e}, "
              f"{untestable} statically untestable candidate(s)")
        if args.json:
            counters = {}
            if session is not None and session.registry is not None:
                counters = {
                    k: v for k, v in
                    session.registry.snapshot()["counters"].items()
                    if k.startswith("analysis.testability.")
                }
            doc = {
                "schema": "repro.testability/1",
                "floor": floor,
                "seq_cost": seq_cost,
                "components": [s.to_json() for s in summaries],
                "counters": counters,
            }
            with open(args.json, "w", encoding="utf-8") as handle:
                _json.dump(doc, handle, indent=2)
                handle.write("\n")
            print(f"wrote testability report to {args.json}")
        if session is not None:
            rows = [
                (name, calls, f"{seconds:.3f}", f"{mean_ms:.2f}")
                for name, calls, seconds, mean_ms in
                session.profiler.rows()
                if name.startswith("analysis.")
            ]
            if rows:
                print(format_table(
                    ("section", "calls", "seconds", "mean ms"), rows))
        return 0
    finally:
        if session is not None:
            obs.disable()


def _cmd_export_verilog(args) -> int:
    from repro.dsp.gatelevel import make_gatelevel_core
    from repro.logic.export import to_verilog
    netlist = make_gatelevel_core()
    source = to_verilog(netlist, "dsp_core")
    with open(args.output, "w") as handle:
        handle.write(source)
    print(f"wrote {netlist.stats()} to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Self-test program generation for the embedded DSP "
                    "core (DATE 2004 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="print the Table 1 metrics")
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--good", type=int, default=30)
    p.set_defaults(func=_cmd_table1)

    def add_table_options(p_):
        p_.add_argument("--table", metavar="FILE",
                        help="load a previously saved metrics table")
        p_.add_argument("--save-table", metavar="FILE",
                        help="save the measured metrics table")

    def add_campaign_options(p_):
        p_.add_argument("--checkpoint", metavar="FILE",
                        help="JSONL checkpoint file for the fault-grading "
                             "campaign (written as units complete)")
        p_.add_argument("--resume", action="store_true",
                        help="skip units already recorded in --checkpoint")
        p_.add_argument("--unit-timeout", type=float, metavar="SECONDS",
                        help="wall-clock budget per grading unit (must "
                             "be positive); a unit that times out on "
                             "every retry is quarantined")
        p_.add_argument("--jobs", metavar="N",
                        help="worker processes for the campaign (an "
                             "integer or 'auto'; default: $REPRO_JOBS "
                             "or 1, the serial backend)")
        p_.add_argument("--max-units", type=int, metavar="N",
                        help="stop after N grading units (checkpoint "
                             "the rest for a later --resume)")
        p_.add_argument("--force", action="store_true",
                        help="resume even if the checkpoint fingerprint "
                             "does not match the campaign")

    p = sub.add_parser("metrics", help="print the Table 2 metrics")
    p.add_argument("--samples", type=int, default=150)
    p.add_argument("--good", type=int, default=8)
    p.add_argument("--columns", type=int, default=9,
                   help="columns to print (the table is wide)")
    add_table_options(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("generate",
                       help="generate and print the self-test program")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--good", type=int, default=6)
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--vectors", metavar="FILE",
                   help="also write the expanded vector file")
    add_table_options(p)
    p.set_defaults(func=_cmd_generate)

    def add_trace_options(p_):
        p_.add_argument("--trace", metavar="FILE",
                        help="write a JSONL span trace of the campaign "
                             "(schema repro.trace/1; includes every "
                             "worker process under --jobs)")
        p_.add_argument("--chrome", metavar="FILE",
                        help="also write a Chrome trace-event JSON "
                             "(load in chrome://tracing or Perfetto)")

    p = sub.add_parser("grade",
                       help="generate and fault-grade the self-test")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--good", type=int, default=6)
    p.add_argument("--iterations", type=int, default=100)
    add_table_options(p)
    add_campaign_options(p)
    add_trace_options(p)
    p.set_defaults(func=_cmd_grade)

    p = sub.add_parser("sweep",
                       help="run the self-test pipeline across a core-"
                            "family design space (landscape artifact)")
    p.add_argument("--sample", type=int, metavar="N",
                   help="sweep N randomly sampled design points "
                        "(default: the 4-point shifter x adder factorial)")
    p.add_argument("--samples", type=int, default=20,
                   help="controllability samples per variant per point")
    p.add_argument("--good", type=int, default=2,
                   help="observability good-machine runs per point")
    p.add_argument("--iterations", type=int, default=2,
                   help="program-loop expansions per point")
    p.add_argument("--seed", type=int, default=2004)
    p.add_argument("--out", default="sweep.json", metavar="FILE",
                   help="landscape artifact path (schema repro.sweep/2)")
    p.add_argument("--checkpoint-dir", metavar="DIR",
                   help="directory for per-point campaign checkpoints "
                        "and finished-point results (enables --resume)")
    p.add_argument("--resume", action="store_true",
                   help="reload finished points and resume interrupted "
                        "campaigns from --checkpoint-dir")
    p.add_argument("--unit-timeout", type=float, metavar="SECONDS")
    p.add_argument("--jobs", metavar="N",
                   help="worker processes per campaign")
    p.add_argument("--max-units", type=int, metavar="N",
                   help="stop the current point's campaign after N "
                        "units (checkpoint the rest)")
    add_trace_options(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("trace",
                       help="trace the metrics campaign or validate an "
                            "existing trace file (check)")
    p.add_argument("campaign", choices=("metrics", "check"),
                   help="campaign to trace, or 'check' to validate")
    p.add_argument("file", nargs="?",
                   help="trace file to validate (check only)")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--good", type=int, default=2)
    p.add_argument("--jobs", metavar="N",
                   help="worker processes (integer or 'auto')")
    p.add_argument("--trace", metavar="FILE", default="trace.jsonl",
                   help="JSONL trace output path (default trace.jsonl)")
    p.add_argument("--chrome", metavar="FILE",
                   help="also write a Chrome trace-event JSON")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("chaos",
                       help="seeded fault-injection soak of the campaign "
                            "runtime (exits nonzero on any invariant "
                            "violation)")
    p.add_argument("--seed", type=int, required=True,
                   help="master seed for the failure schedule (each "
                        "campaign derives its own)")
    p.add_argument("--campaigns", type=int, default=50, metavar="K",
                   help="chaos campaigns to run (default 50)")
    p.add_argument("--units", type=int, default=12, metavar="N",
                   help="work units per campaign (default 12)")
    p.add_argument("--inject",
                   default="kill,torn,io,hang,corrupt,truncate,duplicate",
                   metavar="CLASSES",
                   help="comma-separated failure classes, or 'all'")
    p.add_argument("--probability", type=float, default=0.25,
                   help="repeat-injection probability in [0, 1)")
    p.add_argument("--max-per-class", type=int, default=2, metavar="N",
                   help="injection budget per class per campaign")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes per chaos campaign")
    p.add_argument("--scratch", metavar="DIR",
                   help="scratch directory for chaos checkpoints "
                        "(default: a private temp dir, removed after)")
    p.add_argument("--report", metavar="FILE",
                   help="write the JSON soak report here")
    p.add_argument("--verbose", action="store_true",
                   help="print one line per campaign")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("constraints",
                       help="control-bit constraint study (Phase 3)")
    p.add_argument("--component", default="shifter")
    p.add_argument("--patterns", type=int, default=4096)
    p.set_defaults(func=_cmd_constraints)

    p = sub.add_parser("isa", help="print the opcode reference table")
    p.set_defaults(func=_cmd_isa)

    p = sub.add_parser("core-report",
                       help="structural report of the flat core")
    p.set_defaults(func=_cmd_core_report)

    p = sub.add_parser("lint",
                       help="static analysis of netlists and self-test "
                            "programs")
    from repro.lint.cli import add_lint_arguments
    add_lint_arguments(p)
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("testability",
                       help="static SCOAP/COP testability report over "
                            "the core and component netlists")
    p.add_argument("--target", choices=("core", "components", "all"),
                   default="all",
                   help="netlists to analyze (default all)")
    p.add_argument("--floor", type=float, default=None, metavar="P",
                   help="COP detection-probability floor below which a "
                        "fault site counts as predicted random-"
                        "resistant (default 1e-8, the NET010 floor)")
    p.add_argument("--seq-cost", type=float, default=None, metavar="N",
                   help="SCOAP cost of crossing one flip-flop boundary "
                        "(default 10)")
    p.add_argument("--json", metavar="FILE",
                   help="also write the per-component JSON report")
    p.add_argument("--profile", action="store_true",
                   help="print analysis.* profiler sections and emit "
                        "analysis.testability.* counters in the JSON "
                        "report")
    p.set_defaults(func=_cmd_testability)

    p = sub.add_parser("export-verilog",
                       help="write the flat core as structural Verilog")
    p.add_argument("--output", default="dsp_core.v")
    p.set_defaults(func=_cmd_export_verilog)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.harness.experiments import current_scale
    from repro.runtime.errors import ConfigError, ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        current_scale()  # fail fast on an invalid REPRO_SCALE
        if getattr(args, "resume", False) \
                and not getattr(args, "checkpoint", None) \
                and not getattr(args, "checkpoint_dir", None):
            raise ConfigError("--resume requires --checkpoint"
                              if hasattr(args, "checkpoint")
                              else "--resume requires --checkpoint-dir")
        # The controllability engine needs two samples to estimate.
        for option, floor in (("iterations", 1), ("columns", 1),
                              ("patterns", 1), ("sample", 1), ("samples", 2),
                              ("good", 1), ("campaigns", 1), ("units", 1)):
            value = getattr(args, option, None)
            if value is not None and value < floor:
                raise ConfigError(
                    f"--{option} must be at least {floor}, got {value}")
        if getattr(args, "jobs", None) is not None:
            from repro.runtime.pool import resolve_jobs
            resolve_jobs(args.jobs)  # fail fast on a bad --jobs value
        if hasattr(args, "unit_timeout"):
            # Fail fast on settings the runner would reject after the
            # metrics warm-up.
            from repro.runtime.runner import check_settings
            check_settings(getattr(args, "checkpoint", None),
                           args.unit_timeout)
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
