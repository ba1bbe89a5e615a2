"""The ``repro lint`` subcommand.

Targets are positional and mix freely:

* ``core`` — the flat gate-level DSP core netlist;
* ``components`` — every component's standalone gate netlist;
* ``isa`` — static mode reachability of the instruction set;
* ``program`` — generate the self-test program (Phases 1–2) and lint it,
  plus the static/dynamic mode-reachability cross-check on its table;
* ``<file>.json`` — a netlist / program artifact
  (see :mod:`repro.lint.artifacts`).

The default target set (``core components isa``) is cheap and
deterministic — it is what the CI smoke step runs.

Exit codes: 0 clean (after baseline suppression), 1 findings at error
severity (or warning severity under ``--strict``), 2 configuration
errors (bad target, unreadable artifact — raised as
:class:`~repro.runtime.errors.ConfigError` and mapped by ``main()``).
"""

from __future__ import annotations

import json
from typing import List

from repro.lint.findings import LintReport, Severity, rule_catalog
from repro.runtime.errors import ConfigError

DEFAULT_TARGETS = ("core", "components", "isa")
BUILTIN_TARGETS = ("core", "components", "isa", "program")


def add_lint_arguments(parser) -> None:
    """Attach the lint options to an argparse subparser."""
    parser.add_argument(
        "targets", nargs="*", metavar="TARGET",
        help="builtin targets (%s) and/or JSON artifact files; "
             "default: %s" % (", ".join(BUILTIN_TARGETS),
                              " ".join(DEFAULT_TARGETS)),
    )
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable findings on stdout")
    parser.add_argument("--baseline", metavar="FILE",
                        help="suppress the finding keys recorded in FILE")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="record the current findings as accepted "
                             "and exit 0")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings too")
    parser.add_argument("--min-severity", default="info",
                        choices=["info", "warning", "error"],
                        help="drop findings below this severity")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--table", metavar="FILE",
                        help="also cross-check a saved metrics table "
                             "against static mode reachability")
    parser.add_argument("--samples", type=int, default=60,
                        help="controllability samples for the 'program' "
                             "target's table")
    parser.add_argument("--good", type=int, default=4,
                        help="observability good machines for the "
                             "'program' target's table")


def _lint_target(target: str, args) -> LintReport:
    from repro.lint.netlist_rules import lint_netlist
    min_severity = Severity.parse(args.min_severity)
    if target == "core":
        from repro.dsp.gatelevel import make_gatelevel_core
        return lint_netlist(make_gatelevel_core(), min_severity)
    if target == "components":
        from repro.dsp.components import COMPONENTS
        report = LintReport()
        for spec in COMPONENTS:
            if spec.factory is not None:
                report.merge(lint_netlist(spec.netlist(), min_severity))
        return report
    if target == "isa":
        from repro.lint.modes import lint_isa
        return lint_isa(min_severity)
    if target == "program":
        from repro.lint.modes import lint_table
        from repro.lint.program_rules import lint_program
        from repro.selftest.generator import SelfTestGenerator
        selftest = SelfTestGenerator().generate(
            n_controllability_samples=args.samples,
            n_observability_good=args.good,
        )
        report = lint_program(selftest.program, min_severity)
        report.merge(lint_table(selftest.table, min_severity))
        return report
    if target.endswith(".json"):
        return _lint_artifact(target, min_severity)
    raise ConfigError(
        f"unknown lint target {target!r}: expected one of "
        f"{', '.join(BUILTIN_TARGETS)} or a .json artifact path"
    )


def _lint_artifact(path: str, min_severity: Severity) -> LintReport:
    from repro.lint.artifacts import load_artifact
    from repro.lint.netlist_rules import lint_netlist
    from repro.lint.program_rules import lint_program
    from repro.logic.netlist import Netlist

    subject = load_artifact(path)
    if isinstance(subject, Netlist):
        return lint_netlist(subject, min_severity)
    return lint_program(subject, min_severity)


def run_lint(args) -> int:
    """Execute ``repro lint`` with parsed arguments; returns the exit code."""
    if args.list_rules:
        # Import for the registration side effect: the catalog renders
        # whatever is registered.
        import repro.lint.modes  # noqa: F401
        import repro.lint.netlist_rules  # noqa: F401
        import repro.lint.program_rules  # noqa: F401
        print(rule_catalog())
        return 0

    targets: List[str] = list(args.targets) or list(DEFAULT_TARGETS)
    report = LintReport()
    for target in targets:
        report.merge(_lint_target(target, args))
    if args.table:
        from repro.lint.modes import lint_table
        from repro.metrics.io import load_table
        report.merge(lint_table(load_table(args.table),
                                Severity.parse(args.min_severity)))

    if args.baseline:
        from repro.lint.baseline import load_baseline
        report.apply_baseline(load_baseline(args.baseline))

    if args.write_baseline:
        from repro.lint.baseline import baseline_from_report
        n = baseline_from_report(args.write_baseline, report)
        print(f"recorded {n} accepted finding(s) in {args.write_baseline}")
        return 0

    if args.as_json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return report.exit_code(strict=args.strict)
