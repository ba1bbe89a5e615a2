"""Static analysis over netlists and self-test programs.

The linter turns the pipeline's structural assumptions into
machine-checked invariants, organised as a flat registry of rules across
two domains (see :mod:`repro.lint.findings` for the registry model):

* **netlist** (``NET*``, :mod:`repro.lint.netlist_rules`) — multi-driven
  nets, dead logic, provably-constant nets, uninitialised-state
  propagation, floating buses, fanout/depth outliers;
* **program** (``PRG*``/``ISA*``, :mod:`repro.lint.program_rules` and
  :mod:`repro.lint.modes`) — accumulator-state assumptions vs actual
  dataflow, dead stores, unreachable-mode covers claims, loop
  observability, and the static cross-check of Phase 2's dynamic
  unreachable-column discard.

Campaign settings are not linted: the campaign runner rejects the bad
ones itself when it is built (:func:`repro.runtime.runner.check_settings`).

Run it as ``python -m repro lint`` (see :mod:`repro.lint.cli`), or
in-process::

    from repro.lint import lint_netlist
    report = lint_netlist(netlist)
    assert not report.errors, report.render()

Campaign adapters screen their netlists automatically (warn-only, ERROR
rules only) when they construct fault universes.
"""

# Importing the rule modules registers every rule; the registry is what
# the CLI, the catalog and baseline tooling operate on.
from repro.lint.findings import (
    DOMAINS,
    REGISTRY,
    Finding,
    LintReport,
    Rule,
    Severity,
    finding,
    rule,
    rule_catalog,
    run_rules,
)
from repro.lint.modes import (
    MODE_EXTRACTORS,
    component_mode,
    lint_isa,
    lint_table,
    mode_reachability_crosscheck,
    static_mode_reachability,
    static_unreachable_columns,
)
from repro.lint.netlist_rules import LintWarning, lint_netlist, warn_on_netlist
from repro.lint.program_rules import lint_program

__all__ = [
    "DOMAINS",
    "REGISTRY",
    "Finding",
    "LintReport",
    "LintWarning",
    "MODE_EXTRACTORS",
    "Rule",
    "Severity",
    "component_mode",
    "finding",
    "lint_isa",
    "lint_netlist",
    "lint_program",
    "lint_table",
    "mode_reachability_crosscheck",
    "rule",
    "rule_catalog",
    "run_rules",
    "static_mode_reachability",
    "static_unreachable_columns",
    "warn_on_netlist",
]
