"""Static control-bit mode reachability.

Phase 2 discards metrics-table columns *dynamically*: a column is
unreachable when no instruction's trace produced a cell for it
(:func:`repro.selftest.phase2.unreachable_columns`).  This module derives
the same answer *statically*, straight from the decoder truth table: each
multi-mode component's mode is a fixed function of the decoded
:class:`~repro.dsp.isa.ControlWord`, so the reachable mode set of a
component is simply the image of that function over all opcodes.

The two answers must agree on the paper core — the cross-check
(:func:`mode_reachability_crosscheck`) is both a lint rule input and a
regression test, and catches either a datapath hook site's mode drifting
away from the decoder or a metrics run that silently lost rows.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Set,
    Tuple,
)

from repro.dsp.components import component_by_name
from repro.dsp.family import PAPER_BUILD, CoreBuild
from repro.dsp.isa import ControlWord, Opcode
from repro.lint.findings import (
    Finding,
    LintReport,
    Severity,
    finding,
    rule,
    run_rules,
)

Column = Tuple[str, int]

#: How each multi-mode component's trace mode is computed from the decoded
#: control word.  Mirrors the ``mode`` each hook site passes to
#: :func:`repro.dsp.mac.apply_hooks` in
#: :meth:`repro.dsp.mac.MacDatapath.evaluate` and
#: :meth:`repro.dsp.core.DspCore.step`; single-mode components always
#: report mode 0 and need no entry.
MODE_EXTRACTORS: Dict[str, Callable[[ControlWord], int]] = {
    "muxa": lambda cw: cw.muxa_zero,
    "muxb": lambda cw: cw.muxb_shift,
    "shifter": lambda cw: cw.shmode,
    "addsub": lambda cw: cw.sub,
    "truncater": lambda cw: cw.trunc,
    "muxg_shifter": lambda cw: cw.accsel,
    "muxg_limiter": lambda cw: cw.accsel,
    "mux7": lambda cw: cw.mux7_buffer,
}


def component_mode(component: str, cw: ControlWord) -> int:
    """The metrics-table mode ``component`` runs in under ``cw``."""
    extractor = MODE_EXTRACTORS.get(component)
    return extractor(cw) if extractor is not None else 0


def static_mode_reachability(
    build: CoreBuild = PAPER_BUILD,
) -> Dict[str, FrozenSet[int]]:
    """component name -> set of modes some opcode decodes to.

    ``build`` picks the family point whose component registry and decoder
    are analysed (a family point without a truncater, say, never reaches
    the "trunc" mode because the builder clears the control bit).
    """
    components = build.components
    reachable: Dict[str, Set[int]] = {spec.name: set() for spec in components}
    words = [build.control_word(op) for op in Opcode]
    for spec in components:
        for cw in words:
            reachable[spec.name].add(component_mode(spec.name, cw))
    return {name: frozenset(modes) for name, modes in reachable.items()}


def static_unreachable_columns(
    columns: Iterable[Column] = (),
    build: CoreBuild = PAPER_BUILD,
) -> List[Column]:
    """Columns whose mode no opcode can decode to.

    ``columns`` defaults to the full metrics-table column set.  On the
    paper core this is exactly the shifter's "10"/"11" columns — the modes
    the paper's §2.4 eliminates by hand.
    """
    column_list = list(columns) or build.all_columns(metrics_only=True)
    reachable = static_mode_reachability(build=build)
    return [
        (name, mode) for name, mode in column_list
        if mode not in reachable.get(name, frozenset())
    ]


def mode_reachability_crosscheck(
    table: Any,
    build: CoreBuild = PAPER_BUILD,
) -> Tuple[List[Column], List[Column]]:
    """Compare static vs dynamic unreachability on one metrics table.

    Returns ``(dynamic_only, static_only)``:

    * ``dynamic_only`` — columns the simulated traces never exercised even
      though some opcode statically selects the mode (a datapath hook-site
      bug, or a metrics run missing rows);
    * ``static_only`` — columns the traces claim to exercise although no
      opcode decodes to the mode (a mode-extractor / decoder mismatch).

    Both empty ⇔ Phase 2's dynamic discard and the static rule agree.
    """
    from repro.selftest.phase2 import unreachable_columns

    dynamic = set(unreachable_columns(table))
    static = set(static_unreachable_columns(table.columns, build=build))
    dynamic_only = sorted(dynamic - static)
    static_only = sorted(static - dynamic)
    return dynamic_only, static_only


# ----------------------------------------------------------------------
# Registry-visible rules (ISA / metrics-table subjects)
# ----------------------------------------------------------------------
@rule("ISA000", "program", Severity.INFO,
      "column is statically unreachable: no opcode selects its mode",
      subject="isa")
def check_static_unreachable(_subject: object = None) -> Iterator[Finding]:
    for name, mode in static_unreachable_columns():
        label = component_by_name(name).mode_label(mode)
        yield finding(
            "ISA000", f"isa:{name}:{mode}",
            f"no opcode's control bits select {name} mode {mode} "
            f"({label!r})",
            hint="Phase 2 discards this column; the paper eliminates the "
                 "shifter's \"10\"/\"11\" columns the same way",
        )


@rule("ISA001", "program", Severity.ERROR,
      "static and dynamic mode reachability disagree",
      subject="table")
def check_table_crosscheck(table) -> Iterator[Finding]:
    dynamic_only, static_only = mode_reachability_crosscheck(table)
    for name, mode in dynamic_only:
        yield finding(
            "ISA001", f"table:{name}:{mode}",
            f"some opcode decodes {name} into mode {mode}, but no "
            "simulated trace ever exercised the column",
            hint="a datapath hook site's mode drifted away from the decoder "
                 "truth table, or the metrics run is missing rows",
        )
    for name, mode in static_only:
        yield finding(
            "ISA001", f"table:{name}:{mode}",
            f"traces claim to exercise {name} mode {mode}, but no "
            "opcode's control bits select it",
            hint="the trace mode computation disagrees with "
                 "control_word(); fix MODE_EXTRACTORS or the hook site's mode",
        )


def lint_isa(min_severity: Severity = Severity.INFO) -> LintReport:
    """Run the ISA-subject rules (static mode reachability)."""
    return run_rules("isa", None, min_severity)


def lint_table(table, min_severity: Severity = Severity.INFO) -> LintReport:
    """Run the metrics-table-subject rules (the static/dynamic cross-check)."""
    return run_rules("table", table, min_severity)
