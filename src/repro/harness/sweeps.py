"""Design-space sweeps over the DSP core family.

The paper evaluates its self-test method on a single core.  With the
core family (:mod:`repro.dsp.family`) the whole pipeline — lint,
metrics table, Phase 1/2 selection, program assembly, vector expansion
and hierarchical fault grading — runs per *design point*, and this
module drives it across many points, producing a coverage /
test-length / area landscape artifact (schema ``repro.sweep/2``).

Execution model: every point's metrics measurement and fault grading
run through the resilient :class:`~repro.runtime.runner.CampaignRunner`
(per-point checkpoint files under the sweep's checkpoint directory, so
``--jobs`` pooling, unit timeouts and ``--resume`` all apply), and each
finished point is persisted as ``<label>.result.json`` — interrupting a
sweep anywhere loses at most the current point's in-flight units.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.dsp.family import (
    CoreBuild,
    CoreSpec,
    N_REGISTERS_CHOICES,
    OPERAND_WIDTH_CHOICES,
    PIPELINE_DEPTH_CHOICES,
    SHIFTER_STYLES,
)
from repro.rtl.arith import ADDER_STYLES
from repro.runtime.errors import ConfigError

SWEEP_SCHEMA = "repro.sweep/2"

#: Fields every point record must carry (artifact contract, checked by
#: :func:`validate_sweep_doc` and the CI schema gate).
_POINT_KEYS = (
    "spec", "label", "area", "n_columns", "n_covered_columns",
    "phase1_instructions", "phase2_sequences", "still_uncovered",
    "program_length", "n_vectors", "signature", "n_faults", "n_detected",
    "fault_coverage", "lint_errors", "campaign",
)


def default_acc_width(operand_width: int) -> int:
    """The family's natural accumulator width: product plus guard bits
    (18 for the paper's 8-bit operands)."""
    return 2 * operand_width + 2


# ----------------------------------------------------------------------
# Design-point enumeration
# ----------------------------------------------------------------------
def factorial_specs(axes: Dict[str, Sequence[Any]]) -> List[CoreSpec]:
    """The full factorial over ``axes`` (CoreSpec field -> values).

    Unlisted fields take their paper defaults; ``acc_width`` follows the
    operand width (:func:`default_acc_width`) unless swept explicitly.
    Illegal combinations raise :class:`ConfigError` — a sweep definition
    naming an unbuildable point is a configuration bug, not data.
    """
    for name in axes:
        if name not in CoreSpec.__dataclass_fields__:
            raise ConfigError(f"unknown CoreSpec axis {name!r}")
    names = list(axes)
    specs: List[CoreSpec] = []
    for values in itertools.product(*(axes[n] for n in names)):
        kwargs = dict(zip(names, values))
        if "acc_width" not in kwargs:
            width = kwargs.get("operand_width", 8)
            kwargs["acc_width"] = 18 if width == 8 \
                else default_acc_width(width)
        specs.append(CoreSpec(**kwargs).validate())
    return specs


def sampled_specs(n: int, seed: int = 2004) -> List[CoreSpec]:
    """``n`` distinct legal design points drawn uniformly per axis."""
    rng = random.Random(seed)
    seen = set()
    specs: List[CoreSpec] = []
    attempts = 0
    while len(specs) < n and attempts < 200 * max(1, n):
        attempts += 1
        width = rng.choice(OPERAND_WIDTH_CHOICES)
        lo = default_acc_width(width)
        spec = CoreSpec(
            n_registers=rng.choice(N_REGISTERS_CHOICES),
            operand_width=width,
            acc_width=rng.randrange(lo, min(32, lo + 6) + 1),
            pipeline_depth=rng.choice(PIPELINE_DEPTH_CHOICES),
            shifter=rng.choice(SHIFTER_STYLES),
            adder=rng.choice(ADDER_STYLES),
            has_truncater=rng.random() < 0.8,
            has_limiter=rng.random() < 0.8,
        )
        if spec in seen:
            continue
        seen.add(spec)
        specs.append(spec.validate())
    if len(specs) < n:
        raise ConfigError(f"could not sample {n} distinct design points")
    return specs


def quick_factorial() -> List[CoreSpec]:
    """The 4-point CI sweep: shifter × adder at a small configuration."""
    return factorial_specs({
        "n_registers": [8],
        "operand_width": [4],
        "pipeline_depth": [4],
        "shifter": list(SHIFTER_STYLES),
        "adder": list(ADDER_STYLES),
    })


# ----------------------------------------------------------------------
# Sweep configuration
# ----------------------------------------------------------------------
@dataclass
class SweepConfig:
    """Everything one design-space sweep needs."""

    specs: List[CoreSpec]
    n_controllability_samples: int = 20
    n_observability_good: int = 2
    seed: int = 2004
    n_iterations: int = 2          # program-loop expansions per point
    storage_fault_max_cycles: Optional[int] = 160
    block_size: int = 64
    propagation_window: int = 24

    def __post_init__(self):
        if not self.specs:
            raise ConfigError("sweep needs at least one design point")
        labels = [s.label() for s in self.specs]
        if len(set(labels)) != len(labels):
            raise ConfigError("duplicate design points in sweep")


# ----------------------------------------------------------------------
# Per-point pipeline
# ----------------------------------------------------------------------
def _point_paths(checkpoint_dir: Optional[str], label: str):
    if checkpoint_dir is None:
        return None, None, None
    os.makedirs(checkpoint_dir, exist_ok=True)
    base = os.path.join(checkpoint_dir, label)
    return (f"{base}.metrics.jsonl", f"{base}.grade.jsonl",
            f"{base}.result.json")


def sweep_point(spec: CoreSpec, config: SweepConfig,
                checkpoint_dir: Optional[str] = None,
                jobs: Optional[int] = None,
                unit_timeout: Optional[float] = None,
                resume: bool = False,
                max_units: Optional[int] = None) -> Dict[str, Any]:
    """Run the full pipeline on one design point.

    Returns the point record, or an ``{"interrupted": True, ...}`` stub
    when a campaign hit ``max_units`` (resume the sweep to finish it).
    """
    from repro.lint.netlist_rules import lint_netlist
    from repro.lint.findings import Severity
    from repro.runtime.campaigns import (
        HierarchicalCampaign,
        MetricsCampaign,
    )
    from repro.faults.hierarchical import (
        DspFaultUniverse,
        HierarchicalFaultSimulator,
    )
    from repro.selftest.phase1 import run_phase1
    from repro.selftest.phase2 import run_phase2
    from repro.selftest.vectors import expand_program, run_with_misr

    build = CoreBuild.get(spec)
    label = spec.label()
    metrics_ckpt, grade_ckpt, _ = _point_paths(checkpoint_dir, label)

    # Structural lint over the swept core (error findings only — the
    # paper core itself carries benign warning-level tie-offs).
    report = lint_netlist(build.netlist, min_severity=Severity.ERROR)
    lint_errors = len(report.findings)

    metrics = MetricsCampaign(
        n_controllability_samples=config.n_controllability_samples,
        n_observability_good=config.n_observability_good,
        seed=config.seed, build=build,
        checkpoint=metrics_ckpt, jobs=jobs, unit_timeout=unit_timeout,
    )
    m_outcome = metrics.run(resume=resume, max_units=max_units)
    if m_outcome.report.interrupted:
        return {"label": label, "interrupted": True, "stage": "metrics"}
    table = m_outcome.result

    phase1 = run_phase1(table)
    phase2 = run_phase2(table, phase1, build=build)
    from repro.selftest.generator import assemble_program
    program = assemble_program(table, phase1, phase2, build=build)
    words = expand_program(program, config.n_iterations)
    golden = run_with_misr(words, build=build)

    universe = DspFaultUniverse(build=build)
    sim = HierarchicalFaultSimulator(
        universe=universe, block_size=config.block_size,
        propagation_window=config.propagation_window,
    )
    grading = HierarchicalCampaign(
        words, simulator=sim,
        storage_fault_max_cycles=config.storage_fault_max_cycles,
        checkpoint=grade_ckpt, jobs=jobs, unit_timeout=unit_timeout,
    )
    g_outcome = grading.run(resume=resume, max_units=max_units)
    if g_outcome.report.interrupted:
        return {"label": label, "interrupted": True, "stage": "grade"}
    coverage = g_outcome.result.coverage_report(label)

    covered = sum(
        1 for column in table.columns
        if any(table.is_covered(row, column) for row in table.rows)
    )
    record = {
        "spec": spec.to_doc(),
        "label": label,
        "area": build.area,
        "n_columns": len(table.columns),
        "n_covered_columns": covered,
        "phase1_instructions": len(phase1.selections),
        "phase2_sequences": len(phase2.sequences),
        "still_uncovered": len(phase2.still_uncovered),
        "program_length": len(program.loop_lines),
        "n_vectors": golden.n_vectors,
        "signature": golden.signature,
        "n_faults": coverage.n_faults,
        "n_detected": coverage.n_detected,
        "fault_coverage": round(
            coverage.n_detected / coverage.n_faults, 4)
        if coverage.n_faults else 0.0,
        "lint_errors": lint_errors,
        "campaign": {
            "metrics": m_outcome.report.counts(),
            "grade": g_outcome.report.counts(),
        },
    }
    return record


# ----------------------------------------------------------------------
# The sweep driver
# ----------------------------------------------------------------------
def run_sweep(config: SweepConfig,
              checkpoint_dir: Optional[str] = None,
              jobs: Optional[int] = None,
              unit_timeout: Optional[float] = None,
              resume: bool = False,
              max_units: Optional[int] = None,
              progress: Optional[Callable[[str, Dict], None]] = None
              ) -> Dict[str, Any]:
    """Run every design point and assemble the landscape artifact.

    Finished points persist as ``<label>.result.json`` under
    ``checkpoint_dir``; with ``resume`` they are loaded instead of
    re-run, and an interrupted point's campaign checkpoints pick up
    where they left off.
    """
    from repro.harness.experiments import current_scale

    points: List[Dict[str, Any]] = []
    interrupted = False
    for spec in config.specs:
        label = spec.label()
        _, _, result_path = _point_paths(checkpoint_dir, label)
        if resume and result_path and os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as handle:
                record = json.load(handle)
        else:
            record = sweep_point(
                spec, config, checkpoint_dir=checkpoint_dir,
                jobs=jobs, unit_timeout=unit_timeout, resume=resume,
                max_units=max_units,
            )
            if record.get("interrupted"):
                interrupted = True
                if progress is not None:
                    progress(label, record)
                break
            if result_path:
                with open(result_path, "w", encoding="utf-8") as handle:
                    json.dump(record, handle, indent=2, sort_keys=True)
                    handle.write("\n")
        points.append(record)
        if progress is not None:
            progress(label, record)

    doc = {
        "schema": SWEEP_SCHEMA,
        "context": {
            "scale": current_scale(),
            "seed": config.seed,
            "n_iterations": config.n_iterations,
            "n_controllability_samples": config.n_controllability_samples,
            "n_observability_good": config.n_observability_good,
        },
        "n_points": len(config.specs),
        "interrupted": interrupted,
        "points": points,
    }
    errors = validate_sweep_doc(doc)
    if errors:
        raise ConfigError("sweep artifact failed validation: "
                          + "; ".join(errors))
    return doc


def record_sweep(doc: Dict[str, Any]) -> None:
    """One EXPERIMENTS registry row summarising the landscape."""
    from repro.harness.experiments import ExperimentResult, REGISTRY
    points = doc["points"]
    if not points:
        return
    coverages = [p["fault_coverage"] for p in points]
    areas = [p["area"] for p in points]
    REGISTRY.record(ExperimentResult(
        experiment_id="S1",
        description="core-family design-space sweep",
        paper_value="single core (Table 3)",
        measured_value=(
            f"{len(points)} points; coverage "
            f"{min(coverages):.2%}-{max(coverages):.2%}, "
            f"area {min(areas)}-{max(areas)}"
        ),
    ))


# ----------------------------------------------------------------------
# Artifact validation (CI schema gate)
# ----------------------------------------------------------------------
def validate_sweep_doc(doc: Dict[str, Any]) -> List[str]:
    """Structural check of a ``repro.sweep/2`` document.

    Returns a list of violations (empty = valid).
    """
    errors: List[str] = []
    if doc.get("schema") != SWEEP_SCHEMA:
        errors.append(f"schema must be {SWEEP_SCHEMA!r}, "
                      f"got {doc.get('schema')!r}")
    if not isinstance(doc.get("context"), dict):
        errors.append("missing context object")
    if not isinstance(doc.get("points"), list):
        errors.append("missing points list")
        return errors
    if not doc.get("interrupted") \
            and len(doc["points"]) != doc.get("n_points"):
        errors.append(
            f"n_points={doc.get('n_points')} but "
            f"{len(doc['points'])} point records in a finished sweep")
    labels = set()
    for i, point in enumerate(doc["points"]):
        where = f"points[{i}]"
        missing = [k for k in _POINT_KEYS if k not in point]
        if missing:
            errors.append(f"{where} missing keys: {', '.join(missing)}")
            continue
        try:
            CoreSpec.from_doc(point["spec"])
        except (ConfigError, TypeError) as exc:
            errors.append(f"{where} spec does not validate: {exc}")
        if point["label"] in labels:
            errors.append(f"{where} duplicate label {point['label']!r}")
        labels.add(point["label"])
        if not 0.0 <= point["fault_coverage"] <= 1.0:
            errors.append(f"{where} fault_coverage out of [0, 1]")
        if point["n_detected"] > point["n_faults"]:
            errors.append(f"{where} detects more faults than exist")
        if point["lint_errors"]:
            errors.append(f"{where} swept core has lint errors")
    return errors
