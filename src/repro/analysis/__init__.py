"""Static structural analyses over gate-level netlists.

The first resident is :mod:`repro.analysis.testability` — SCOAP
controllability/observability and COP detection probabilities — which
feeds the NET008–NET011 lint rules and the ``repro testability`` CLI
report.
"""

from repro.analysis.testability import (
    UNBOUNDED,
    FaultScore,
    NetlistTestabilitySummary,
    TestabilityAnalysis,
    analyze_testability,
    rank_correlation,
    summarize_testability,
)

__all__ = [
    "UNBOUNDED",
    "FaultScore",
    "NetlistTestabilitySummary",
    "TestabilityAnalysis",
    "analyze_testability",
    "rank_correlation",
    "summarize_testability",
]
