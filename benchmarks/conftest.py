"""Shared fixtures for the per-artefact benchmark suite.

Workload sizes follow ``REPRO_SCALE`` (quick / default / full); see
``repro.harness.experiments.scaled``.  The session summary prints the
paper-vs-measured table collected in the experiment registry — the same
table EXPERIMENTS.md records.
"""

import pytest

from repro.harness.experiments import REGISTRY, scaled
from repro.metrics.table import build_metrics_table
from repro.selftest.generator import SelfTestGenerator


@pytest.fixture(scope="session")
def metrics_table():
    """The Table 2 metrics table at the active scale."""
    return build_metrics_table(
        n_controllability_samples=scaled(40, 150, 400),
        n_observability_good=scaled(2, 8, 16),
    )


@pytest.fixture(scope="session")
def selftest(metrics_table):
    """The generated self-test program (phases 1-2) at the active scale."""
    return SelfTestGenerator(table=metrics_table).generate()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not REGISTRY.results:
        return
    terminalreporter.write_sep("=", "paper vs measured (experiment registry)")
    terminalreporter.write_line(REGISTRY.markdown_table())
