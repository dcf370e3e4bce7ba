"""Shared test configuration: hypothesis profile, cold caches and the acceptance summary."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, settings

# The CLI tests run ``python -m psicert`` in subprocesses; they must import
# the same sources as this process, which pytest's ``pythonpath`` setting
# only puts on this process's ``sys.path``.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH")))
)

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    # The explain phase runs after a failing example has shrunk and imports
    # libcst to annotate it: seconds per failing test, and no verdict changes.
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
settings.load_profile("default")



def clear_psicert_caches() -> None:
    """Empty every memo psicert keeps, so that the next call runs cold.

    That is every ``functools`` cache found on an attribute of a loaded
    ``psicert`` module, psi's coefficients among them, and the Bernoulli
    table of :mod:`psicert.series`.
    """
    for name, module in list(sys.modules.items()):
        if name == "psicert" or name.startswith("psicert."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    from psicert import series

    series._BERNOULLI = series.BernoulliTable()


@pytest.fixture
def cold_caches():
    """:func:`clear_psicert_caches`, for a test that must start a run cold."""
    return clear_psicert_caches


ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log() -> list[str]:
    """Collector for one PASS/FAIL line per acceptance criterion."""
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):  # noqa: ARG001
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
