"""Shared fixtures and the acceptance-summary reporter.

The three reference scenarios (k, beta) = (1, 1), (2, -1), (4, 1) with
a = 0.1 and g = 9.8 recur throughout the suite; the first two bound the
vertical motion (case 1), the third blows up (case 2).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import deepwave
from deepwave import WaveParams

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# (label, WaveParams kwargs, beta)
SCENARIOS = (
    ("k1", dict(k=1.0, a=0.1, g=9.8), 1.0),
    ("k2", dict(k=2.0, a=0.1, g=9.8), -1.0),
    ("k4", dict(k=4.0, a=0.1, g=9.8), 1.0),
)


@pytest.fixture(scope="session")
def scenario_k1() -> tuple[WaveParams, float]:
    return WaveParams(**SCENARIOS[0][1]), SCENARIOS[0][2]


@pytest.fixture(scope="session")
def scenario_k2() -> tuple[WaveParams, float]:
    return WaveParams(**SCENARIOS[1][1]), SCENARIOS[1][2]


@pytest.fixture(scope="session")
def scenario_k4() -> tuple[WaveParams, float]:
    return WaveParams(**SCENARIOS[2][1]), SCENARIOS[2][2]


@pytest.fixture(scope="session")
def all_scenarios() -> tuple[tuple[str, WaveParams, float], ...]:
    return tuple(
        (label, WaveParams(**kwargs), beta) for label, kwargs, beta in SCENARIOS
    )


def cli_env() -> dict[str, str]:
    """Environment for `python -m deepwave` child processes.

    Puts the directory holding the deepwave package this test process
    imported first on PYTHONPATH, so a child runs the same code whether
    or not the caller set PYTHONPATH.
    """
    env = dict(os.environ)
    root = str(Path(deepwave.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p
    )
    return env


# Acceptance-criterion results registered by tests/test_acceptance.py.
# Each entry: (criterion number, label, passed, one-line detail).
ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def record_acceptance(number: int, label: str, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((number, label, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, passed, detail in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{verdict}] criterion {number} {label}: {detail}")
