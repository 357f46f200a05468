"""The self-check battery must pass on healthy scenarios, degrade to FAIL
results (not exceptions) on broken ones, and print deterministically.

The stagnation oracle's enclosure search is checked at a near tangency,
an exact zero, an underflowing amplitude and an empty window, and
against a solver that drops or moves a level; the battery's memory is
checked against a bound."""

from __future__ import annotations

import math
import random
import time
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from deepwave import validation
from deepwave.cubic_analysis import Case1Reduction, build_cubic, classify_roots
from deepwave.errors import DegenerateRootsError, EmptyReportError
from deepwave.ode_oracle import IntegratorConfig, integrate_full, integrate_moving_frame
from deepwave.stagnation import solve_stagnation
from deepwave.validation import (
    _FRAME_STEPS_PER_PERIOD,
    _LAUNCH,
    CheckResult,
    _check_frame_equivalence,
    _check_stagnation_oracle,
    _enclose_stagnation,
    _rounded_g,
    run_battery,
)
from deepwave.wave_field import WaveParams

EXPECTED_NAMES = [
    "dispersion",
    "elliptic-identities",
    "classification",
    "closed-form-vs-oracle",
    "drift",
    "frame-equivalence",
    "stagnation-oracle",
    "untruncated-residual",
    "rk4-convergence",
    "peakon-residual",
    "corrupted-beta-guard",
]


def test_battery_passes_on_reference_scenarios(all_scenarios):
    for label, params, beta in all_scenarios:
        results = run_battery(params, beta)
        assert [r.name for r in results] == EXPECTED_NAMES
        failed = [r for r in results if not r.passed]
        assert not failed, f"{label}: {[(r.name, r.detail) for r in failed]}"


def test_every_result_carries_a_detail(scenario_k1):
    params, beta = scenario_k1
    for res in run_battery(params, beta):
        assert isinstance(res, CheckResult)
        assert res.detail.strip()
        assert "\n" not in res.detail  # one report line per check


def test_battery_report_is_deterministic(scenario_k2):
    params, beta = scenario_k2
    first = run_battery(params, beta)
    second = run_battery(params, beta)
    assert first == second


def test_degenerate_scenario_fails_without_raising(scenario_k1):
    params, _ = scenario_k1
    beta = _degenerate_beta(params, 33.0, 34.0)
    results = run_battery(params, beta)
    assert [r.name for r in results] == EXPECTED_NAMES
    failed = [r for r in results if not r.passed]
    assert failed
    assert any("DegenerateRootsError" in r.detail for r in failed)
    # checks that never touch the cubic still pass
    by_name = {r.name: r for r in results}
    assert by_name["dispersion"].passed
    assert by_name["elliptic-identities"].passed


def _degenerate_beta(params: WaveParams, lo: float, hi: float) -> float:
    def tag_is_case1(b: float) -> bool:
        return isinstance(classify_roots(build_cubic(params, b)), Case1Reduction)

    assert tag_is_case1(lo) and not tag_is_case1(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        try:
            if tag_is_case1(mid):
                lo = mid
            else:
                hi = mid
        except DegenerateRootsError:
            return mid
    pytest.fail("no degenerate discriminant window between the two cases")


def test_battery_memory_is_bounded(scenario_k4):
    """The battery holds no 10^6-point scan and no boxed oracle knots
    (32 MB traced with both, 2.6 MB with a chunked scan)."""
    params, beta = scenario_k4
    run_battery(params, beta)  # build the cached quadrature rule first
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        results = run_battery(params, beta)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak <= 2e6, f"peak {peak / 1e6:.2f} MB"


# The reference scenarios and a wave travelling the other way.
FRAME_SCENARIOS = [
    (dict(k=1.0, a=0.1, g=9.8), 1.0),
    (dict(k=2.0, a=0.1, g=9.8), -1.0),
    (dict(k=4.0, a=0.1, g=9.8), 1.0),
    (dict(k=1.0, a=0.1, g=9.8, direction=-1), 1.0),
]


@pytest.mark.parametrize("kwargs, beta", FRAME_SCENARIOS)
def test_frame_gap_is_rounding_at_the_checks_step_count(kwargs, beta):
    """The frame map commutes with RK4 steps, so at the check's coarse
    step the gap is rounding, far below its 1e-8 bound."""
    params = WaveParams(**kwargs)
    X0, Z0 = _LAUNCH
    cfg = IntegratorConfig.for_wave(
        params, 0.0, 10.0 * params.wave_period,
        steps_per_period=_FRAME_STEPS_PER_PERIOD,
    )
    full = integrate_full(params, X0 / params.k, Z0 / params.k, cfg)
    frame = integrate_moving_frame(params, X0, Z0, cfg)
    assert np.max(np.abs(full.X - frame.X)) <= 1e-10
    assert np.max(np.abs(full.Z - frame.Z)) <= 1e-10
    passed, _ = _check_frame_equivalence(params, beta)
    assert passed


@pytest.mark.parametrize("kwargs, beta", FRAME_SCENARIOS)
def test_frame_check_fails_on_a_wrong_frame_term(monkeypatch, kwargs, beta):
    """With the moving frame's kc off by one part in 10^6, the check
    fails at its own step count."""
    def integrate_skewed(params, *args, **kw):
        off = SimpleNamespace(k=params.k, c=params.c * (1.0 + 1e-6), A=params.A)
        return integrate_moving_frame(off, *args, **kw)

    monkeypatch.setattr(validation, "integrate_moving_frame", integrate_skewed)
    passed, detail = _check_frame_equivalence(WaveParams(**kwargs), beta)
    assert not passed, detail


# ---------------------------------------------------------------------------
# The stagnation oracle's enclosure search.


def _tangency_beta(params: WaveParams) -> float:
    """beta_t = kc (ln(kc / k|A|) - 1), where the minus branch touches 0
    at its critical point; just below it the branch holds a close pair."""
    kA, kc = params.k * abs(params.A), params.k * params.c
    return kc * (math.log(kc / kA) - 1.0)


def test_stagnation_enclosure_rounding_bound_holds():
    """rho bounds |g(Z) in floats - g(Z)| against 160-bit mpmath on the
    same float coefficients, with half the draws within 1e-15 of the kink
    where kc Z - beta cancels.  The worst error read 1.16 eps (kA e^Z +
    |kc Z| + |beta|), so a bound of 1 eps times those terms fails here."""
    rng = random.Random(2024)
    worst = 0.0
    with mpmath.workprec(160):
        for _ in range(3000):
            kA = 10.0 ** rng.uniform(-3.0, 1.0)
            kc = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-0.5, 1.0)
            beta = rng.uniform(-5.0, 5.0)
            Z = rng.uniform(-20.0, 5.0)
            if rng.random() < 0.5:
                Z = beta / kc * (1.0 + rng.uniform(-1e-15, 1e-15))
            value, rho = _rounded_g(kA, kc, beta, Z)
            exact = kA * mpmath.exp(mpmath.mpf(Z)) - abs(kc * mpmath.mpf(Z) - beta)
            err = float(abs(value - exact))
            assert err <= rho, (kA, kc, beta, Z)
            worst = max(worst, err / (rho / 4.0))
    assert worst > 1.0


@pytest.mark.parametrize("delta", [1e-11, 1e-12])
def test_stagnation_enclosure_proves_a_near_tangency_pair(scenario_k1, delta):
    """At beta_t (1 - delta) the pair is 1.0e-5 or 3.2e-6 apart, inside one
    step of the 10^6-point scan this oracle replaced, which found 1 level
    where the solver reports 3."""
    params, _ = scenario_k1
    beta = _tangency_beta(params) * (1.0 - delta)
    passed, detail = _check_stagnation_oracle(params, beta)
    assert passed, detail
    assert detail.startswith("3 level(s)") and "cluster" not in detail, detail
    zeros, clusters = _enclose_stagnation(params, beta, -20.0, 5.0)
    assert len(zeros) == 3 and not clusters


def test_stagnation_enclosure_clusters_an_exact_tangency(scenario_k1):
    """At beta_t the double root sits in one narrow cluster about the
    solver's tangency level; the plain level below it is proven."""
    params, _ = scenario_k1
    beta = _tangency_beta(params)
    passed, detail = _check_stagnation_oracle(params, beta)
    assert passed, detail
    zeros, clusters = _enclose_stagnation(params, beta, -20.0, 5.0)
    assert len(zeros) == 1 and len(clusters) == 1
    (a, b), Zc = clusters[0], math.log(params.c / abs(params.A))
    assert b - a <= 1e-6 and a - 1e-6 <= Zc <= b + 1e-6


@pytest.mark.parametrize(
    "lo, hi", [(0.0, 5.0), (-1.0, 1.0)], ids=["window-end", "box-midpoint"]
)
def test_stagnation_enclosure_counts_an_exact_zero_once(scenario_k1, lo, hi):
    """With beta = k|A|, g(0) rounds to exactly 0: Z = 0 is a level, at a
    window end or at the first box's midpoint.  It must show as one
    enclosure, not one per box that touches it."""
    params, _ = scenario_k1
    beta = params.k * abs(params.A)
    zeros, clusters = _enclose_stagnation(params, beta, lo, hi)
    hits = [z for z in zeros if abs(z) <= 1e-9] + [
        c for c in clusters if c[0] - 1e-9 <= 0.0 <= c[1] + 1e-9
    ]
    assert len(hits) == 1, (zeros, clusters)
    levels = solve_stagnation(params, beta, lo, hi).solutions
    assert len(zeros) + len(clusters) == len(levels)
    passed, detail = _check_stagnation_oracle(params, beta)
    assert passed, detail


@pytest.mark.parametrize("label", ["k1", "k2", "k4"])
def test_stagnation_enclosure_clusters_the_pair_about_the_kink(all_scenarios, label):
    """At a = 1e-200 the two levels sit within 6e-14 of the kink
    Z = beta/(kc): rounding hides them, and one cluster about 1e-15 wide
    holds the pair."""
    _, params, beta = next(s for s in all_scenarios if s[0] == label)
    tiny = WaveParams(k=params.k, a=1e-200, g=params.g, direction=params.direction)
    zeros, clusters = _enclose_stagnation(tiny, beta, -20.0, 5.0)
    assert not zeros and len(clusters) == 1
    (a, b), kink = clusters[0], beta / (tiny.k * tiny.c)
    assert a <= kink <= b and b - a <= 1e-14
    levels = [s.Z_star for s in solve_stagnation(tiny, beta).solutions]
    assert len(levels) == 2
    assert all(a - 1e-12 <= Z <= b + 1e-12 for Z in levels)
    passed, detail = _check_stagnation_oracle(tiny, beta)
    assert passed, detail
    assert detail.startswith("2 level(s)"), detail
    assert detail.endswith(", 1 unresolved cluster(s)"), detail


def test_stagnation_enclosure_accepts_an_empty_window(scenario_k1):
    """At beta = 100 g has no zero in [-20, 5]: the solver's
    EmptyReportError counts as no level, and the search finds none."""
    params, _ = scenario_k1
    assert _enclose_stagnation(params, 100.0, -20.0, 5.0) == ([], [])
    passed, detail = _check_stagnation_oracle(params, 100.0)
    assert passed, detail
    assert detail == "0 level(s), max location gap 0.000e+00 vs proven enclosures"


def _report_without_levels(params, beta, Z_min=-20.0, Z_max=5.0, grid=4096):
    raise EmptyReportError(f"no stagnation level in [{Z_min}, {Z_max}]")


def _report_dropping_a_level(*args, **kwargs):
    report = solve_stagnation(*args, **kwargs)
    return replace(report, solutions=report.solutions[1:])


def _report_shifting_a_level(*args, **kwargs):
    report = solve_stagnation(*args, **kwargs)
    first = report.solutions[0]
    moved = replace(first, Z_star=first.Z_star + 1e-5)
    return replace(report, solutions=(moved,) + report.solutions[1:])


@pytest.mark.parametrize(
    "broken",
    [_report_without_levels, _report_dropping_a_level, _report_shifting_a_level],
)
def test_stagnation_enclosure_catches_a_wrong_solver(
    monkeypatch, all_scenarios, broken
):
    monkeypatch.setattr(validation, "solve_stagnation", broken)
    for label, params, beta in all_scenarios:
        passed, detail = _check_stagnation_oracle(params, beta)
        assert not passed, (label, detail)


def test_stagnation_enclosure_search_is_fast(scenario_k1):
    """The search ends in well under 50 ms at a tangency, where g is flat,
    and at a = 1e-200, where rounding hides the pair (about 0.5 ms each)."""
    params, _ = scenario_k1
    tiny = WaveParams(k=params.k, a=1e-200, g=params.g)
    for p, beta in ((params, _tangency_beta(params)), (tiny, 1.0)):
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            _enclose_stagnation(p, beta, -20.0, 5.0)
            best = min(best, time.perf_counter() - start)
        assert best < 0.05, f"{best * 1e3:.1f} ms at beta {beta}"
