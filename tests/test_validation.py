"""The self-check battery must pass on healthy scenarios, degrade to FAIL
results (not exceptions) on broken ones, and print deterministically.

The stagnation oracle's chunked scan is checked against a frozen copy of
the whole-grid scan it replaced, and the battery's memory against a
bound."""

from __future__ import annotations

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deepwave import validation
from deepwave.cubic_analysis import Case1Reduction, build_cubic, classify_roots
from deepwave.errors import DegenerateRootsError
from deepwave.ode_oracle import IntegratorConfig, integrate_full, integrate_moving_frame
from deepwave.stagnation import solve_stagnation
from deepwave.validation import (
    _FRAME_STEPS_PER_PERIOD,
    _LAUNCH,
    _SCAN_CHUNK,
    _SCAN_POINTS,
    CheckResult,
    _brute_stagnation,
    _check_frame_equivalence,
    _check_stagnation_oracle,
    _scan_chunks,
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
    """The battery holds no whole 10^6-point scan and no boxed oracle
    knots (32 MB traced when it did)."""
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
    assert peak <= 12e6, f"peak {peak / 1e6:.1f} MB"


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
# Frozen copy of the whole-grid stagnation scan that the chunked scan
# replaced; the chunked scan must return exactly its levels.


def _ref_brute_stagnation(params, beta, lo, hi):
    kA = params.k * abs(params.A)
    kc = params.k * params.c
    Zg = np.linspace(lo, hi, 1_000_000)
    s = kA * np.exp(Zg) - np.abs(kc * Zg - beta)

    def f(Z):
        return kA * math.exp(Z) - abs(kc * Z - beta)

    roots = []
    for i in np.flatnonzero(np.sign(s[:-1]) * np.sign(s[1:]) < 0.0):
        a, b = float(Zg[i]), float(Zg[i + 1])
        fa = f(a)
        for _ in range(80):
            mid = 0.5 * (a + b)
            fm = f(mid)
            if fa * fm <= 0.0:
                b = mid
            else:
                a, fa = mid, fm
            if b - a <= 1e-13 * max(1.0, abs(mid)):
                break
        roots.append(0.5 * (a + b))
    for i in np.flatnonzero(s == 0.0):
        roots.append(float(Zg[i]))
    return sorted(roots)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _assert_chunks_are_linspace(lo, hi):
    chunks = list(_scan_chunks(lo, hi))
    assert all(c.size <= _SCAN_CHUNK + 1 for c in chunks)
    for prev, nxt in zip(chunks, chunks[1:]):
        assert _bits(prev[-1:]) == _bits(nxt[:1])  # one shared point per edge
    joined = np.concatenate([chunks[0]] + [c[1:] for c in chunks[1:]])
    want = np.linspace(lo, hi, _SCAN_POINTS)
    assert joined.size == want.size
    assert joined[-1] == hi
    np.testing.assert_array_equal(joined.view(np.uint64), want.view(np.uint64))


def test_scan_chunks_match_linspace_on_reference_intervals(all_scenarios):
    for _, params, beta in all_scenarios:
        _assert_chunks_are_linspace(*solve_stagnation(params, beta).search_interval)


@settings(max_examples=15)
@given(
    ends=st.lists(st.floats(-60.0, 5.0), min_size=2, max_size=2, unique=True).map(
        sorted
    )
)
@example(ends=[-1.3, 2.9])  # here lo + (n - 1) * step misses hi by one ulp
def test_scan_chunks_match_linspace_on_drawn_intervals(ends):
    _assert_chunks_are_linspace(*ends)


def test_brute_stagnation_matches_whole_grid_scan(all_scenarios):
    for label, params, beta in all_scenarios:
        lo, hi = solve_stagnation(params, beta).search_interval
        got = _brute_stagnation(params, beta, lo, hi)
        assert got, label
        assert _bits(got) == _bits(_ref_brute_stagnation(params, beta, lo, hi))


@pytest.mark.parametrize("offset", [-0.5, 0.5, 1.5])
@pytest.mark.parametrize("edge", [_SCAN_CHUNK, 5 * _SCAN_CHUNK])
def test_brute_stagnation_finds_sign_change_at_chunk_edge(scenario_k1, edge, offset):
    """A level between the grid points either side of a chunk edge."""
    params, beta = scenario_k1
    level = solve_stagnation(params, beta).solutions[0].Z_star
    step = 1e-5
    lo = level - (edge + offset) * step
    hi = lo + (_SCAN_POINTS - 1) * step
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    i = int(np.searchsorted(grid, level)) - 1
    assert edge - 1 <= i <= edge + 1  # the level's grid interval touches the edge
    got = _brute_stagnation(params, beta, lo, hi)
    assert any(abs(z - level) <= 1e-9 for z in got)
    assert _bits(got) == _bits(_ref_brute_stagnation(params, beta, lo, hi))


@pytest.mark.parametrize("index", [0, _SCAN_CHUNK, 3 * _SCAN_CHUNK, _SCAN_POINTS - 1])
def test_brute_stagnation_counts_grid_zero_once(scenario_k1, index):
    """With beta = kA, Z = 0 is a level; with a power-of-two step it is
    also grid point ``index`` exactly, here the first point, chunk edges
    and the pinned last point."""
    params, _ = scenario_k1
    beta = params.k * abs(params.A)
    step = 2.0**-16
    lo = -index * step
    hi = (_SCAN_POINTS - 1 - index) * step
    got = _brute_stagnation(params, beta, lo, hi)
    assert got.count(0.0) == 1
    assert _bits(got) == _bits(_ref_brute_stagnation(params, beta, lo, hi))


@pytest.mark.parametrize("label", ["k1", "k2", "k4"])
def test_stagnation_oracle_finds_two_levels_about_the_kink(all_scenarios, label):
    """At a = 1e-200 the two levels sit within one grid step of the kink
    Z = beta/(kc), so both ends of the kink's grid cell are negative and
    only the kink itself is positive."""
    _, params, beta = next(s for s in all_scenarios if s[0] == label)
    tiny = WaveParams(k=params.k, a=1e-200, g=params.g, direction=params.direction)
    lo, hi = solve_stagnation(tiny, beta).search_interval
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    kink = beta / (tiny.k * tiny.c)
    i = int(np.searchsorted(grid, kink)) - 1
    ends = grid[i : i + 2]
    g = tiny.k * abs(tiny.A) * np.exp(ends) - np.abs(tiny.k * tiny.c * ends - beta)
    assert np.all(g < 0.0)
    passed, detail = _check_stagnation_oracle(tiny, beta)
    assert passed, detail
    assert detail.startswith("2 level(s)"), detail
