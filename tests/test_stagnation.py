"""Stagnation levels against an independent dense scan, the frozen grid
solver they replaced, close pairs and edge cases."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from deepwave import (
    DeepwaveError,
    EmptyReportError,
    ParameterDomainError,
    WaveParams,
    build_cubic,
    case1_series,
    classify_roots,
    solve_stagnation,
)
from deepwave.stagnation import (
    INSIDE_BAND,
    ON_TRAJECTORY,
    OUTSIDE_BAND,
    TANGENCY_TOL,
    StagnationReport,
    StagnationSolution,
    stagnation_on_trajectory,
)


def dense_scan_levels(
    params: WaveParams,
    beta: float,
    Z_min: float = -20.0,
    Z_max: float = 5.0,
    n: int = 1_000_000,
) -> list[float]:
    """Brute-force |kA e^Z| = |kc Z - beta| by scanning both signed
    branches and bisecting every bracketed crossing. Completely
    independent of the production grid/Newton solver."""
    k, c, A = params.k, params.c, params.A
    Zs = np.linspace(Z_min, Z_max, n)
    env = k * A * np.exp(Zs)
    line = k * c * Zs - beta
    roots: list[float] = []
    for sigma in (1.0, -1.0):
        f = env * sigma - line
        sign_flip = np.nonzero(np.signbit(f[:-1]) != np.signbit(f[1:]))[0]
        for i in sign_flip:
            lo, hi = float(Zs[i]), float(Zs[i + 1])
            flo = k * A * math.exp(lo) * sigma - (k * c * lo - beta)
            for _ in range(90):
                mid = 0.5 * (lo + hi)
                fmid = k * A * math.exp(mid) * sigma - (k * c * mid - beta)
                if (fmid < 0.0) == (flo < 0.0):
                    lo, flo = mid, fmid
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    return sorted(roots)


def reference_solve_stagnation(
    params: WaveParams,
    beta: float,
    Z_min: float = -20.0,
    Z_max: float = 5.0,
    grid: int = 4096,
) -> tuple[StagnationSolution, ...]:
    """Frozen copy of the grid solver that analytic bracketing replaced:
    a sign-change scan of both branches on `grid` nodes, bisection-Newton
    polish per bracketing cell, a cross-branch dedupe and a tangency
    sweep of each branch minimum that no root lies within 1e-6 of.  It
    loses any pair of one branch that shares a grid cell."""
    kA = params.k * abs(params.A)
    kc = params.k * params.c
    Zg = np.linspace(Z_min, Z_max, grid)
    env = kA * np.exp(Zg)
    solutions = []
    for sigma, branch in ((1.0, "plus"), (-1.0, "minus")):
        fg = env + sigma * (kc * Zg - beta)

        def f(Z, sigma=sigma):
            return kA * math.exp(Z) + sigma * (kc * Z - beta)

        def fprime(Z, sigma=sigma):
            return kA * math.exp(Z) + sigma * kc

        roots = []
        for i in np.flatnonzero(np.sign(fg[:-1]) * np.sign(fg[1:]) <= 0.0):
            if fg[i] == 0.0 and fg[i + 1] == 0.0:
                continue
            if fg[i + 1] == 0.0 and i + 2 < Zg.size:
                continue
            roots.append(_reference_refine(f, fprime, float(Zg[i]), float(Zg[i + 1])))
        for Z_star in roots:
            residual = abs(kA * math.exp(Z_star) - abs(kc * Z_star - beta))
            solutions.append(StagnationSolution(Z_star, branch, residual, False))
        if sigma * kc < 0.0:
            Zc = math.log(-sigma * kc / kA)
            if Zg[0] <= Zc <= Zg[-1] and abs(f(Zc)) <= 1e-8:
                if all(abs(Zc - r) > 1e-6 for r in roots):
                    residual = abs(kA * math.exp(Zc) - abs(kc * Zc - beta))
                    solutions.append(StagnationSolution(Zc, branch, residual, True))
    solutions.sort(key=lambda s: s.Z_star)
    deduped = []
    for sol in solutions:
        if deduped and abs(sol.Z_star - deduped[-1].Z_star) <= 1e-9:
            continue
        deduped.append(sol)
    if not deduped:
        raise EmptyReportError("no stagnation level")
    return tuple(deduped)


def _reference_refine(f, fprime, lo, hi):
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    x = 0.5 * (lo + hi)
    for _ in range(200):
        fx = f(x)
        if fx == 0.0:
            return x
        if flo * fx < 0.0:
            hi = x
        else:
            lo, flo = x, fx
        if hi - lo <= 1e-13 * max(1.0, abs(x)):
            break
        dfx = fprime(x)
        if dfx != 0.0:
            x_newton = x - fx / dfx
            if lo < x_newton < hi:
                x = x_newton
                continue
        x = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def plant_minus_pair(k: float, a: float, separation: float):
    """A wave and beta whose minus branch has two levels about
    `separation` apart, centred on its minimum Z_c = -log(k a): the
    minimum value is set to -f''(Z_c) separation^2 / 8."""
    params = WaveParams(k=k, a=a, g=9.8)
    kA = params.k * abs(params.A)
    kc = params.k * params.c
    Zc = math.log(kc / kA)
    beta = kc * Zc - kc - kc * separation * separation / 8.0
    return params, beta, Zc


def test_scenarios_match_dense_scan(all_scenarios):
    for _, params, beta in all_scenarios:
        report = solve_stagnation(params, beta)
        brute = dense_scan_levels(params, beta)
        mine = [s.Z_star for s in report.solutions]
        assert len(mine) == len(brute)
        for a, b in zip(mine, brute):
            assert abs(a - b) <= 1e-6


def test_solutions_sorted_with_small_residuals(scenario_k1):
    params, beta = scenario_k1
    report = solve_stagnation(params, beta)
    Zs = [s.Z_star for s in report.solutions]
    assert Zs == sorted(Zs)
    for s in report.solutions:
        assert s.branch in ("plus", "minus")
        scale = max(params.k * abs(params.A) * math.exp(s.Z_star), 1.0)
        if not s.tangency:
            assert s.residual <= 1e-10 * scale


def test_forced_zero_level():
    """beta = -k|A| plants a stagnation level exactly at Z = 0."""
    for k in (1.0, 2.0, 4.0):
        params = WaveParams(k=k, a=0.1, g=9.8)
        beta = -params.k * abs(params.A)
        report = solve_stagnation(params, beta)
        gaps = [abs(s.Z_star) for s in report.solutions]
        assert min(gaps) <= 1e-10


def test_forced_zero_level_tangency():
    """a k = 1 makes A = c, so the forced level at Z = 0 is a double root."""
    params = WaveParams(k=4.0, a=0.25, g=9.8)
    assert params.A == params.c  # exact: both sides are powers of two
    beta_star = -params.k * abs(params.A)

    # dead on: the grid lands on an exact zero and reports a plain root
    exact = solve_stagnation(params, beta_star)
    assert any(abs(s.Z_star) <= 1e-6 for s in exact.solutions)

    # a hair above there is no crossing left; only the critical-point
    # sweep can report the contact, and it flags it
    lifted = solve_stagnation(params, beta_star + 1e-9)
    marks = [s for s in lifted.solutions if s.tangency]
    assert len(marks) == 1
    assert abs(marks[0].Z_star) <= 1e-6
    assert marks[0].branch == "minus"

    # a hair below, the double root splits into a resolvable pair around
    # the minimum while the sweep still marks the near-contact
    split = solve_stagnation(params, beta_star - 1e-9)
    pair = sorted(
        s.Z_star
        for s in split.solutions
        if s.branch == "minus" and not s.tangency
    )
    assert len(pair) == 2
    assert pair[0] < 0.0 < pair[1]
    assert any(s.tangency for s in split.solutions)


def test_empty_window():
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    # Levels for beta = 1 sit below Z = 3.5; this window has none.
    with pytest.raises(EmptyReportError):
        solve_stagnation(params, 1.0, Z_min=4.0, Z_max=5.0, grid=1000)


def test_window_validation():
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    with pytest.raises(ParameterDomainError):
        solve_stagnation(params, 1.0, Z_min=2.0, Z_max=1.0)
    with pytest.raises(ParameterDomainError):
        solve_stagnation(params, 1.0, Z_max=800.0)
    with pytest.raises(ParameterDomainError):
        solve_stagnation(params, 1.0, grid=999)
    with pytest.raises(ParameterDomainError):
        solve_stagnation(params, math.nan)


def test_grid_point_on_root_is_deduplicated():
    """A root sitting exactly on a grid node must be reported once."""
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    beta = -params.k * abs(params.A)  # plants a root at Z = 0 exactly
    # 1001 points over [-1, 1] puts a node at 0.0.
    report = solve_stagnation(params, beta, Z_min=-1.0, Z_max=1.0, grid=1001)
    zeros = [s for s in report.solutions if abs(s.Z_star) <= 1e-9]
    assert len(zeros) == 1


def test_report_metadata(scenario_k2):
    params, beta = scenario_k2
    report = solve_stagnation(params, beta, Z_min=-12.0, Z_max=4.0, grid=2048)
    assert report.search_interval == (-12.0, 4.0)
    assert report.grid_size == 2048


def test_placement_annotation(scenario_k1):
    params, beta = scenario_k1
    red = classify_roots(build_cubic(params, beta))
    series = case1_series(params, red, beta, 0.0, 4.0, 2048)
    lo, hi = float(np.min(series.Z)), float(np.max(series.Z))
    synthetic = StagnationReport(
        solutions=(
            StagnationSolution(Z_star=lo, branch="plus", residual=0.0),
            StagnationSolution(
                Z_star=0.5 * (lo + hi), branch="minus", residual=0.0
            ),
            StagnationSolution(Z_star=hi + 1.0, branch="minus", residual=0.0),
        ),
        search_interval=(-20.0, 5.0),
        grid_size=4096,
    )
    placements = [
        a.placement for a in stagnation_on_trajectory(synthetic, series)
    ]
    assert placements == [ON_TRAJECTORY, INSIDE_BAND, OUTSIDE_BAND]


def test_real_report_placements(scenario_k1):
    params, beta = scenario_k1
    red = classify_roots(build_cubic(params, beta))
    series = case1_series(params, red, beta, 0.0, 5.0, 2048)
    report = solve_stagnation(params, beta)
    annotated = stagnation_on_trajectory(report, series)
    assert len(annotated) == len(report.solutions)
    for a in annotated:
        assert a.placement in (ON_TRAJECTORY, INSIDE_BAND, OUTSIDE_BAND)


@given(
    k=st.floats(0.05, 20.0),
    a=st.floats(1e-3, 1.0),
    direction=st.sampled_from([1, -1]),
    beta=st.floats(-30.0, 30.0),
    Z_min=st.floats(-25.0, -0.5),
    Z_max=st.floats(0.5, 8.0),
)
@example(k=1.0, a=0.1, direction=1, beta=1.0, Z_min=-20.0, Z_max=5.0)
@example(k=2.0, a=0.1, direction=1, beta=-1.0, Z_min=-20.0, Z_max=5.0)
@example(k=4.0, a=0.1, direction=1, beta=1.0, Z_min=-20.0, Z_max=5.0)
@example(k=1.5, a=0.1, direction=-1, beta=0.3, Z_min=-20.0, Z_max=5.0)
def test_matches_grid_reference_sweep(k, a, direction, beta, Z_min, Z_max):
    """Where the levels are at least 0.05 apart and clear of tangency,
    the bracketing solver reports what the 4096-point grid solver did:
    same count, branches and flags, Z* within 1e-12."""
    params = WaveParams(k=k, a=a, g=9.8, direction=direction)
    try:
        new = solve_stagnation(params, beta, Z_min, Z_max).solutions
    except EmptyReportError:
        with pytest.raises(EmptyReportError):
            reference_solve_stagnation(params, beta, Z_min, Z_max)
        return
    Zs = [s.Z_star for s in new]
    assume(not any(s.tangency for s in new))
    assume(all(hi - lo >= 0.05 for lo, hi in zip(Zs, Zs[1:])))
    old = reference_solve_stagnation(params, beta, Z_min, Z_max)
    assert [(s.branch, s.tangency) for s in new] == [
        (s.branch, s.tangency) for s in old
    ]
    for s, r in zip(new, old):
        assert abs(s.Z_star - r.Z_star) <= 1e-12


@pytest.mark.parametrize(("k", "a"), [(1.0, 0.3), (2.0, 0.11)])
@pytest.mark.parametrize("separation", [1e-3, 1e-6, 1e-7])
def test_close_pair_resolved(k, a, separation):
    """Two minus-branch levels inside one cell of the old 4096-point grid
    (about 6.1e-3 wide) are both reported as plain levels.  Below about
    sqrt(8 eps) ~ 4e-8 a pair cannot be resolved in double precision: f
    at the minimum then sits at the rounding level of its terms."""
    params, beta, Zc = plant_minus_pair(k, a, separation)
    report = solve_stagnation(params, beta)
    pair = [
        s.Z_star for s in report.solutions if s.branch == "minus" and not s.tangency
    ]
    assert len(pair) == 2
    assert pair[0] < Zc < pair[1]
    assert abs((pair[1] - pair[0]) - separation) <= 0.1 * separation
    # The minimum lies within TANGENCY_TOL of zero for the two tight pairs.
    marks = [s for s in report.solutions if s.tangency]
    assert len(marks) == (separation < 1e-4)
    if marks:
        assert marks[0].Z_star == Zc and marks[0].branch == "minus"


def test_root_on_critical_point_counted_once():
    """k a = 1 (k = 4, a = 1/4) makes Z_c = 0, and beta = -k|A| plants an exact
    double root of the minus branch there: one level, flagged as a
    tangency and not also reported as a plain level, whether Z_c is
    interior or a window edge."""
    params = WaveParams(k=4.0, a=0.25, g=9.8)
    beta = -params.k * abs(params.A)
    for Z_min, Z_max in ((-20.0, 5.0), (0.0, 5.0), (-20.0, 0.0)):
        report = solve_stagnation(params, beta, Z_min, Z_max)
        at_zero = [s for s in report.solutions if s.Z_star == 0.0]
        assert len(at_zero) == 1
        assert at_zero[0].branch == "minus" and at_zero[0].tangency


def test_window_narrower_than_old_grid_cell():
    """A pair 1e-6 apart inside a window 1e-3 wide (1000 nodes of the
    old scan were too coarse for the pair) is found in full."""
    params, beta, Zc = plant_minus_pair(1.0, 0.3, 1e-6)
    report = solve_stagnation(params, beta, Zc - 5e-4, Zc + 5e-4, grid=1000)
    plain = [s.Z_star for s in report.solutions if not s.tangency]
    assert len(plain) == 2
    assert abs((plain[1] - plain[0]) - 1e-6) <= 1e-7


def test_tangency_on_window_edge():
    """The contact a hair above the forced double root at Z_c = 0 (see
    test_forced_zero_level_tangency) is flagged with Z_c as an edge."""
    params = WaveParams(k=4.0, a=0.25, g=9.8)
    beta = -params.k * abs(params.A) + 1e-9
    for Z_min, Z_max in ((0.0, 5.0), (-20.0, 0.0)):
        report = solve_stagnation(params, beta, Z_min, Z_max)
        (mark,) = [s for s in report.solutions if s.branch == "minus"]
        assert mark.Z_star == 0.0 and mark.tangency


def test_tiny_branch_values_give_no_false_level():
    """k|A| = kc = 1e-170: both branches stay positive on [0, 1] with
    values near 1e-170, whose product underflows to 0; no plain level
    may be reported."""
    params = WaveParams(k=1e-170, a=1e170, g=1e-170)
    report = solve_stagnation(params, 0.0, 0.0, 1.0)
    assert all(s.tangency for s in report.solutions)


def test_underflowing_envelope_rejected():
    """k|A| = k^2 a c underflows to 0 here; the critical point
    log(kc / k|A|) would divide by zero."""
    params = WaveParams(k=1e-200, a=1e-200, g=1.0)
    with pytest.raises(ParameterDomainError):
        solve_stagnation(params, 1.0)


def levels_finite_or_deepwave_error(params, beta, Z_min, Z_max):
    try:
        report = solve_stagnation(params, beta, Z_min, Z_max)
    except DeepwaveError:
        return
    Zs = [s.Z_star for s in report.solutions]
    assert Zs == sorted(Zs)
    for s in report.solutions:
        assert math.isfinite(s.Z_star) and math.isfinite(s.residual)
        assert Z_min <= s.Z_star <= Z_max
        assert s.branch in ("plus", "minus")
        if s.tangency:
            envelope = params.k * abs(params.A) * math.exp(s.Z_star)
            assert s.residual <= TANGENCY_TOL + 1e-12 * envelope


@given(
    k=st.floats(1e-4, 1e4),
    a=st.floats(1e-6, 1e3),
    g=st.floats(1e-3, 1e3),
    direction=st.sampled_from([1, -1]),
    beta=st.floats(-1e6, 1e6),
    Z_min=st.floats(-1e4, 699.0),
    width=st.floats(1e-9, 1e4),
)
def test_finite_or_deepwave_error(k, a, g, direction, beta, Z_min, width):
    """Over wide waves, beta and windows up to Z_max = 700, the solver
    returns finite, sorted levels inside the window or raises a
    DeepwaveError."""
    params = WaveParams(k=k, a=a, g=g, direction=direction)
    levels_finite_or_deepwave_error(params, beta, Z_min, min(Z_min + width, 700.0))


@given(
    k=st.floats(1e-3, 1e3),
    a=st.floats(1e-6, 10.0),
    direction=st.sampled_from([1, -1]),
    beta=st.floats(-1e3, 1e3),
    side=st.sampled_from(["lower", "upper"]),
    width=st.floats(1e-9, 50.0),
)
def test_window_edge_on_critical_point_finite_or_deepwave_error(
    k, a, direction, beta, side, width
):
    """Windows with Z_c = -log(k a) as one edge, down to widths far below
    one cell of the old 4096-point grid."""
    params = WaveParams(k=k, a=a, g=9.8, direction=direction)
    Zc = math.log(abs(params.k * params.c) / (params.k * abs(params.A)))
    assume(Zc + width <= 700.0)
    if side == "lower":
        levels_finite_or_deepwave_error(params, beta, Zc, Zc + width)
    else:
        levels_finite_or_deepwave_error(params, beta, Zc - width, Zc)
