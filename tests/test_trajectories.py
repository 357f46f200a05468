"""Closed-form paths: containment, residuals, drift, and asymptotes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deepwave import (
    AsymptoteProximityError,
    Case1Reduction,
    Case2Reduction,
    ContractViolationError,
    DeepwaveError,
    IntegratorConfig,
    ParameterDomainError,
    PeakonParams,
    WaveParams,
    assemble_xz,
    asymptote_times,
    beta_from_initial,
    build_cubic,
    case1_Z,
    case1_dZdt,
    case1_series,
    case2_Z,
    case2_dZdt,
    case2_series,
    classify_roots,
    complete_K,
    integrate_moving_frame,
    integrate_truncated,
    jacobi_sn_cn_dn,
    peakon_path,
    peakon_residuals,
    peakon_series,
    period_case1,
)
from deepwave.trajectories import (
    ASYMPTOTE_GUARD,
    CN_DENOM_GUARD,
    TrajectorySeries,
    ZSeries,
    _sample_grid,
    quadrature_x_check,
)

times = st.floats(min_value=-50.0, max_value=50.0)


@pytest.fixture(scope="module")
def red_k1(scenario_k1):
    params, beta = scenario_k1
    return classify_roots(build_cubic(params, beta))


@pytest.fixture(scope="module")
def red_k4(scenario_k4):
    params, beta = scenario_k4
    return classify_roots(build_cubic(params, beta))


# ---------------------------------------------------------------- case 1


def test_case1_turning_points(red_k1):
    T = period_case1(red_k1)
    assert case1_Z(red_k1, 0.0) == pytest.approx(red_k1.Z1, abs=1e-14)
    assert case1_Z(red_k1, 0.5 * T) == pytest.approx(red_k1.Z2, abs=1e-12)
    assert case1_Z(red_k1, T) == pytest.approx(red_k1.Z1, abs=1e-12)
    assert case1_dZdt(red_k1, 0.0) == pytest.approx(0.0, abs=1e-13)
    assert case1_dZdt(red_k1, 0.5 * T) == pytest.approx(0.0, abs=1e-11)


@given(t=times)
def test_case1_band_containment(t, red_k1):
    Z = case1_Z(red_k1, t)
    assert red_k1.Z1 - 1e-12 <= Z <= red_k1.Z2 + 1e-12


@given(t=times)
def test_case1_periodicity(t, red_k1):
    T = period_case1(red_k1)
    assert case1_Z(red_k1, t + T) == pytest.approx(case1_Z(red_k1, t), abs=1e-10)


@given(t=st.floats(min_value=-10.0, max_value=10.0))
def test_case1_rate_matches_finite_difference(t, red_k1):
    h = 1e-6
    fd = (case1_Z(red_k1, t + h) - case1_Z(red_k1, t - h)) / (2.0 * h)
    assert case1_dZdt(red_k1, t) == pytest.approx(fd, abs=1e-6)


def test_case1_satisfies_truncated_ode(scenario_k1, red_k1):
    """(dZ/dt)^2 = P(Z) via h = 1e-5 centered differences, away from
    turning points where the difference quotient degenerates."""
    params, beta = scenario_k1
    coeffs = build_cubic(params, beta)
    T = period_case1(red_k1)
    P_max = max(
        abs(coeffs.evaluate(float(Z)))
        for Z in np.linspace(red_k1.Z1, red_k1.Z2, 200)
    )
    rate_peak = max(
        abs(case1_dZdt(red_k1, float(t))) for t in np.linspace(0.0, T, 400)
    )
    h = 1e-5
    checked = 0
    for t in np.linspace(-T, 2.0 * T, 500):
        rate = case1_dZdt(red_k1, float(t))
        if abs(rate) < 0.05 * rate_peak:
            continue  # turning-point neighbourhood
        fd = (case1_Z(red_k1, t + h) - case1_Z(red_k1, t - h)) / (2.0 * h)
        Z = case1_Z(red_k1, float(t))
        assert abs(fd * fd - coeffs.evaluate(Z)) <= 1e-6 * max(P_max, 1e-30)
        checked += 1
    assert checked > 300


def test_case1_period_against_integrator(scenario_k1, red_k1):
    """First return of the truncated oracle to the bottom turning point."""
    params, beta = scenario_k1
    coeffs = build_cubic(params, beta)
    T = period_case1(red_k1)
    cfg = IntegratorConfig(0.0, 1.5 * T, dt=T / 4000.0, method="rk45")
    zs = integrate_truncated(coeffs, red_k1.Z1, 0.0, cfg)
    # Z - Z1 has a quadratic minimum at each return; locate it by the
    # sign change of dZ/dt from - to + after the first half period.
    after = zs.t > 0.5 * T
    rates = zs.dZdt[after]
    ts = zs.t[after]
    idx = int(np.argmax((rates[:-1] < 0.0) & (rates[1:] >= 0.0)))
    # Linear interpolation of the rate's zero crossing.
    t_a, t_b = ts[idx], ts[idx + 1]
    r_a, r_b = rates[idx], rates[idx + 1]
    t_return = t_a - r_a * (t_b - t_a) / (r_b - r_a)
    assert t_return == pytest.approx(T, rel=1e-6)


def test_case1_series_drift_and_frame(scenario_k1, red_k1):
    params, beta = scenario_k1
    T = period_case1(red_k1)
    series = case1_series(params, red_k1, beta, 0.0, 3.0 * T, 1537)
    assert series.case_tag == "case1"
    assert series.period == pytest.approx(T, rel=1e-15)
    # X laps once per period against the direction of travel.
    drift = params.c * T - math.copysign(2.0 * math.pi, params.c) / params.k
    assert series.drift_per_period == pytest.approx(drift, rel=1e-12)
    # Exact T-periodicity of the moving-frame path makes the drift exact:
    # samples one period apart differ by the drift in x and nothing in z.
    n = 512  # 1536 intervals over 3 T -> 512 per period
    dx = series.x[n:] - series.x[:-n]
    dz = series.z[n:] - series.z[:-n]
    assert np.max(np.abs(dx - drift)) <= 1e-9 * max(1.0, abs(params.c * T))
    assert np.max(np.abs(dz)) <= 1e-10
    # Conservation law along the assembled path.
    resid = (
        params.k * params.c * series.Z
        - params.k * params.A * np.exp(series.Z) * np.cos(series.X)
        - beta
    )
    assert np.max(np.abs(resid)) <= 1e-9 * max(1.0, abs(beta))


def test_case1_series_is_continuous(scenario_k1, red_k1):
    """x is continuous except at the turning points of Z, where it jumps by
    the truncation gap: cos X(Z_turn) stops short of +-1, and X moves to
    the next sheet there by -2 b sign(cos X) arccos|cos X| with b the
    sign of sin X before the turn (sign(A) at Z2, -sign(A) at Z1)."""
    params, beta = scenario_k1
    T = period_case1(red_k1)
    quarter = complete_K(red_k1.k1sq)
    series = case1_series(params, red_k1, beta, 0.0, 2.0 * T, 4001)
    dt = float(series.t[1] - series.t[0])
    # Velocity scale bound: |dx/dt| <= |c| + |A| e^{Z2} / ... stay loose.
    bound = (abs(params.c) + abs(params.A) * math.exp(red_k1.Z2) + 1.0) * dt * 3.0
    assert float(np.max(np.abs(np.diff(series.z)))) <= bound

    def jump(j):
        Z_turn = red_k1.Z2 if j % 2 else red_k1.Z1
        r = (params.k * params.c * Z_turn - beta) * math.exp(-Z_turn)
        r /= params.k * params.A
        b = math.copysign(1.0, params.A) * (1.0 if j % 2 else -1.0)
        return -2.0 * b * math.copysign(math.acos(abs(r)), r) / params.k

    half = np.floor(red_k1.C1 * series.t / quarter)
    turns = np.diff(half) != 0.0
    dx = np.diff(series.x)
    assert float(np.max(np.abs(dx[~turns]))) <= bound
    crossed = half[1:][turns].astype(int)
    assert crossed.tolist() in ([1, 2, 3], [1, 2, 3, 4])
    for j, step in zip(crossed, dx[turns]):
        assert abs(step - jump(j)) <= bound
    # The exact jump, from a pair of samples 2e-13 apart around each turn.
    for j in range(1, 4):
        t_turn = j * quarter / red_k1.C1
        pair = case1_series(params, red_k1, beta, t_turn - 1e-13, t_turn + 1e-13, 2)
        assert abs(pair.x[1] - pair.x[0] - jump(j)) <= 1e-12
    assert abs(jump(1)) > 0.05 and abs(jump(2)) > 0.05


def test_case1_series_quadrature_diagnostic(scenario_k1, red_k1):
    """Field-velocity quadrature tracks x only to the truncation gap.

    The closed form solves the cubic truncation of the vertical
    equation, so integrating the exact field velocity along that path
    drifts away at the truncation scale: about 0.15 over three periods
    here, far above rounding yet bounded.  Exact agreement would mean
    the series was secretly solving the untruncated law; a gap of order
    2 pi/k would mean a lost or spurious lap of X.
    """
    params, beta = scenario_k1
    T = period_case1(red_k1)
    series = case1_series(params, red_k1, beta, 0.0, 3.0 * T, 6001)
    x_quad = quadrature_x_check(params, series)
    gap = float(np.abs(x_quad - series.x).max())
    assert 1e-4 <= gap <= 0.2


# Case-1 scenarios (k, beta, direction, a) whose paths the untruncated
# oracle follows over three periods.
ORACLE_SCENARIOS = [(1.0, 1.0, 1, 0.1), (2.0, -1.0, 1, 0.1), (1.0, 1.0, -1, 0.1),
                    (1.5, 0.3, -1, 0.1)]


@pytest.mark.parametrize("k, beta, direction, a", ORACLE_SCENARIOS)
@pytest.mark.parametrize("n", [5, 13, 3001])
def test_case1_series_tracks_oracle(k, beta, direction, a, n):
    """Over three periods x stays within the truncation gap (at most
    2 arccos|cos X(Z_turn)|/k per turning point, partly undone between
    them) of the untruncated moving-frame path from the first sample,
    at any sampling density: X laps once per period, so a single arccos
    branch would be off by about 2 pi/k per period."""
    params = WaveParams(k=k, a=a, g=9.8, direction=direction)
    red = classify_roots(build_cubic(params, beta))
    T = period_case1(red)
    series = case1_series(params, red, beta, 0.0, 3.0 * T, n)
    cfg = IntegratorConfig(0.0, 3.0 * T, dt=T / 2000.0, method="rk45")
    oracle = integrate_moving_frame(
        params, float(series.X[0]), float(series.Z[0]), cfg,
        sample_times=series.t.tolist(),
    )
    assert float(np.max(np.abs(oracle.x - series.x))) <= 0.35


@pytest.mark.parametrize("k, beta, direction, a", ORACLE_SCENARIOS)
def test_case1_sheets_do_not_depend_on_sampling(k, beta, direction, a):
    """The sheet of X comes from the elliptic phase, so X at a time shared
    by a 5-sample and a 4001-sample grid over two periods is the same."""
    params = WaveParams(k=k, a=a, g=9.8, direction=direction)
    red = classify_roots(build_cubic(params, beta))
    T = period_case1(red)
    coarse = case1_series(params, red, beta, 0.0, 2.0 * T, 5)
    fine = case1_series(params, red, beta, 0.0, 2.0 * T, 4001)
    shared, i, j = np.intersect1d(coarse.t, fine.t, return_indices=True)
    assert shared.size >= 2
    assert bits(coarse.X[i]).tolist() == bits(fine.X[j]).tolist()


def test_case1_series_far_from_t0():
    """A window 1e6 after t0 puts X some 1e5 laps out, so the frame map
    X = k(x - ct) holds only to the rounding floor of X, not of k c t."""
    params = WaveParams(k=1.5, a=0.1, g=9.8)
    red = classify_roots(build_cubic(params, 0.5))
    series = case1_series(params, red, 0.5, 0.0, 1.0, 5, t0=-1e6)
    assert np.all(np.abs(series.X) > 1e5)


def test_plain_zseries_sheets_match_closed_form(scenario_k1, red_k1):
    """assemble_xz finds the sheets of a plain Z series from the sign
    changes of A dZ/dt; where the samples resolve every turning point it
    agrees with the phase-derived sheets of case1_series."""
    params, beta = scenario_k1
    T = period_case1(red_k1)
    # 3000 samples: no sample falls on a turning point, where the two
    # rules may pick either side of the truncation-gap jump.
    series = case1_series(params, red_k1, beta, 0.1 * T, 3.1 * T, 3000)
    plain = assemble_xz(
        params,
        beta,
        ZSeries(t=series.t, Z=series.Z, dZdt=series.dZdt),
        case_tag="case1",
        period=T,
    )
    assert bits(plain.X).tolist() == bits(series.X).tolist()
    assert plain.drift_per_period == series.drift_per_period


def test_series_build_one_landen_chain_besides_the_kernel(
    monkeypatch, scenario_k1, red_k1, scenario_k4, red_k4
):
    """K(m) is computed once per series and reused for the period, the
    phase sheets, the case-2 guard and the asymptote marks: with the
    kernel's own chain that is at most two chains per series."""
    import deepwave.special_functions as sf

    builds = []
    chain = sf._landen_chain
    monkeypatch.setattr(sf, "_landen_chain", lambda m: builds.append(m) or chain(m))
    for (params, beta), red, build in (
        (scenario_k1, red_k1, case1_series),
        (scenario_k4, red_k4, case2_series),
    ):
        builds.clear()
        build(params, red, beta, 0.0, 10.0, 101)
        assert len(builds) <= 2


# ---------------------------------------------------------------- case 2


def test_case2_starts_at_root_and_stays_above(red_k4):
    assert case2_Z(red_k4, 0.0) == pytest.approx(red_k4.Z0, abs=1e-14)
    for t in np.linspace(-0.4, 0.4, 200):
        assert case2_Z(red_k4, float(t)) >= red_k4.Z0 - 1e-12


def test_case2_sin_X_follows_vertical_motion(scenario_k4, red_k4):
    """sin X has the sign of A dZ/dt on both sides of the Z minimum and
    across asymptotes, and x follows the untruncated oracle through the
    minimum to the truncation gap."""
    params, beta = scenario_k4
    (t1,) = asymptote_times(red_k4, 0.0, [0])
    wide = case2_series(params, red_k4, beta, -t1, 5.0 * t1, 6001)
    moving = np.abs(wide.dZdt) > 1e-9 * np.max(np.abs(wide.dZdt))
    assert np.all(np.sign(np.sin(wide.X[moving])) == np.sign(params.A * wide.dZdt[moving]))
    for n in (5, 2001):
        series = case2_series(params, red_k4, beta, -0.2 * t1, 0.2 * t1, n)
        cfg = IntegratorConfig(
            float(series.t[0]), float(series.t[-1]), dt=t1 / 2000.0, method="rk45"
        )
        oracle = integrate_moving_frame(
            params, float(series.X[0]), float(series.Z[0]), cfg,
            sample_times=series.t.tolist(),
        )
        assert float(np.max(np.abs(oracle.x - series.x))) <= 0.02


@given(t=st.floats(min_value=-0.3, max_value=0.3))
def test_case2_rate_matches_finite_difference(t, red_k4):
    h = 1e-7
    fd = (case2_Z(red_k4, t + h) - case2_Z(red_k4, t - h)) / (2.0 * h)
    assert case2_dZdt(red_k4, t) == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_case2_blowup_monotone_towards_asymptote(red_k4):
    (t1,) = asymptote_times(red_k4, 0.0, [0])
    ts = np.linspace(0.6 * t1, t1 - 1e-4, 50)
    Zs = [case2_Z(red_k4, float(t)) for t in ts]
    assert all(b > a for a, b in zip(Zs, Zs[1:]))
    assert Zs[-1] > 1e4


def test_case2_asymptote_guard(red_k4):
    (t1,) = asymptote_times(red_k4, 0.0, [0])
    with pytest.raises(AsymptoteProximityError) as err:
        case2_Z(red_k4, t1)
    assert err.value.nearest_time == pytest.approx(t1, rel=1e-12)
    # The guard covers a band, not just the exact time.
    with pytest.raises(AsymptoteProximityError):
        case2_Z(red_k4, t1 + 1e-12)


def test_case2_asymptote_spacing(red_k4):
    from deepwave import complete_K

    ts = asymptote_times(red_k4, 0.3, range(-2, 3))
    period = 4.0 * complete_K(red_k4.k2sq) / red_k4.C2
    gaps = np.diff(ts)
    assert np.allclose(gaps, period, rtol=1e-13)


def test_case2_series_drops_guarded_samples(scenario_k4, red_k4):
    params, beta = scenario_k4
    (t1,) = asymptote_times(red_k4, 0.0, [0])
    series = case2_series(params, red_k4, beta, 0.0, 2.0 * t1, 4001)
    assert series.case_tag == "case2"
    assert series.period is None
    assert series.asymptote_times is not None
    assert any(abs(ta - t1) <= 1e-10 for ta in series.asymptote_times)
    # No sample survived inside the guard band around the asymptote.
    u = red_k4.C2 * series.t
    from deepwave import complete_K

    quarter = complete_K(red_k4.k2sq)
    dist = np.remainder(u - 2.0 * quarter, 4.0 * quarter)
    dist = np.minimum(dist, 4.0 * quarter - dist)
    assert float(dist.min()) >= 1e-9


def test_case2_series_guard_band_dropping(scenario_k4, red_k4):
    params, beta = scenario_k4
    (t1,) = asymptote_times(red_k4, 0.0, [0])
    # A window around the asymptote loses its central samples while the
    # survivors stay finite despite Z blowing past 1e6.
    series = case2_series(params, red_k4, beta, t1 - 1e-5, t1 + 1e-5, 2001)
    assert 0 < len(series.t) < 2001
    assert np.all(np.isfinite(series.Z))
    assert float(series.Z.max()) > 1e6
    # A window hugging the asymptote cannot be sampled at all.
    with pytest.raises(AsymptoteProximityError):
        case2_series(params, red_k4, beta, t1 - 1e-8, t1 + 1e-8, 2001)
    with pytest.raises(AsymptoteProximityError):
        case2_series(params, red_k4, beta, t1 - 1e-11, t1 + 1e-11, 101)


def test_case2_point_denominator_guard(red_k4):
    """Inside sqrt(eps) of the asymptote cn itself rounds onto -1.

    The time-based guard band is narrower than that rounding radius, so
    the evaluation must refuse on the denominator as well instead of
    dividing by zero.
    """
    (t1,) = asymptote_times(red_k4, 0.0, [0])
    with pytest.raises(AsymptoteProximityError) as excinfo:
        case2_Z(red_k4, t1 + 3e-9)
    assert excinfo.value.nearest_time == pytest.approx(t1, rel=1e-12)


@pytest.mark.parametrize(
    "t, t0", [(math.nan, 0.0), (math.inf, 0.0), (0.3, math.nan), (-math.inf, 0.0)]
)
def test_case2_rejects_non_finite_phase(red_k4, t, t0):
    for form in (case2_Z, case2_dZdt):
        with pytest.raises(ParameterDomainError):
            form(red_k4, t, t0)
        with pytest.raises(ParameterDomainError):
            form(red_k4, np.array([0.1, t]), t0)


def test_case2_series_conservation(scenario_k4, red_k4):
    params, beta = scenario_k4
    series = case2_series(params, red_k4, beta, 0.0, 0.3, 801)
    resid = (
        params.k * params.c * series.Z
        - params.k * params.A * np.exp(series.Z) * np.cos(series.X)
        - beta
    )
    assert np.max(np.abs(resid)) <= 1e-8 * max(1.0, abs(beta))


# ---------------------------------------------------------------- beta


def test_beta_round_trip(scenario_k1):
    """States built from the conservation law return their beta exactly."""
    params, _ = scenario_k1
    for X, Z in ((0.3, 0.25), (2.0, -1.0), (-1.2, 0.45), (1.5, 3.0)):
        env = params.k * params.A * math.exp(Z)
        beta_true = params.k * params.c * Z - env * math.cos(X)
        rate = env * math.sin(X)
        cand = beta_from_initial(params, Z, rate)
        gap = min(abs(cand.plus - beta_true), abs(cand.minus - beta_true))
        assert gap <= 1e-10 * max(1.0, abs(beta_true))


def test_beta_recovery_from_closed_form_is_truncation_limited(
    scenario_k1, red_k1
):
    """Closed-form states only recover beta to the truncation scale.

    The inversion assumes the untruncated speed relation while the
    series obeys its cubic truncation, so the gap is deterministic and
    sits well above rounding without being large.
    """
    params, beta = scenario_k1
    for t in (0.1, 0.7, 1.3):
        Z = case1_Z(red_k1, t)
        rate = case1_dZdt(red_k1, t)
        cand = beta_from_initial(params, Z, rate)
        gap = min(abs(cand.plus - beta), abs(cand.minus - beta))
        assert 1e-5 <= gap <= 2e-2


def test_beta_rejects_overspeed():
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    envelope = params.k * abs(params.A)  # at Z = 0
    with pytest.raises(ContractViolationError):
        beta_from_initial(params, 0.0, 1.5 * envelope)


def test_corrupted_beta_rejected_by_assembly(scenario_k1, red_k1):
    params, beta = scenario_k1
    T = period_case1(red_k1)
    with pytest.raises(ContractViolationError):
        case1_series(params, red_k1, beta + 1.0, 0.0, T, 257)


# ---------------------------------------------------------------- peakon


def test_peakon_zero_crossing():
    """z = 0 exactly where kA t + const2 = 1, i.e. t = (1 - const2)/(kA)."""
    params = WaveParams(k=2.0, a=0.1, g=9.8)
    pk = PeakonParams(const1=math.pi / (2.0 * params.k), const2=0.25)
    t = (1.0 - pk.const2) / (params.k * params.A)
    x, z = peakon_path(params, pk, t)
    assert z == pytest.approx(0.0, abs=1e-14)
    assert x == pytest.approx(params.c * t + pk.const1, rel=1e-14)


def test_peakon_blowup_time():
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    # const2 = 2 kA puts the asymptote at t* = -2 with w(t*) = 0 exactly.
    pk = PeakonParams(const1=1.0, const2=2.0 * params.k * params.A)
    t_star = pk.blowup_time(params)
    assert t_star == -2.0
    with pytest.raises(AsymptoteProximityError) as err:
        peakon_path(params, pk, t_star)
    assert err.value.nearest_time == t_star


def test_peakon_residual_on_aligned_side():
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    pk = PeakonParams(const1=math.pi / (2.0 * params.k), const2=1.0)
    t_star = pk.blowup_time(params)
    side = -1.0 if params.A > 0.0 else 1.0
    for dt in (0.05, 0.3, 1.0, 4.0):
        res1, res2 = peakon_residuals(params, pk, t_star + side * dt)
        assert res2 <= 1e-12
        assert res1 == pytest.approx(abs(params.c), rel=1e-12)


def test_peakon_series_skips_guard_band():
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    pk = PeakonParams(const1=0.0, const2=2.0 * params.k * params.A)
    t_star = pk.blowup_time(params)
    series = peakon_series(params, pk, t_star - 1.0, t_star + 1.0, 2001)
    assert series.case_tag == "peakon"
    assert series.asymptote_times == (t_star,)
    assert len(series.t) < 2001  # the on-asymptote sample was dropped
    w = params.k * params.A * series.t + pk.const2
    assert float(np.min(np.abs(w))) >= 1e-9
    assert np.all(series.X == params.k * pk.const1)
    # The path rises toward the spike from both sides of the window.
    assert float(series.z.max()) > 5.0
    assert series.z.argmax() not in (0, len(series.t) - 1)


def test_peakon_series_entirely_guarded():
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    pk = PeakonParams(const1=0.0, const2=1.0)
    t_star = pk.blowup_time(params)
    with pytest.raises(AsymptoteProximityError):
        peakon_series(params, pk, t_star - 1e-12, t_star + 1e-12, 5)


# ------------------------------------------------------- series contracts


def test_trajectory_series_rejects_frame_mismatch():
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    t = np.array([0.0, 1.0])
    x = np.array([0.0, 1.0])
    z = np.array([-1.0, -1.0])
    Z = params.k * z
    X = params.k * (x - params.c * t)
    TrajectorySeries(
        k=params.k, c=params.c, t=t, x=x, z=z, X=X + 0.0, Z=Z, case_tag="case1"
    )
    with pytest.raises(ContractViolationError):
        TrajectorySeries(
            k=params.k, c=params.c, t=t, x=x, z=z, X=X + 1e-6, Z=Z, case_tag="case1"
        )


def test_trajectory_series_rejects_unknown_tag():
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    t = np.array([0.0, 1.0])
    x = params.c * t
    z = np.array([-1.0, -1.0])
    with pytest.raises(ContractViolationError):
        TrajectorySeries(
            k=params.k,
            c=params.c,
            t=t,
            x=x,
            z=z,
            X=np.zeros_like(t),
            Z=params.k * z,
            case_tag="mystery",
        )


def test_zseries_requires_increasing_time():
    with pytest.raises(ContractViolationError):
        ZSeries(t=np.array([0.0, 0.0, 1.0]), Z=np.zeros(3))


# ------------------------------------------- frozen per-sample reference
# The scalar closed forms, their two asymptote guards and the per-sample
# series loops that the array path replaced, kept as the definition of
# the numbers it must reproduce.


def reference_case1_Z(red, t, t0=0.0):
    sn, cn, _ = jacobi_sn_cn_dn(red.C1 * (t - t0), red.k1sq)
    return red.Z2 * sn * sn + red.Z1 * cn * cn


def reference_case1_dZdt(red, t, t0=0.0):
    sn, cn, dn = jacobi_sn_cn_dn(red.C1 * (t - t0), red.k1sq)
    return 2.0 * red.C1 * (red.Z2 - red.Z1) * sn * cn * dn


def reference_case2_Z(red, t, t0=0.0):
    u = red.C2 * (t - t0)
    reference_guard_case2(red, u, t0)
    sn, cn, _ = jacobi_sn_cn_dn(u, red.k2sq)
    reference_guard_denominator(red, u, cn, t0)
    R = reference_radius(red)
    return red.Z0 + R * (1.0 - cn) / (1.0 + cn)


def reference_case2_dZdt(red, t, t0=0.0):
    u = red.C2 * (t - t0)
    reference_guard_case2(red, u, t0)
    sn, cn, dn = jacobi_sn_cn_dn(u, red.k2sq)
    reference_guard_denominator(red, u, cn, t0)
    R = reference_radius(red)
    return 2.0 * red.C2 * R * sn * dn / (1.0 + cn) ** 2


def reference_radius(red):
    return math.sqrt(red.Z0 * red.Z0 + red.p * red.Z0 + red.q)


def reference_guard_case2(red, u, t0):
    quarter = complete_K(red.k2sq)
    dist = math.remainder(u - 2.0 * quarter, 4.0 * quarter)
    if abs(dist) < ASYMPTOTE_GUARD:
        raise AsymptoteProximityError(
            f"case-2 evaluation within {abs(dist):.2e} of a vertical asymptote",
            nearest_time=t0 + (u - dist) / red.C2,
        )


def reference_guard_denominator(red, u, cn, t0):
    if 1.0 + cn < CN_DENOM_GUARD:
        quarter = complete_K(red.k2sq)
        dist = math.remainder(u - 2.0 * quarter, 4.0 * quarter)
        raise AsymptoteProximityError(
            f"cn rounded onto the vertical asymptote (phase gap {abs(dist):.2e})",
            nearest_time=t0 + (u - dist) / red.C2,
        )


def reference_case1_series(params, red, beta, t_start, t_end, n_samples, t0=0.0):
    t = _sample_grid(t_start, t_end, n_samples)
    Z = np.empty_like(t)
    dZdt = np.empty_like(t)
    span = red.Z2 - red.Z1
    for i, ti in enumerate(t):
        sn, cn, dn = jacobi_sn_cn_dn(red.C1 * (ti - t0), red.k1sq)
        Z[i] = red.Z2 * sn * sn + red.Z1 * cn * cn
        dZdt[i] = 2.0 * red.C1 * span * sn * cn * dn
    return assemble_xz(
        params,
        beta,
        ZSeries(t=t, Z=Z, dZdt=dZdt),
        case_tag="case1",
        period=period_case1(red),
    )


def reference_case2_series(params, red, beta, t_start, t_end, n_samples, t0=0.0):
    t = _sample_grid(t_start, t_end, n_samples)
    quarter = complete_K(red.k2sq)
    u = red.C2 * (t - t0)
    dist = np.remainder(u - 2.0 * quarter, 4.0 * quarter)
    dist = np.minimum(dist, 4.0 * quarter - dist)
    keep = dist >= ASYMPTOTE_GUARD
    if not np.any(keep):
        raise AsymptoteProximityError(
            "every requested sample sits inside the asymptote guard band"
        )
    t = t[keep]
    R = reference_radius(red)
    t_kept, Z_vals, dZdt_vals = [], [], []
    for ti in t:
        sn, cn, dn = jacobi_sn_cn_dn(red.C2 * (ti - t0), red.k2sq)
        denom = 1.0 + cn
        if denom < CN_DENOM_GUARD:
            continue
        t_kept.append(float(ti))
        Z_vals.append(red.Z0 + R * (1.0 - cn) / denom)
        dZdt_vals.append(2.0 * red.C2 * R * sn * dn / (denom * denom))
    if not t_kept:
        raise AsymptoteProximityError(
            "every requested sample sits inside the asymptote guard band"
        )
    n_lo = math.floor((red.C2 * (t_start - t0) / quarter - 2.0) / 4.0)
    n_hi = math.ceil((red.C2 * (t_end - t0) / quarter - 2.0) / 4.0)
    marks = tuple(
        ta
        for ta in asymptote_times(red, t0, range(n_lo, n_hi + 1))
        if t_start <= ta <= t_end
    )
    return assemble_xz(
        params,
        beta,
        ZSeries(t=np.asarray(t_kept), Z=np.asarray(Z_vals), dZdt=np.asarray(dZdt_vals)),
        case_tag="case2",
        asymptote_times=marks,
    )


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def series_outcome(fn, *args):
    """The series fn(*args) returns, or the DeepwaveError it raises."""
    try:
        return fn(*args)
    except DeepwaveError as exc:
        return exc


def assert_same_series(got, want):
    if isinstance(want, DeepwaveError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert isinstance(got, TrajectorySeries)
    # x and X left the frozen numbers when the one global arccos branch
    # gave way to per-sample sheets; the vertical motion did not move.
    for name in ("t", "z", "Z", "dZdt"):
        np.testing.assert_array_equal(
            bits(getattr(got, name)), bits(getattr(want, name)), err_msg=name
        )
    assert got.case_tag == want.case_tag
    assert got.period == want.period
    if want.asymptote_times is None:
        assert got.asymptote_times is None
    else:
        assert bits(got.asymptote_times).tolist() == bits(want.asymptote_times).tolist()


def reduction_of(all_scenarios, label):
    _, params, beta = next(s for s in all_scenarios if s[0] == label)
    return params, beta, classify_roots(build_cubic(params, beta))


def series_pair(red):
    if isinstance(red, Case1Reduction):
        return case1_series, reference_case1_series
    return case2_series, reference_case2_series


@pytest.mark.parametrize("label", ["k1", "k2", "k4"])
def test_series_match_reference_bits(all_scenarios, label):
    params, beta, red = reduction_of(all_scenarios, label)
    new, old = series_pair(red)
    args = (params, red, beta, -2.5, 7.5, 4001, 0.37)
    assert_same_series(series_outcome(new, *args), series_outcome(old, *args))


def test_case2_series_near_asymptote_match_reference(scenario_k4, red_k4):
    params, beta = scenario_k4
    t0 = 0.37
    (t1,) = asymptote_times(red_k4, t0, [0])
    args = (params, red_k4, beta, t1 - 1e-5, t1 + 1e-5, 2001, t0)
    got = case2_series(*args)
    assert 0 < got.t.size < 2001
    assert_same_series(got, reference_case2_series(*args))
    for half in (1e-8, 1e-11):
        args = (params, red_k4, beta, t1 - half, t1 + half, 2001, t0)
        with pytest.raises(AsymptoteProximityError):
            case2_series(*args)
        assert_same_series(
            series_outcome(case2_series, *args),
            series_outcome(reference_case2_series, *args),
        )


@given(
    label=st.sampled_from(["k1", "k2", "k4"]),
    t0=st.floats(-20.0, 20.0),
    t_start=st.floats(-50.0, 50.0),
    width=st.floats(1e-6, 30.0),
    n=st.integers(2, 300),
)
def test_series_match_reference_sweep(all_scenarios, label, t0, t_start, width, n):
    params, beta, red = reduction_of(all_scenarios, label)
    new, old = series_pair(red)
    args = (params, red, beta, t_start, t_start + width, n, t0)
    assert_same_series(series_outcome(new, *args), series_outcome(old, *args))


@given(
    index=st.integers(-50, 50),
    t0=st.floats(-20.0, 20.0),
    offset=st.floats(-1e-6, 1e-6),
    half=st.floats(1e-12, 1e-3),
    n=st.integers(2, 300),
)
def test_case2_series_around_asymptotes_match_reference(
    scenario_k4, red_k4, index, t0, offset, half, n
):
    params, beta = scenario_k4
    (ta,) = asymptote_times(red_k4, t0, [index])
    args = (params, red_k4, beta, ta + offset - half, ta + offset + half, n, t0)
    assert_same_series(
        series_outcome(case2_series, *args),
        series_outcome(reference_case2_series, *args),
    )


def test_point_forms_match_reference_scalars(all_scenarios):
    """Scalar calls agree with the old scalar forms: bit for bit, except
    case2_dZdt, which squares 1 + cn by multiplication where the old form
    raised it to the power 2 (two roundings apart at most)."""
    rng = np.random.default_rng(5)
    t0 = 0.37
    for label in ("k1", "k2"):
        _, _, red = reduction_of(all_scenarios, label)
        for t in rng.uniform(-60.0, 60.0, 500).tolist():
            assert bits(case1_Z(red, t, t0)) == bits(reference_case1_Z(red, t, t0))
            assert bits(case1_dZdt(red, t, t0)) == bits(
                reference_case1_dZdt(red, t, t0)
            )
    _, _, red = reduction_of(all_scenarios, "k4")
    ts = rng.uniform(-60.0, 60.0, 500).tolist()
    for ta in asymptote_times(red, t0, range(-3, 4)):
        for gap in (0.0, 1e-13, 1e-11, 3e-9, 1e-7, 1e-5, 1e-3):
            ts += [ta - gap, ta + gap]
    for t in ts:
        outcomes = []
        for fn in (case2_Z, reference_case2_Z, case2_dZdt, reference_case2_dZdt):
            try:
                outcomes.append(fn(red, t, t0))
            except AsymptoteProximityError as exc:
                outcomes.append(exc)
        Z, Z_ref, rate, rate_ref = outcomes
        if isinstance(Z_ref, AsymptoteProximityError):
            for exc in (Z, rate):
                assert isinstance(exc, AsymptoteProximityError)
                assert exc.nearest_time == pytest.approx(
                    Z_ref.nearest_time, rel=1e-12
                )
            continue
        assert bits(Z) == bits(Z_ref)
        assert abs(rate - rate_ref) <= 4.0 * np.finfo(float).eps * abs(rate_ref)


@pytest.mark.parametrize("label", ["k1", "k2", "k4"])
def test_array_call_matches_elementwise_scalars(all_scenarios, label):
    params, beta, red = reduction_of(all_scenarios, label)
    if isinstance(red, Case1Reduction):
        forms = (case1_Z, case1_dZdt)
        ts = np.linspace(-40.0, 40.0, 801)
    else:
        forms = (case2_Z, case2_dZdt)
        (t1,) = asymptote_times(red, 0.37, [0])
        ts = np.linspace(-0.9 * t1, 0.9 * t1, 801)
    for form in forms:
        values = form(red, ts, 0.37)
        assert isinstance(values, np.ndarray) and values.shape == ts.shape
        scalars = [form(red, t, 0.37) for t in ts.tolist()]
        assert all(type(v) is float for v in scalars)
        assert bits(values).tolist() == bits(scalars).tolist()
        assert type(form(red, np.float64(ts[3]), 0.37)) is float


@pytest.mark.parametrize(
    "half, n",
    [(1e-5, 2001), (1e-5, 2000), (1e-3, 4001), (0.4, 1001), (0.4, 1000), (1e-8, 2001)],
)
def test_case2_array_raises_iff_series_drops(scenario_k4, red_k4, half, n):
    params, beta = scenario_k4
    t0 = -0.21
    (t1,) = asymptote_times(red_k4, t0, [0])
    ts = np.linspace(t1 - half, t1 + half, n)
    series = series_outcome(
        case2_series, params, red_k4, beta, t1 - half, t1 + half, n, t0
    )
    dropped = isinstance(series, DeepwaveError) or series.t.size < n
    for form in (case2_Z, case2_dZdt):
        if not dropped:
            np.testing.assert_array_equal(
                bits(form(red_k4, ts, t0)),
                bits(series.Z if form is case2_Z else series.dZdt),
            )
            continue
        with pytest.raises(AsymptoteProximityError) as err:
            form(red_k4, ts, t0)
        assert err.value.nearest_time == t1
        if not isinstance(series, DeepwaveError):
            assert t1 in series.asymptote_times


def finite_or_deepwave_error(fn):
    try:
        value = fn()
    except DeepwaveError:
        return
    if isinstance(value, TrajectorySeries):
        arrays = [value.t, value.x, value.z, value.X, value.Z, value.dZdt]
        arrays.append(np.asarray(value.asymptote_times or (), dtype=float))
    else:
        arrays = [np.asarray(value)]
    for array in arrays:
        assert np.all(np.isfinite(array))


@given(
    k=st.floats(0.05, 50.0),
    a=st.floats(1e-3, 2.0),
    direction=st.sampled_from([1, -1]),
    beta=st.floats(-50.0, 50.0),
    t0=st.floats(-1e9, 1e9),
    t_start=st.floats(-1e9, 1e9),
    width=st.floats(1e-6, 100.0),
    n=st.integers(2, 64),
)
def test_closed_forms_finite_or_deepwave_error(
    k, a, direction, beta, t0, t_start, width, n
):
    """Over wide waves, both cases and windows out to |t| = 1e9, every
    closed form returns finite values or raises a DeepwaveError."""
    params = WaveParams(k=k, a=a, g=9.8, direction=direction)
    try:
        red = classify_roots(build_cubic(params, beta))
    except DeepwaveError:
        return
    if isinstance(red, Case1Reduction):
        forms, series = (case1_Z, case1_dZdt), case1_series
    else:
        forms, series = (case2_Z, case2_dZdt), case2_series
    t_end = t_start + width
    ts = np.linspace(t_start, t_end, n)
    for form in forms:
        finite_or_deepwave_error(lambda: form(red, t_start, t0))
        finite_or_deepwave_error(lambda: form(red, ts, t0))
    finite_or_deepwave_error(
        lambda: series(params, red, beta, t_start, t_end, n, t0)
    )
