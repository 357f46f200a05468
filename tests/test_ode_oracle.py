"""Integrator order, conservation, events, and dense-output contracts.

The second half checks the two-component steppers bit for bit against
the generic tuple steppers they replaced, kept below as reference
copies: knots, dense samples, derivatives and event states must match
to the last bit, and so must every validate-battery result and the
message and last state of each StiffnessError branch.
"""

from __future__ import annotations

import contextlib
import math
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepwave import (
    DeepwaveError,
    IntegratorConfig,
    ParameterDomainError,
    StiffnessError,
    WaveParams,
    build_cubic,
    classify_roots,
    complete_K,
    integrate_full,
    integrate_moving_frame,
    integrate_truncated,
    residual_full_Z_ode,
)
from deepwave import ode_oracle
from deepwave.cli import trajectory_series
from deepwave.ode_oracle import EVENT_DT, MIN_ADAPTIVE_DT, SLIVER_FRACTION
from deepwave.scenario import build_scenario
from deepwave.trajectories import asymptote_times, beta_from_initial
from deepwave.validation import _FRAME_STEPS_PER_PERIOD, run_battery

# The frame-equivalence check's step count, and the 4000 it ran at before:
# 40 000 steps over its ten periods, where a sliver step once showed.
FRAME_STEPS = [_FRAME_STEPS_PER_PERIOD, 4000]


def test_for_wave_caps_the_window():
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    longest = ode_oracle.MAX_WAVE_PERIODS * params.wave_period
    assert IntegratorConfig.for_wave(params, 0.0, longest).t_end == longest
    with pytest.raises(ParameterDomainError, match="wave periods"):
        IntegratorConfig.for_wave(params, 0.0, 1.001 * longest)


def test_config_validation():
    with pytest.raises(ParameterDomainError):
        IntegratorConfig(0.0, 0.0, dt=0.1)
    # The series' check_window: an overflowing window is refused, too.
    with pytest.raises(ParameterDomainError, match="t_end - t_start overflows"):
        IntegratorConfig(-1e308, 1e308, dt=1.0, method="rk45")
    with pytest.raises(ParameterDomainError):
        IntegratorConfig(0.0, 1.0, dt=0.0)
    with pytest.raises(ParameterDomainError):
        IntegratorConfig(0.0, 1.0, dt=2.0)
    with pytest.raises(ParameterDomainError):
        IntegratorConfig(0.0, 1.0, dt=0.1, method="euler")
    with pytest.raises(ParameterDomainError):
        IntegratorConfig(0.0, 1.0, dt=0.1, abs_tol=0.0)
    cfg = IntegratorConfig.for_wave(WaveParams(k=1.0, a=0.1, g=9.8), 0.0, 1.0)
    assert cfg.method == "rk4"
    assert cfg.dt <= 1.0


def test_rk4_step_that_cannot_move_t_raises():
    """1e6 + 1e-12 == 1e6, so this run once stepped forever in place; the
    fixed step now obeys the adaptive stepper's floor."""
    with pytest.raises(ParameterDomainError, match="rk4 dt must be at least"):
        IntegratorConfig(1e6, 1e6 + 1.0, dt=1e-12)
    IntegratorConfig(1e6, 1e6 + 1.0, dt=1e-7)
    # RK45 meets the floor inside the run, as StiffnessError
    IntegratorConfig(1e6, 1e6 + 1.0, dt=1e-12, method="rk45")


def test_rk4_step_count_is_bounded():
    bound = ode_oracle.MAX_RK4_STEPS
    IntegratorConfig(0.0, 1.0, dt=1.0 / bound)
    for dt in (1.0 / (bound + 1), 1e-8):
        with pytest.raises(ParameterDomainError, match="more than"):
            IntegratorConfig(0.0, 1.0, dt=dt)
    with pytest.raises(ParameterDomainError, match="more than"):
        IntegratorConfig.for_wave(
            WaveParams(k=1.0, a=0.1, g=9.8), 0.0, 1.0, steps_per_period=10**9
        )
    IntegratorConfig(0.0, 1.0, dt=1e-8, method="rk45")


@pytest.mark.parametrize(
    "steps, message",
    [
        (10**400, "at most"),
        (2.5, "integer"),
        (2000.0, "integer"),
        ("2000", "integer"),
        (None, "integer"),
        (0, "positive"),
        (-3, "positive"),
    ],
)
@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_for_wave_rejects_a_step_count_that_is_not_a_float_sized_integer(
    steps, message, method
):
    """A raw OverflowError escaped at 10**400, and 2.5 was taken as it was."""
    with pytest.raises(ParameterDomainError, match=message):
        IntegratorConfig.for_wave(
            WaveParams(k=1.0, a=0.1, g=9.8), 0.0, 1.0, steps_per_period=steps,
            method=method,
        )


def test_for_wave_takes_any_integer_type():
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    want = IntegratorConfig.for_wave(params, 0.0, 1.0, steps_per_period=500)
    assert IntegratorConfig.for_wave(params, 0.0, 1.0, np.int64(500)) == want
    # Up to the largest float, the step is a float division.
    huge = IntegratorConfig.for_wave(params, 0.0, 1.0, 10**308, method="rk45")
    assert huge.dt == params.wave_period / 1e308


@pytest.mark.parametrize("k", [0.2, 1.0, 2.0, 4.0, 8.0, 0.37])
@pytest.mark.parametrize("t_start", [0.0, -3.7, 1e3])
def test_longest_for_wave_window_at_the_default_step_is_accepted(k, t_start):
    """MAX_RK4_STEPS admits for_wave's default step over MAX_WAVE_PERIODS,
    whichever way the window and the step round."""
    params = WaveParams(k=k, a=0.01, g=9.8)
    t_end = t_start + ode_oracle.MAX_WAVE_PERIODS * params.wave_period
    cfg = IntegratorConfig.for_wave(params, t_start, t_end)
    assert cfg.method == "rk4"
    steps = (cfg.t_end - cfg.t_start) / cfg.dt
    assert steps == pytest.approx(ode_oracle.MAX_RK4_STEPS)


@pytest.mark.parametrize("name", ["abs_tol", "rel_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1e-12])
def test_config_rejects_non_finite_or_non_positive_tolerance(name, value):
    """Checked at construction: a NaN tolerance accepts every RK45 trial
    and stalls the run short of t_end, an infinite one accepts a few
    huge steps and reports a path far from the oracle."""
    with pytest.raises(ParameterDomainError, match="finite and positive"):
        IntegratorConfig(0.0, 50.0, dt=1.0, method="rk45", **{name: value})


def test_fixed_step_order_four(scenario_k1):
    """Halving dt shrinks the error ~16x against a much finer reference."""
    params, _ = scenario_k1
    T = params.wave_period
    X0, Z0 = 1.1, -0.2
    coarse = integrate_moving_frame(
        params, X0, Z0, IntegratorConfig(0.0, T, dt=T / 80.0)
    )
    ts = [float(v) for v in coarse.t]
    half, ref = (
        integrate_moving_frame(
            params, X0, Z0, IntegratorConfig(0.0, T, dt=T / n), sample_times=ts
        )
        for n in (160.0, 2560.0)
    )
    e_coarse = max(
        np.max(np.abs(coarse.X - ref.X)), np.max(np.abs(coarse.Z - ref.Z))
    )
    e_half = max(np.max(np.abs(half.X - ref.X)), np.max(np.abs(half.Z - ref.Z)))
    assert 12.0 <= e_coarse / e_half <= 20.0


@pytest.mark.parametrize("steps_per_period", FRAME_STEPS)
def test_frame_equivalence_run_has_no_sliver_step(scenario_k1, steps_per_period):
    """Ten periods of the frame-equivalence run end at t_end after exactly
    ten times steps_per_period steps; at 4000 per period, accumulated
    rounding of t += dt once added a 3.5e-12 sliver step."""
    params, _ = scenario_k1
    cfg = IntegratorConfig.for_wave(
        params, 0.0, 10.0 * params.wave_period, steps_per_period=steps_per_period
    )
    series = integrate_moving_frame(params, math.pi / 3.0, 0.0, cfg)
    assert series.t.size == 10 * steps_per_period + 1
    assert series.t[-1] == cfg.t_end


@given(
    t_start=st.floats(-100.0, 100.0),
    periods=st.floats(0.001, 10.0),
    steps_per_period=st.integers(20, 200),
)
def test_fixed_steps_end_exactly_at_t_end(t_start, periods, steps_per_period):
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    t_end = t_start + periods * params.wave_period
    steps = math.ceil(periods * steps_per_period)
    cfg = IntegratorConfig(t_start, t_end, dt=(t_end - t_start) / steps)
    series = integrate_moving_frame(params, 0.5, -0.3, cfg)
    assert series.t.size == steps + 1
    assert series.t[-1] == t_end


def test_adaptive_matches_fixed(scenario_k1):
    """Compared at the adaptive knots, where the fine fixed-step run's
    dense output is effectively exact."""
    params, _ = scenario_k1
    T = params.wave_period
    X0, Z0 = 0.4, -0.1
    adaptive = integrate_moving_frame(
        params,
        X0,
        Z0,
        IntegratorConfig(
            0.0, T, dt=T / 100.0, method="rk45", abs_tol=1e-12, rel_tol=1e-12
        ),
    )
    ts = [float(v) for v in adaptive.t]
    fixed = integrate_moving_frame(
        params, X0, Z0, IntegratorConfig(0.0, T, dt=T / 4000.0), sample_times=ts
    )
    assert np.max(np.abs(fixed.X - adaptive.X)) <= 1e-8
    assert np.max(np.abs(fixed.Z - adaptive.Z)) <= 1e-8


def test_first_integral_conserved_along_truncated(scenario_k1):
    """E = (dZ/dt)^2 - P(Z) is constant along the truncated flow."""
    params, beta = scenario_k1
    coeffs = build_cubic(params, beta)
    red = classify_roots(coeffs)
    Z_mid = 0.5 * (red.Z1 + red.Z2)
    V0 = math.sqrt(coeffs.evaluate(Z_mid))
    T = 4.0 * complete_K(red.k1sq) / red.C1  # two bounce periods
    zs = integrate_truncated(
        coeffs, Z_mid, V0, IntegratorConfig(0.0, T, dt=T / 4000.0)
    )
    E = zs.dZdt**2 - np.array([coeffs.evaluate(float(Z)) for Z in zs.Z])
    E0 = V0 * V0 - coeffs.evaluate(Z_mid)
    assert np.max(np.abs(E - E0)) <= 1e-8 * max(1.0, abs(E0))


def test_moving_frame_conserves_beta(scenario_k1):
    params, _ = scenario_k1
    X0, Z0 = math.pi / 3.0, 0.0
    beta = (
        params.k * params.c * Z0
        - params.k * params.A * math.exp(Z0) * math.cos(X0)
    )
    cfg = IntegratorConfig.for_wave(params, 0.0, 5.0 * params.wave_period)
    series = integrate_moving_frame(params, X0, Z0, cfg)
    drift = (
        params.k * params.c * series.Z
        - params.k * params.A * np.exp(series.Z) * np.cos(series.X)
        - beta
    )
    assert np.max(np.abs(drift)) <= 1e-9


def test_oracle_series_tags(scenario_k1):
    params, _ = scenario_k1
    cfg = IntegratorConfig.for_wave(params, 0.0, 1.0, steps_per_period=500)
    full = integrate_full(params, 0.0, -0.5, cfg)
    frame = integrate_moving_frame(params, 0.0, -0.5, cfg)
    assert full.case_tag == "oracle-full"
    assert frame.case_tag == "oracle-full"


def test_escape_event_and_blowup_time(scenario_k4):
    """The escape event plus analytic tail lands on the closed-form
    asymptote time (the strong form of the 1e-4 acceptance bound)."""
    params, beta = scenario_k4
    coeffs = build_cubic(params, beta)
    red = classify_roots(coeffs)
    (t1,) = asymptote_times(red, 0.0, [0])
    cfg = IntegratorConfig(
        0.0, 3.0, dt=1e-3, method="rk45", abs_tol=1e-12, rel_tol=1e-10
    )
    zs = integrate_truncated(coeffs, red.Z0, 0.0, cfg)
    assert zs.blowup_time is not None
    assert zs.blowup_time == pytest.approx(t1, rel=1e-6)
    assert float(zs.t[-1]) < 3.0  # stopped early
    # The event bisection keeps the last pre-escape state.
    assert abs(float(zs.Z[-1])) <= 1e3 * (1.0 + 1e-9)


def test_escape_requires_inband_start(scenario_k4):
    params, beta = scenario_k4
    coeffs = build_cubic(params, beta)
    with pytest.raises(ParameterDomainError):
        integrate_truncated(coeffs, 2e3, 0.0, IntegratorConfig(0.0, 1.0, dt=1e-3))


def test_nan_initial_state_raises_stiffness(scenario_k1):
    params, beta = scenario_k1
    coeffs = build_cubic(params, beta)
    with pytest.raises(StiffnessError):
        integrate_truncated(coeffs, math.nan, 0.0, IntegratorConfig(0.0, 1.0, dt=1e-3))


@pytest.mark.parametrize("integrate", [integrate_full, integrate_moving_frame])
@pytest.mark.parametrize(
    ("method", "dt", "t_last"), [("rk4", 50.0, 0.0), ("rk4", 20.0, 20.0)]
)
def test_overflowing_step_raises_stiffness(integrate, method, dt, t_last):
    """A fixed step far too coarse for the wave overflows exp(kz) in the
    right-hand side: StiffnessError at the last accepted state, never a
    raw OverflowError."""
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    cfg = IntegratorConfig(0.0, 100.0, dt=dt, method=method)
    with pytest.raises(StiffnessError) as info:
        integrate(params, 0.5, -0.3, cfg)
    assert info.value.t_last == t_last
    assert all(math.isfinite(v) for v in info.value.state_last)
    if t_last == 0.0:
        assert info.value.state_last == (0.5, -0.3)


@pytest.mark.parametrize("integrate", [integrate_full, integrate_moving_frame])
@pytest.mark.parametrize("dt", [10.0, 20.0, 50.0])
def test_overflowing_adaptive_trial_is_halved(integrate, dt):
    """An adaptive trial step that overflows exp(kz) is rejected and
    halved like a non-finite one, so the run reaches t_end and agrees
    with a fine fixed-step run."""
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    cfg = IntegratorConfig(0.0, 100.0, dt=dt, method="rk45")
    run = integrate(params, 0.5, -0.3, cfg)
    fine = integrate(params, 0.5, -0.3, IntegratorConfig(0.0, 100.0, dt=0.01))
    assert run.t[-1] == 100.0
    assert np.all(np.isfinite(run.x)) and np.all(np.isfinite(run.z))
    assert abs(run.x[-1] - fine.x[-1]) <= 1e-4
    assert abs(run.z[-1] - fine.z[-1]) <= 1e-4


@pytest.mark.parametrize("integrate", [integrate_full, integrate_moving_frame])
@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_overflowing_initial_state_raises_stiffness(integrate, method):
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    cfg = IntegratorConfig(0.0, 1.0, dt=0.1, method=method)
    with pytest.raises(StiffnessError) as info:
        integrate(params, 0.0, 800.0, cfg)
    assert (info.value.t_last, info.value.state_last) == (0.0, (0.0, 800.0))


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_overflowing_phase_raises_stiffness(method):
    """k (x - c t) overflows to inf at x = 1e308, k = 4, and math.remainder
    rejects it: StiffnessError at the initial state, never a ValueError."""
    params = WaveParams(k=4.0, a=0.1, g=9.8)
    cfg = IntegratorConfig(0.0, 1.0, 0.01, method=method)
    with pytest.raises(StiffnessError) as info:
        integrate_full(params, 1e308, 0.0, cfg)
    assert (info.value.t_last, info.value.state_last) == (0.0, (1e308, 0.0))


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_domain_error_in_a_step(method):
    """A right-hand side that raises ValueError off its domain, as
    math.remainder does on an overflowed phase: a fixed step ends in
    StiffnessError at the last accepted state, an adaptive trial is
    rejected and halved and the run reaches t_end."""

    def rhs(t, a, b):
        return -a + 0.0 * math.log(a), 0.0  # a' = -a; log rejects a <= 0

    cfg = IntegratorConfig(0.0, 4.0, dt=4.0, method=method)
    if method == "rk4":
        with pytest.raises(StiffnessError) as info:
            ode_oracle._integrate(rhs, 1.0, 0.0, cfg, None, event=None)
        assert (info.value.t_last, info.value.state_last) == (0.0, (1.0, 0.0))
        return
    path = ode_oracle._integrate(rhs, 1.0, 0.0, cfg, None, event=None)
    assert path.t[-1] == 4.0
    assert path.a[-1] == pytest.approx(math.exp(-4.0), rel=1e-8)


def finite_or_deepwave_error(run) -> None:
    try:
        out = run()
    except DeepwaveError:
        return
    arrays = [out.t, out.Z, out.dZdt]
    if hasattr(out, "x"):
        arrays += [out.x, out.z, out.X]
    elif out.blowup_time is not None:
        arrays.append(np.array([out.blowup_time]))
    for array in arrays:
        assert np.all(np.isfinite(array))


@settings(max_examples=60, deadline=None)
@given(
    k=st.floats(1e-2, 1e2),
    steepness=st.floats(1e-4, 1.0),
    direction=st.sampled_from([1, -1]),
    X0=st.floats(-1e3, 1e3),
    Z0=st.floats(-50.0, 5.0),
    t_start=st.floats(-1e4, 1e4),
    periods=st.floats(1e-3, 3.0),
    steps=st.integers(1, 300),
    method=st.sampled_from(["rk4", "rk45"]),
)
def test_integrators_finite_or_deepwave_error(
    k, steepness, direction, X0, Z0, t_start, periods, steps, method
):
    """Over wide waves, states, steps and both methods, every integrator
    returns finite samples or raises a DeepwaveError (a too coarse step
    ends in StiffnessError, never in a raw OverflowError or a NaN)."""
    params = WaveParams(k=k, a=steepness / k, g=9.8, direction=direction)
    span = periods * params.wave_period
    try:
        cfg = IntegratorConfig(t_start, t_start + span, dt=span / steps, method=method)
    except DeepwaveError:
        return
    envelope = params.k * params.A * math.exp(Z0)
    beta = params.k * params.c * Z0 - envelope * math.cos(X0)
    finite_or_deepwave_error(lambda: integrate_full(params, X0 / k, Z0 / k, cfg))
    finite_or_deepwave_error(lambda: integrate_moving_frame(params, X0, Z0, cfg))
    finite_or_deepwave_error(
        lambda: integrate_truncated(
            build_cubic(params, beta), Z0, envelope * math.sin(X0), cfg
        )
    )


def test_gauss_legendre_rule_built_once(scenario_k4):
    params, beta = scenario_k4
    coeffs = build_cubic(params, beta)
    red = classify_roots(coeffs)
    cfg = IntegratorConfig(0.0, 3.0, dt=1e-3, method="rk45")
    ode_oracle._unit_gauss_legendre.cache_clear()
    blowups = [integrate_truncated(coeffs, red.Z0, 0.0, cfg).blowup_time for _ in "ab"]
    assert blowups[0] is not None and blowups[0] == blowups[1]
    assert ode_oracle._unit_gauss_legendre.cache_info().misses == 1
    nodes, weights = np.polynomial.legendre.leggauss(200)
    u, w = ode_oracle._unit_gauss_legendre()
    assert np.array_equal(u, 0.5 * (nodes + 1.0))
    assert np.array_equal(w, 0.5 * weights)


def test_dense_output_contracts(scenario_k1):
    params, _ = scenario_k1
    cfg = IntegratorConfig.for_wave(params, 0.0, 2.0, steps_per_period=200)
    samples = [0.0, 0.5, 1.0, 2.0]
    series = integrate_moving_frame(params, 0.3, -0.2, cfg, sample_times=samples)
    assert list(series.t) == samples
    with pytest.raises(ParameterDomainError):
        integrate_moving_frame(params, 0.3, -0.2, cfg, sample_times=[0.0, 2.5])
    with pytest.raises(ParameterDomainError):
        integrate_moving_frame(params, 0.3, -0.2, cfg, sample_times=[0.5, 0.5])


def three_integrators(scenario_k1):
    """integrate_full, integrate_moving_frame and integrate_truncated on
    k1 over one second, each as a function of sample_times alone."""
    params, beta = scenario_k1
    coeffs = build_cubic(params, beta)
    Z1 = classify_roots(coeffs).Z1
    cfg = IntegratorConfig(0.0, 1.0, dt=0.01)
    return {
        "full": lambda ts: integrate_full(params, 1.0, 0.0, cfg, sample_times=ts),
        "moving": lambda ts: integrate_moving_frame(
            params, 1.0, 0.0, cfg, sample_times=ts
        ),
        "truncated": lambda ts: integrate_truncated(
            coeffs, Z1, 0.0, cfg, sample_times=ts
        ),
    }


@pytest.mark.parametrize("name", ["full", "moving", "truncated"])
@pytest.mark.parametrize(
    "times", [[math.nan], [0.1, math.nan, 0.5], [math.inf], [0.1, -math.inf]]
)
def test_dense_output_rejects_non_finite_times(scenario_k1, name, times):
    """A non-finite sample time is the caller's error, not a NaN row (one
    time) or a series contract violation (several)."""
    with pytest.raises(ParameterDomainError, match="sample times must be finite"):
        three_integrators(scenario_k1)[name](times)


@pytest.mark.parametrize("name", ["full", "moving", "truncated"])
@pytest.mark.parametrize(
    "times", [[[0.1], [0.2, 0.3]], ["a"], [0.1, "b"], [10**400], [[0.1, 0.2]], [None]]
)
def test_malformed_sample_times_raise_parameter_domain(scenario_k1, name, times):
    """Ragged or non-numeric times are the caller's error, not numpy's raw
    ValueError."""
    with pytest.raises(ParameterDomainError, match="sample times must be finite"):
        three_integrators(scenario_k1)[name](times)


@pytest.mark.parametrize("name", ["full", "moving", "truncated"])
@pytest.mark.parametrize(
    "times, match",
    [
        ([math.nan], "finite"),
        ([0.5, 0.1], "increase strictly"),
        ([[0.1], [0.2, 0.3]], "finite"),
    ],
)
def test_sample_times_rejected_before_the_first_step(
    scenario_k1, monkeypatch, name, times, match
):
    steps = []
    step = ode_oracle._rk4_step

    def counted_step(*args):
        steps.append(args[1])
        return step(*args)

    monkeypatch.setattr(ode_oracle, "_rk4_step", counted_step)
    run = three_integrators(scenario_k1)[name]
    with pytest.raises(ParameterDomainError, match=match):
        run(times)
    assert steps == []
    run([0.5])
    assert len(steps) == 100  # the spy sees every step of a good run


@pytest.mark.parametrize("name", ["full", "moving", "truncated"])
def test_dense_output_same_bits_for_list_and_array(scenario_k1, name):
    run = three_integrators(scenario_k1)[name]
    times = np.linspace(0.0, 1.0, 37)
    got, want = run(times), run(times.tolist())
    fields = ("t", "Z", "dZdt") + (() if name == "truncated" else ("x", "z", "X"))
    for field in fields:
        np.testing.assert_array_equal(
            bits(getattr(got, field)), bits(getattr(want, field)), err_msg=field
        )


def test_dense_output_checks_times_before_the_event_cut(scenario_k4):
    """Times past the escape event are dropped, but only after every time
    has passed the finite and increasing checks."""
    params, beta = scenario_k4
    coeffs = build_cubic(params, beta)
    red = classify_roots(coeffs)
    cfg = IntegratorConfig(0.0, 3.0, dt=1e-3)
    zs = integrate_truncated(coeffs, red.Z0, 0.0, cfg, sample_times=[0.0, 0.1, 2.9])
    assert zs.t.tolist() == [0.0, 0.1]
    for times, match in (
        ([0.0, 0.1, math.nan], "finite"),
        ([0.0, 0.1, 2.9, 2.8], "increase strictly"),
        ([-1.0, 0.1, 2.9], "outside the integrated span"),
    ):
        with pytest.raises(ParameterDomainError, match=match):
            integrate_truncated(coeffs, red.Z0, 0.0, cfg, sample_times=times)
    with pytest.raises(ParameterDomainError, match="no sample times fell inside"):
        integrate_truncated(coeffs, red.Z0, 0.0, cfg, sample_times=[2.8, 2.9])


def test_dense_output_matches_knots(scenario_k1):
    """Interpolating exactly at knot times returns the knot states."""
    params, _ = scenario_k1
    cfg = IntegratorConfig.for_wave(params, 0.0, 1.0, steps_per_period=300)
    base = integrate_moving_frame(params, 0.9, -0.3, cfg)
    knots = [float(v) for v in base.t[:: 7]]
    again = integrate_moving_frame(params, 0.9, -0.3, cfg, sample_times=knots)
    take = base.X[:: 7], base.Z[:: 7]
    assert np.max(np.abs(again.X - take[0])) <= 1e-13
    assert np.max(np.abs(again.Z - take[1])) <= 1e-13


def test_oracle_knot_memory_is_bounded(scenario_k1):
    """A 10^5-step run keeps its knots as float64 buffers that the series
    views, not as lists of boxed floats copied into arrays (24 MB traced
    when it did)."""
    params, _ = scenario_k1
    t_end = 50.0 * params.wave_period
    cfg = IntegratorConfig(0.0, t_end, dt=t_end / 100_000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        series = integrate_moving_frame(params, 1.0, 0.0, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert series.t.size == 100_001
    assert not series.t.flags.owndata  # a view of the knot buffer, not a copy
    assert peak <= 14e6, f"peak {peak / 1e6:.1f} MB"


def test_residual_report_shape(scenario_k1):
    params, _ = scenario_k1
    X0, Z0 = math.pi / 3.0, 0.0
    beta = beta_from_initial(
        params, Z0, params.k * params.A * math.exp(Z0) * math.sin(X0)
    ).minus
    cfg = IntegratorConfig.for_wave(params, 0.0, 2.0 * params.wave_period)
    series = integrate_moving_frame(params, X0, Z0, cfg)
    rep = residual_full_Z_ode(params, beta, series)
    assert rep.n_samples > 1000
    assert rep.max_residual_eq1 <= 1e-8
    assert rep.max_residual_eq2 <= 1e-10
    # The trajectory crosses turning points, so samples were excluded.
    assert rep.n_samples < series.t.size


def test_residual_flags_wrong_constant(scenario_k1):
    params, _ = scenario_k1
    cfg = IntegratorConfig.for_wave(params, 0.0, params.wave_period)
    series = integrate_moving_frame(params, math.pi / 3.0, 0.0, cfg)
    Z0 = 0.0
    X0 = math.pi / 3.0
    beta = (
        params.k * params.c * Z0
        - params.k * params.A * math.exp(Z0) * math.cos(X0)
    )
    rep_good = residual_full_Z_ode(params, beta, series)
    rep_bad = residual_full_Z_ode(params, beta + 0.5, series)
    assert rep_bad.max_residual_eq1 > 100.0 * max(rep_good.max_residual_eq1, 1e-12)


def test_fehlberg_table_rows_sum_to_their_nodes():
    """Each stage row of the Fehlberg table sums to its node c_i and both
    weight rows sum to 1, each within the ulps of its rounded entries, and
    neither weight row weights stage 2, so a mistyped coefficient fails
    here naming its stage or row."""
    for stage, ((num, den), row) in enumerate(ode_oracle._FEHLBERG_STAGES, start=2):
        assert len(row) == stage - 1, f"stage {stage}: {len(row)} coefficients"
        node = num / den
        slack = math.ulp(node) + sum(math.ulp(c) for c in row)
        assert abs(math.fsum(row) - node) <= slack, (
            f"stage {stage}: row sums to {math.fsum(row)!r}, node {node!r}"
        )
    for name in ("_FEHLBERG_ORDER5", "_FEHLBERG_ORDER4"):
        pairs = getattr(ode_oracle, name)
        stages = [i + 1 for i, _ in pairs]
        assert stages == sorted(set(stages)), f"{name}: stages {stages}"
        assert 2 not in stages, f"{name} weights stage 2"
        assert stages[-1] <= len(ode_oracle._FEHLBERG_STAGES) + 1, name
        weights = [w for _, w in pairs]
        slack = math.ulp(1.0) + sum(math.ulp(w) for w in weights)
        assert abs(math.fsum(weights) - 1.0) <= slack, (
            f"{name}: weights sum to {math.fsum(weights)!r}"
        )


# --- reference steppers ------------------------------------------------
# The generic integrator over float tuples that the two-component
# steppers replaced, kept as the definition of the numbers they must
# reproduce.


def reference_integrate(rhs, y0, cfg, sample_times, event):
    knots_t = [cfg.t_start]
    knots_y = [y0]
    knots_f = [rhs(cfg.t_start, y0)]
    if not all(math.isfinite(v) for v in knots_f[0]):
        raise StiffnessError(
            "right-hand side not finite at the initial state",
            t_last=cfg.t_start,
            state_last=y0,
        )
    event_hit = None

    t = cfg.t_start
    y = y0
    h = cfg.dt
    adaptive = cfg.method == "rk45"
    while t < cfg.t_end:
        h_try = min(h, cfg.t_end - t)
        if not adaptive and cfg.t_end - t < (1.0 + SLIVER_FRACTION) * h:
            h_try = cfg.t_end - t
        if adaptive:
            step = reference_rkf45_step(rhs, t, y, h_try)
            if step is None:
                h = 0.5 * h_try
                if h < MIN_ADAPTIVE_DT * max(1.0, abs(t)):
                    raise StiffnessError(
                        "adaptive step size underflow", t_last=t, state_last=y
                    )
                continue
            y_new, err_scale = step
            tol = max(
                cfg.abs_tol,
                cfg.rel_tol * max(max(abs(v) for v in y), max(abs(v) for v in y_new)),
            )
            if err_scale > tol:
                h = h_try * max(0.2, 0.9 * (tol / err_scale) ** 0.2)
                if h < MIN_ADAPTIVE_DT * max(1.0, abs(t)):
                    raise StiffnessError(
                        "adaptive step size underflow", t_last=t, state_last=y
                    )
                continue
            h = h_try * min(5.0, max(0.2, 0.9 * (tol / max(err_scale, 1e-300)) ** 0.2))
        else:
            y_new = reference_rk4_step(rhs, t, y, h_try)

        bad = not all(math.isfinite(v) for v in y_new)
        if bad or (event is not None and event(y_new)):
            if event is None:
                raise StiffnessError(
                    "state became non-finite", t_last=t, state_last=y
                )
            t_ev, y_ev = reference_locate_event(rhs, t, y, h_try, event)
            knots_t.append(t_ev)
            knots_y.append(y_ev)
            knots_f.append(rhs(t_ev, y_ev))
            event_hit = (t_ev, y_ev)
            break
        t += h_try
        y = y_new
        knots_t.append(t)
        knots_y.append(y)
        knots_f.append(rhs(t, y))

    if sample_times is None:
        return knots_t, knots_y, knots_f, event_hit
    return reference_dense_output(
        rhs, knots_t, knots_y, knots_f, sample_times, event_hit
    )


def reference_dense_output(rhs, knots_t, knots_y, knots_f, sample_times, event_hit):
    out_t = []
    out_y = []
    out_f = []
    t_lo = knots_t[0]
    t_hi = knots_t[-1]
    previous = None
    for ts in sample_times:
        if previous is not None and ts <= previous:
            raise ParameterDomainError("sample times must increase strictly")
        previous = ts
        if ts < t_lo - 1e-12 or ts > t_hi + 1e-12:
            if event_hit is not None and ts > t_hi:
                continue
            raise ParameterDomainError(
                f"sample time {ts} outside the integrated span [{t_lo}, {t_hi}]"
            )
        ts = min(max(ts, t_lo), t_hi)
        i = bisect_right(knots_t, ts) - 1
        i = min(max(i, 0), len(knots_t) - 2)
        y = reference_hermite(
            knots_t[i], knots_y[i], knots_f[i],
            knots_t[i + 1], knots_y[i + 1], knots_f[i + 1],
            ts,
        )
        out_t.append(ts)
        out_y.append(y)
        out_f.append(rhs(ts, y))
    if not out_t:
        raise ParameterDomainError("no sample times fell inside the integrated span")
    return out_t, out_y, out_f, event_hit


def reference_hermite(t0, y0, f0, t1, y1, f1, ts):
    h = t1 - t0
    if h <= 0.0:
        return y0
    s = (ts - t0) / h
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return tuple(
        h00 * a + h10 * h * fa + h01 * b + h11 * h * fb
        for a, fa, b, fb in zip(y0, f0, y1, f1)
    )


def reference_locate_event(rhs, t, y, h, event):
    while h > EVENT_DT:
        h_half = 0.5 * h
        y_mid = reference_rk4_step(rhs, t, y, h_half)
        good = all(math.isfinite(v) for v in y_mid) and not event(y_mid)
        if good:
            t += h_half
            y = y_mid
        h = h_half
    return t, y


def reference_rk4_step(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, reference_axpy(y, 0.5 * h, k1))
    k3 = rhs(t + 0.5 * h, reference_axpy(y, 0.5 * h, k2))
    k4 = rhs(t + h, reference_axpy(y, h, k3))
    return tuple(
        yi + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    )


def reference_rkf45_step(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + h / 4.0, reference_comb(y, h, (1.0 / 4.0,), (k1,)))
    k3 = rhs(
        t + 3.0 * h / 8.0, reference_comb(y, h, (3.0 / 32.0, 9.0 / 32.0), (k1, k2))
    )
    k4 = rhs(
        t + 12.0 * h / 13.0,
        reference_comb(
            y, h,
            (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
            (k1, k2, k3),
        ),
    )
    k5 = rhs(
        t + h,
        reference_comb(
            y, h,
            (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
            (k1, k2, k3, k4),
        ),
    )
    k6 = rhs(
        t + 0.5 * h,
        reference_comb(
            y, h,
            (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
            (k1, k2, k3, k4, k5),
        ),
    )
    y5 = reference_comb(
        y, h,
        (16.0 / 135.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0),
        (k1, k3, k4, k5, k6),
    )
    y4 = reference_comb(
        y, h,
        (25.0 / 216.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0),
        (k1, k3, k4, k5),
    )
    if not all(math.isfinite(v) for v in y5):
        return None
    err = max(abs(a - b) for a, b in zip(y5, y4))
    return y5, err


def reference_axpy(y, h, k):
    return tuple(yi + h * ki for yi, ki in zip(y, k))


def reference_comb(y, h, coeffs, ks):
    out = list(y)
    for c, k in zip(coeffs, ks):
        for i, ki in enumerate(k):
            out[i] += h * c * ki
    return tuple(out)


def reference_path(rhs, a0, b0, cfg, sample_times, event):
    """The reference integrator behind the signature of ode_oracle._integrate."""
    t, ys, fs, hit = reference_integrate(
        lambda t, y: rhs(t, *y),
        (a0, b0),
        cfg,
        sample_times,
        None if event is None else (lambda y: event(*y)),
    )
    return ode_oracle._Path(
        t,
        [y[0] for y in ys],
        [y[1] for y in ys],
        [f[0] for f in fs],
        [f[1] for f in fs],
        None if hit is None else (hit[0], *hit[1]),
    )


@contextlib.contextmanager
def integrator(replacement):
    """Route every integration in ode_oracle through ``replacement``."""
    saved = ode_oracle._integrate
    ode_oracle._integrate = replacement
    try:
        yield
    finally:
        ode_oracle._integrate = saved


@contextlib.contextmanager
def twin():
    """Run each integration through both integrators and record both
    outcomes (a path or the DeepwaveError raised); callers get the
    current integrator's outcome."""
    current = ode_oracle._integrate
    runs = []

    def both(rhs, a0, b0, cfg, sample_times, event):
        outcomes = []
        for fn in (current, reference_path):
            try:
                outcomes.append(fn(rhs, a0, b0, cfg, sample_times, event))
            except DeepwaveError as exc:
                outcomes.append(exc)
        runs.append(tuple(outcomes))
        if isinstance(outcomes[0], DeepwaveError):
            raise outcomes[0]
        return outcomes[0]

    with integrator(both):
        yield runs


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def assert_same_outcome(got, want):
    if isinstance(want, DeepwaveError):
        assert type(got) is type(want) and str(got) == str(want)
        if isinstance(want, StiffnessError):
            assert bits([got.t_last, *got.state_last]).tolist() == bits(
                [want.t_last, *want.state_last]
            ).tolist()
        return
    assert isinstance(got, ode_oracle._Path)
    for name in ("t", "a", "b", "fa", "fb"):
        np.testing.assert_array_equal(
            bits(getattr(got, name)), bits(getattr(want, name)), err_msg=name
        )
    assert (got.event is None) == (want.event is None)
    if want.event is not None:
        assert bits(got.event).tolist() == bits(want.event).tolist()


def assert_twin_runs(runs, count):
    assert len(runs) == count
    for got, want in runs:
        assert_same_outcome(got, want)


@pytest.mark.parametrize("steps_per_period", FRAME_STEPS)
def test_frame_equivalence_runs_bit_identical(scenario_k1, steps_per_period):
    """The frame-equivalence check's RK4 runs, full and moving frame."""
    params, _ = scenario_k1
    X0, Z0 = math.pi / 3.0, 0.0
    cfg = IntegratorConfig.for_wave(
        params, 0.0, 10.0 * params.wave_period, steps_per_period=steps_per_period
    )
    with twin() as runs:
        integrate_full(params, X0 / params.k, Z0 / params.k, cfg)
        integrate_moving_frame(params, X0, Z0, cfg)
    assert_twin_runs(runs, 2)
    assert len(runs[0][0].t) == 10 * steps_per_period + 1


def test_cli_oracle_dense_output_bit_identical():
    """RK45 with dense output, configured as `trajectory --solution oracle`."""
    sc = build_scenario(
        None, dict(k=1.0, beta=1.0, solution="oracle", samples=2000)
    )
    with twin() as runs:
        series, _ = trajectory_series(sc)
    assert_twin_runs(runs, 1)
    assert series.t.size == 2000


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_truncated_escape_bit_identical(scenario_k4, method):
    """Through the escape event and its bisection, knots and samples."""
    params, beta = scenario_k4
    coeffs = build_cubic(params, beta)
    red = classify_roots(coeffs)
    cfg = IntegratorConfig(0.0, 3.0, dt=1e-3, method=method)
    ts = np.linspace(0.0, 3.0, 601)
    with twin() as runs:
        knots = integrate_truncated(coeffs, red.Z0, 0.0, cfg)
        samples = integrate_truncated(coeffs, red.Z0, 0.0, cfg, sample_times=ts)
    assert_twin_runs(runs, 2)
    assert runs[0][0].event is not None
    assert knots.blowup_time is not None
    assert samples.t.size < ts.size  # samples past the event are cut


def wall(beyond):
    """a' = -a before t = 0.5 and ``beyond`` from there on; b' = 1."""

    def rhs(t, a, b):
        return (-a if t < 0.5 else beyond), 1.0

    return rhs


def not_finite(t, a, b):
    return math.nan, 0.0


@pytest.mark.parametrize(
    ("rhs", "method", "message"),
    [
        (not_finite, "rk4", "right-hand side not finite at the initial state"),
        (not_finite, "rk45", "right-hand side not finite at the initial state"),
        # every trial across the wall is not finite and is halved
        (wall(math.inf), "rk45", "adaptive step size underflow"),
        # every trial across the wall is finite, with an error far above tolerance
        (wall(1e12), "rk45", "adaptive step size underflow"),
        (wall(math.inf), "rk4", "state became non-finite"),
    ],
    ids=["initial-rk4", "initial-rk45", "halved", "shrunk", "non-finite-rk4"],
)
def test_error_branch_bit_identical(rhs, method, message):
    """Each StiffnessError branch of the stepping loop: the same message
    and the same last state as the reference, bit for bit."""
    cfg = IntegratorConfig(0.0, 1.0, dt=0.3, method=method)
    outcomes = []
    for fn in (ode_oracle._integrate, reference_path):
        with pytest.raises(StiffnessError) as info:
            fn(rhs, 1.0, 0.0, cfg, None, None)
        outcomes.append(info.value)
    assert str(outcomes[0]) == message
    assert_same_outcome(*outcomes)


@given(
    k=st.floats(0.5, 4.0),
    steepness=st.floats(0.02, 0.4),
    direction=st.sampled_from([1, -1]),
    X0=st.floats(-math.pi, math.pi),
    Z0=st.floats(-1.5, 0.3),
    span=st.floats(0.05, 1.0),
    steps=st.integers(8, 200),
    method=st.sampled_from(["rk4", "rk45"]),
    dense=st.booleans(),
)
def test_steppers_bit_identical_sweep(
    k, steepness, direction, X0, Z0, span, steps, method, dense
):
    params = WaveParams(k=k, a=steepness / k, g=9.8, direction=direction)
    t_end = span * params.wave_period
    cfg = IntegratorConfig(0.0, t_end, dt=t_end / steps, method=method)
    ts = list(np.linspace(0.0, t_end, 37)) if dense else None
    envelope = params.k * params.A * math.exp(Z0)
    beta = params.k * params.c * Z0 - envelope * math.cos(X0)
    with twin() as runs:
        integrate_full(params, X0 / k, Z0 / k, cfg, sample_times=ts)
        integrate_moving_frame(params, X0, Z0, cfg, sample_times=ts)
        try:
            integrate_truncated(
                build_cubic(params, beta), Z0, envelope * math.sin(X0), cfg,
                sample_times=ts,
            )
        except DeepwaveError:
            pass
    assert_twin_runs(runs, 3)


@pytest.mark.parametrize("label", ["k1", "k2", "k4"])
def test_battery_results_identical_with_reference_steppers(all_scenarios, label):
    _, params, beta = next(s for s in all_scenarios if s[0] == label)
    current = run_battery(params, beta)
    with integrator(reference_path):
        reference = run_battery(params, beta)
    assert current == reference
    assert all(result.passed for result in current)
