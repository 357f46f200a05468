"""Field formulas against a high-precision recomputation and basic identities."""

from __future__ import annotations

import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deepwave import ParameterDomainError, WaveParams, evaluate_field, phase
from deepwave.wave_field import TAU

finite_k = st.floats(min_value=0.05, max_value=50.0)
finite_g = st.floats(min_value=0.1, max_value=100.0)
finite_a = st.floats(min_value=1e-3, max_value=2.0)
coord = st.floats(min_value=-50.0, max_value=50.0)
depth = st.floats(min_value=-30.0, max_value=2.0)


@given(k=finite_k, g=finite_g, direction=st.sampled_from([-1, 1]))
def test_dispersion_identity(k, g, direction):
    params = WaveParams(k=k, a=0.1, g=g, direction=direction)
    c = params.c
    assert math.copysign(1.0, c) == direction
    assert abs(c * c * k / g - 1.0) <= 1e-12


@given(k=finite_k, g=finite_g)
def test_longer_waves_travel_faster(k, g):
    slow = WaveParams(k=2.0 * k, a=0.1, g=g)
    fast = WaveParams(k=k, a=0.1, g=g)
    assert abs(fast.c) > abs(slow.c)


@given(k=finite_k, g=finite_g, a=finite_a)
def test_velocity_amplitude_relation(k, g, a):
    params = WaveParams(k=k, a=a, g=g)
    A = params.A
    assert A == pytest.approx(a * params.c * k, rel=1e-15)


def test_wavelength_and_period():
    params = WaveParams(k=2.0, a=0.1, g=9.8)
    assert params.wavelength == pytest.approx(math.pi, rel=1e-15)
    assert params.wave_period == pytest.approx(TAU / (2.0 * abs(params.c)), rel=1e-15)


@given(x=coord, t=coord, k=finite_k, g=finite_g)
def test_phase_is_reduced_and_periodic(x, t, k, g):
    params = WaveParams(k=k, a=0.1, g=g)
    th = phase(params, x, t)
    assert -math.pi <= th <= math.pi
    shifted = phase(params, x + params.wavelength, t)
    assert math.cos(shifted) == pytest.approx(math.cos(th), abs=1e-9)
    assert math.sin(shifted) == pytest.approx(math.sin(th), abs=1e-9)


@given(x=coord, z=depth, t=coord)
def test_velocity_envelope(x, z, t):
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    s = evaluate_field(params, x, z, t)
    envelope = params.A * math.exp(params.k * z)
    assert s.u * s.u + s.v * s.v == pytest.approx(envelope * envelope, rel=1e-12)


def test_field_against_high_precision_recomputation():
    """Every component recomputed at 50 digits at fixed probe points."""
    params = WaveParams(k=2.0, a=0.15, g=9.8, p0=1.5, rho=1.2)
    with mpmath.workdps(50):
        k = mpmath.mpf(2)
        a = mpmath.mpf("0.15")
        g = mpmath.mpf("9.8")
        p0 = mpmath.mpf("1.5")
        rho = mpmath.mpf("1.2")
        c = mpmath.sqrt(g / k)
        A = a * c * k
        for x, z, t in [(0.3, -0.5, 0.2), (-7.0, -2.0, 11.0), (100.0, -0.01, -3.0)]:
            th = k * (mpmath.mpf(x) - c * mpmath.mpf(t))
            env = A * mpmath.exp(k * mpmath.mpf(z))
            u_ref = env * mpmath.cos(th)
            v_ref = env * mpmath.sin(th)
            eta_ref = a * mpmath.cos(th)
            p_ref = (
                p0
                - rho * g * mpmath.mpf(z)
                + rho * a * g * mpmath.exp(k * mpmath.mpf(z)) * mpmath.cos(th)
            )
            s = evaluate_field(params, x, z, t)
            assert s.u == pytest.approx(float(u_ref), rel=1e-12, abs=1e-13)
            assert s.v == pytest.approx(float(v_ref), rel=1e-12, abs=1e-13)
            assert s.eta == pytest.approx(float(eta_ref), rel=1e-12, abs=1e-13)
            assert s.p == pytest.approx(float(p_ref), rel=1e-12)


def test_pressure_decomposition():
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    # At a crest (theta = 0) on the mean line the dynamic part is a g.
    t_crest = 0.0
    s = evaluate_field(params, 0.0, 0.0, t_crest)
    assert s.p == pytest.approx(params.a * params.g, rel=1e-12)
    # Hydrostatic growth with depth dominates at depth.
    deep = evaluate_field(params, 0.0, -5.0, t_crest)
    assert deep.p > s.p


def test_surface_flag():
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    s = evaluate_field(params, 0.0, 0.2, 0.0)
    assert s.above_surface  # crest is at eta = 0.1 < 0.2
    assert not evaluate_field(params, 0.0, -0.2, 0.0).above_surface


def test_left_going_wave_mirrors_velocity():
    right = WaveParams(k=1.0, a=0.1, g=9.8, direction=1)
    left = WaveParams(k=1.0, a=0.1, g=9.8, direction=-1)
    assert left.c == -right.c
    assert left.A == -right.A
    sr = evaluate_field(right, 0.4, -1.0, 0.0)
    sl = evaluate_field(left, -0.4, -1.0, 0.0)
    # Mirror symmetry x -> -x at t = 0: u flips, v flips with A's sign.
    assert sl.u == pytest.approx(-sr.u, rel=1e-12)
    assert sl.v == pytest.approx(sr.v, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(k=0.0),
        dict(k=-1.0),
        dict(k=math.nan),
        dict(a=0.0),
        dict(a=-0.1),
        dict(g=0.0),
        dict(g=-9.8),
        dict(direction=0),
        dict(direction=2),
        dict(rho=0.0),
        dict(p0=math.inf),
    ],
)
def test_parameter_validation(kwargs):
    base = dict(k=1.0, a=0.1, g=9.8)
    base.update(kwargs)
    with pytest.raises(ParameterDomainError):
        WaveParams(**base)


@pytest.mark.parametrize(
    ("k", "x", "z", "t"),
    [
        (1.0, 0.0, 1000.0, 0.0),  # e^{kz} overflows
        (1.0, 0.0, -1e308, 0.0),  # the hydrostatic term rho g z overflows
        (10.0, 1e308, 0.0, 0.0),  # k(x - ct) overflows
        (1.0, 0.0, 0.0, math.nan),
        (1.0, math.inf, 0.0, 0.0),
        (1.0, 0.0, math.nan, 0.0),
        (1.0, 0.0, -math.inf, 0.0),
    ],
)
def test_field_rejects_non_finite_input_and_overflow(k, x, z, t):
    with pytest.raises(ParameterDomainError):
        evaluate_field(WaveParams(k=k, a=0.1, g=9.8), x, z, t)


def test_field_just_below_exp_overflow_is_finite():
    params = WaveParams(k=1.0, a=1e-300, g=9.8)
    s = evaluate_field(params, 0.0, 700.0, 0.0)
    assert all(math.isfinite(v) for v in (s.u, s.v, s.p, s.eta))


@pytest.mark.parametrize("t", [math.nan, math.inf, 1e308])
def test_phase_rejects_non_finite_phase(t):
    with pytest.raises(ParameterDomainError, match="phase"):
        phase(WaveParams(k=10.0, a=0.1, g=9.8), 0.0, t)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(k=1e-308),  # c = sqrt(g/k) overflows
        dict(k=6.26e-145, g=1.06e-281),  # kA underflows to 0
        dict(k=1e308),  # kA overflows
    ],
)
def test_wave_speed_and_kA_must_be_finite(kwargs):
    with pytest.raises(ParameterDomainError):
        WaveParams(**{**dict(k=1.0, a=0.1, g=9.8), **kwargs})
