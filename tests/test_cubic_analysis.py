"""Cubic classification against dense scans, mpmath roots, and quadrature."""

from __future__ import annotations

import math
import random
import re

import mpmath
import numpy as np
import pytest

from deepwave import (
    Case1Reduction,
    Case2Reduction,
    CubicCoeffs,
    DegenerateRootsError,
    ParameterDomainError,
    WaveParams,
    build_cubic,
    case1_Z,
    case2_Z,
    classify_roots,
    complete_K,
    discriminant,
    period_case1,
)
from deepwave.cubic_analysis import SCALE_MAX, _case1_data, _case2_data
from deepwave.errors import ContractViolationError


def draw_wave(rng: random.Random) -> tuple[WaveParams, float]:
    params = WaveParams(
        k=rng.uniform(0.5, 6.0),
        a=rng.uniform(0.05, 0.3),
        g=rng.uniform(1.0, 20.0),
    )
    return params, rng.uniform(-3.0, 3.0)


def brute_real_root_count(coeffs: CubicCoeffs, grid: np.ndarray) -> int:
    """Sign changes of P on a dense grid; valid when roots are separated
    by more than two grid steps and lie inside the window."""
    P = ((coeffs.a3 * grid + coeffs.a2) * grid + coeffs.a1) * grid + coeffs.a0
    return int(np.count_nonzero(np.diff(np.signbit(P))))


def test_build_cubic_against_high_precision():
    """Coefficients recomputed at 50 digits for the three scenarios."""
    for k, beta in ((1.0, 1.0), (2.0, -1.0), (4.0, 1.0)):
        params = WaveParams(k=k, a=0.1, g=9.8)
        coeffs = build_cubic(params, beta)
        with mpmath.workdps(50):
            mk = mpmath.mpf(k)
            ma = mpmath.mpf("0.1")
            mg = mpmath.mpf("9.8")
            mb = mpmath.mpf(beta)
            mc = mpmath.sqrt(mg / mk)
            mA = ma * mc * mk
            kA_sq = mk * mk * mA * mA
            ref = (
                4 * kA_sq / 3,
                mk * mk * (2 * mA * mA - mc * mc),
                2 * mk * (mk * mA * mA + mb * mc),
                kA_sq - mb * mb,
            )
            got = (coeffs.a3, coeffs.a2, coeffs.a1, coeffs.a0)
            for g_i, r_i in zip(got, ref):
                assert g_i == pytest.approx(float(r_i), rel=1e-14, abs=1e-300)


def test_leading_coefficient_encodes_velocity_scale():
    for k, beta in ((1.0, 1.0), (2.0, -1.0), (4.0, 1.0)):
        params = WaveParams(k=k, a=0.1, g=9.8)
        coeffs = build_cubic(params, beta)
        assert math.sqrt(3.0 * coeffs.a3) / 2.0 == pytest.approx(
            params.k * abs(params.A), rel=1e-14
        )


def test_scenario_roots_against_mpmath():
    """classify_roots vs mpmath.polyroots at 50 digits."""
    expected_cases = {1.0: Case1Reduction, 2.0: Case1Reduction, 4.0: Case2Reduction}
    for k, beta in ((1.0, 1.0), (2.0, -1.0), (4.0, 1.0)):
        params = WaveParams(k=k, a=0.1, g=9.8)
        coeffs = build_cubic(params, beta)
        red = classify_roots(coeffs)
        assert isinstance(red, expected_cases[k])
        with mpmath.workdps(50):
            roots = mpmath.polyroots(
                [coeffs.a3, coeffs.a2, coeffs.a1, coeffs.a0], maxsteps=200
            )
            real_roots = sorted(
                float(r.real) for r in roots if abs(r.imag) < 1e-30
            )
        if isinstance(red, Case1Reduction):
            assert len(real_roots) == 3
            for mine, ref in zip((red.Z1, red.Z2, red.Z3), real_roots):
                assert mine == pytest.approx(ref, rel=1e-12)
        else:
            assert len(real_roots) == 1
            assert red.Z0 == pytest.approx(real_roots[0], rel=1e-12)


def test_far_off_root_residual_scaled_to_its_terms():
    """One real root near 5440: |P(Z0)| ~ 1.8e-7 is about 2e-17 of the
    summed term size there, far above 1e-10 of the coefficient scale."""
    coeffs = build_cubic(WaveParams(k=13.4486, a=8.7305e-4, g=9.8), -9.6455)
    red = classify_roots(coeffs)
    assert isinstance(red, Case2Reduction)
    with mpmath.workdps(50):
        roots = mpmath.polyroots(
            [coeffs.a3, coeffs.a2, coeffs.a1, coeffs.a0], maxsteps=200, extraprec=200
        )
        (Z0,) = [float(r.real) for r in roots if abs(r.imag) < 1e-30]
    assert Z0 == pytest.approx(5440.5557, rel=1e-8)
    assert red.Z0 == pytest.approx(Z0, rel=1e-12)


def test_classification_against_dense_scan():
    """Root counts vs a 10^6-point scan of [-1e4, 1e4] on 500 draws."""
    rng = random.Random(20260819)
    grid = np.linspace(-1e4, 1e4, 1_000_000)
    draws = 0
    while draws < 500:
        params, beta = draw_wave(rng)
        coeffs = build_cubic(params, beta)
        try:
            red = classify_roots(coeffs)
        except DegenerateRootsError:
            continue  # genuinely borderline draw, counts would be unstable
        if isinstance(red, Case1Reduction):
            roots = (red.Z1, red.Z2, red.Z3)
            # The scan cannot split roots closer than two grid steps.
            if min(b - a for a, b in zip(roots, roots[1:])) < 0.05:
                continue
        else:
            roots = (red.Z0,)
        if max(abs(r) for r in roots) > 9e3:
            continue
        assert brute_real_root_count(coeffs, grid) == len(roots)
        draws += 1


def test_root_residuals_and_reconstruction():
    rng = random.Random(7)
    for _ in range(300):
        params, beta = draw_wave(rng)
        coeffs = build_cubic(params, beta)
        try:
            red = classify_roots(coeffs)
        except DegenerateRootsError:
            continue
        scale = coeffs.scale()
        if isinstance(red, Case1Reduction):
            for Z in (red.Z1, red.Z2, red.Z3):
                assert abs(coeffs.evaluate(Z)) <= 1e-10 * scale
            # Rebuild the coefficients from the roots (Vieta).
            s1 = red.Z1 + red.Z2 + red.Z3
            s2 = red.Z1 * red.Z2 + red.Z1 * red.Z3 + red.Z2 * red.Z3
            s3 = red.Z1 * red.Z2 * red.Z3
            rebuilt = (
                coeffs.a3,
                -coeffs.a3 * s1,
                coeffs.a3 * s2,
                -coeffs.a3 * s3,
            )
        else:
            assert abs(coeffs.evaluate(red.Z0)) <= 1e-10 * scale
            assert red.p * red.p - 4.0 * red.q < 0.0
            rebuilt = (
                coeffs.a3,
                coeffs.a3 * (red.p - red.Z0),
                coeffs.a3 * (red.q - red.p * red.Z0),
                -coeffs.a3 * red.q * red.Z0,
            )
        for got, ref in zip(
            (coeffs.a3, coeffs.a2, coeffs.a1, coeffs.a0), rebuilt
        ):
            assert abs(got - ref) <= 1e-10 * scale


def test_sign_structure():
    """a3 > 0 forces the sign pattern -, +, -, + across the real roots."""
    rng = random.Random(99)
    checked = 0
    while checked < 60:
        params, beta = draw_wave(rng)
        coeffs = build_cubic(params, beta)
        try:
            red = classify_roots(coeffs)
        except DegenerateRootsError:
            continue
        if not isinstance(red, Case1Reduction):
            continue
        spans = [
            (red.Z1, red.Z2, 1.0),
            (red.Z2, red.Z3, -1.0),
        ]
        for lo, hi, sign in spans:
            pad = 1e-3 * (hi - lo)
            for Z in np.linspace(lo + pad, hi - pad, 100):
                assert sign * coeffs.evaluate(float(Z)) > 0.0
        below = red.Z1 - 1.0
        above = red.Z3 + 1.0
        assert coeffs.evaluate(below) < 0.0
        assert coeffs.evaluate(above) > 0.0
        checked += 1


@pytest.mark.parametrize("s", [1.0, 1e-8, 1e8])
def test_degenerate_double_root_rejected(s):
    # s (Z - 1)^2 (Z - 2) has a vanishing discriminant at every scale.
    coeffs = CubicCoeffs(a3=s, a2=-4.0 * s, a1=5.0 * s, a0=-2.0 * s)
    with pytest.raises(DegenerateRootsError):
        classify_roots(coeffs)


def test_zero_leading_coefficient_rejected():
    with pytest.raises(ContractViolationError):
        classify_roots(CubicCoeffs(a3=0.0, a2=1.0, a1=0.0, a0=-1.0))


def test_underflowing_leading_coefficient_is_a_domain_error():
    """(4/3) k^2 A^2 underflows to 0 at a = 1e-200: the caller's amplitude
    is out of range, where a hand-built a3 = 0 (above) breaks a contract."""
    with pytest.raises(ParameterDomainError, match="underflows"):
        build_cubic(WaveParams(k=1.0, a=1e-200, g=9.8), 1.0)


@pytest.mark.parametrize(
    "k, a, beta",
    [(1e100, 1e-101, 1e200), (1e100, 1e-101, -1e200), (1.0, 0.1, 1e300),
     (1.0, 0.1, math.nan)],
)
def test_non_finite_coefficient_is_a_domain_error(k, a, beta):
    """a0 = k^2 A^2 - beta^2 overflows to -inf at beta = +-1e200 with
    k = 1e100, a = 1e-101 (whose discriminant then reads NaN) and at
    beta = 1e300 on k1; a NaN beta makes a1 and a0 NaN.  build_cubic
    rejects each where the coefficients are made."""
    with pytest.raises(ParameterDomainError, match="not finite"):
        build_cubic(WaveParams(k=k, a=a, g=9.8), beta)


def test_discriminant_sign_matches_root_count():
    rng = random.Random(31)
    for _ in range(200):
        params, beta = draw_wave(rng)
        coeffs = build_cubic(params, beta)
        try:
            red = classify_roots(coeffs)
        except DegenerateRootsError:
            continue
        delta = discriminant(coeffs)
        if isinstance(red, Case1Reduction):
            assert delta > 0.0
        else:
            assert delta < 0.0


def test_case1_period_against_quadrature(scenario_k1, scenario_k2):
    """2 K(k1^2) / C1 vs direct quadrature of dZ / sqrt(P) over [Z1, Z2].

    The substitution Z = Z1 + (Z2 - Z1) sin^2(phi) removes both
    square-root endpoint singularities, leaving a smooth integrand
    2 / sqrt(a3 (Z3 - Z(phi))) on [0, pi/2].
    """
    for params, beta in (scenario_k1, scenario_k2):
        coeffs = build_cubic(params, beta)
        red = classify_roots(coeffs)
        assert isinstance(red, Case1Reduction)
        nodes, weights = np.polynomial.legendre.leggauss(120)
        phi = 0.5 * (nodes + 1.0) * (math.pi / 2.0)
        w = weights * (math.pi / 4.0)
        Zphi = red.Z1 + (red.Z2 - red.Z1) * np.sin(phi) ** 2
        half_period = np.sum(w * 2.0 / np.sqrt(coeffs.a3 * (red.Z3 - Zphi)))
        closed = 2.0 * complete_K(red.k1sq) / red.C1
        assert closed == pytest.approx(2.0 * float(half_period), rel=1e-12)


def test_case1_reduction_shape(scenario_k1):
    params, beta = scenario_k1
    red = classify_roots(build_cubic(params, beta))
    assert red.Z1 < red.Z2 < red.Z3
    assert 0.0 < red.k1sq < 1.0
    assert red.C1 > 0.0
    assert red.k1sq == pytest.approx(
        (red.Z2 - red.Z1) / (red.Z3 - red.Z1), rel=1e-14
    )


def test_case2_reduction_shape(scenario_k4):
    params, beta = scenario_k4
    red = classify_roots(build_cubic(params, beta))
    coeffs = build_cubic(params, beta)
    R = math.sqrt(red.Z0 * red.Z0 + red.p * red.Z0 + red.q)
    assert 0.0 < red.k2sq < 1.0
    # C2^2 = (4/3) k^2 A^2 R = a3 R ties the frequency to the radius.
    assert red.C2 * red.C2 == pytest.approx(coeffs.a3 * R, rel=1e-12)
    assert red.k2sq == pytest.approx(
        0.5 * (1.0 - (red.Z0 + red.p / 2.0) / R), rel=1e-12
    )


def test_reduce_case1_rejects_unordered_roots():
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    with pytest.raises(DegenerateRootsError):
        _case1_data(1.0, 1.0, 2.0, params.k * abs(params.A))


def test_reduce_case2_rejects_real_quadratic():
    params = WaveParams(k=1.0, a=0.1, g=9.8)
    # p^2 - 4q >= 0 means the "complex pair" is actually real.
    with pytest.raises(ContractViolationError):
        _case2_data(0.5, -3.0, 2.0, params.k * abs(params.A))


@pytest.mark.parametrize("beta", [1e150, 1e80])
def test_non_finite_discriminant_is_a_domain_error(beta):
    """The coefficients are finite, but the discriminant's quartic terms
    overflow: it read NaN at beta 1e150 and -inf at 1e80.  classify_roots
    raises the same scale message as before."""
    coeffs = build_cubic(WaveParams(k=1.0, a=0.1, g=9.8), beta)
    message = re.escape(f"cubic coefficient scale {coeffs.scale()} is out of range")
    with pytest.raises(ParameterDomainError, match=message):
        discriminant(coeffs)
    with pytest.raises(ParameterDomainError, match=message):
        classify_roots(coeffs)


@pytest.mark.parametrize("beta", [1e39, -1e39, 1e150])
def test_coefficients_beyond_scale_max_rejected(beta):
    """scale^4 of the discriminant test would overflow.  (At beta = 1e300
    a0 itself overflows, which build_cubic rejects: see
    test_non_finite_coefficient_is_a_domain_error.)"""
    coeffs = build_cubic(WaveParams(k=1.0, a=0.1, g=9.8), beta)
    assert coeffs.scale() > SCALE_MAX
    with pytest.raises(ParameterDomainError, match="out of range"):
        classify_roots(coeffs)


# Where two roots meet: the k = 1, a = 0.1 cubic's discriminant changes
# sign at BETA_STAR.  At beta*(1 - delta) it has three real roots, of
# which Z1 and Z2 close in (case 1, m -> 0); at beta*(1 + delta) it has
# one, and the complex pair closes in (case 2, m -> 0 too).  The reference
# is 60-digit mpmath on build_cubic's float coefficients taken exactly, so
# it measures the solver, not the rounding of beta.
BETA_STAR = -2.508822878824989
TWO_ROOTS_DELTAS = (1e-2, 1e-4, 1e-6, 1e-8)

# delta: bounds on (max |Z err|, relative error of k1^2), about twice the
# measured (2.0e-15, 2.9e-15), (1.1e-14, 4.8e-12), (9.0e-14, 8.2e-10) and
# (2.5e-12, 3.6e-8): Newton on a float Horner P resolves each of two close
# roots only to about sqrt(eps * scale / a3), and k1^2 subtracts them.
CASE1_TWO_ROOTS_BOUNDS = {
    1e-2: (4e-15, 6e-15),
    1e-4: (3e-14, 1e-11),
    1e-6: (2e-13, 2e-9),
    1e-8: (6e-12, 8e-8),
}


def _mp_cubic(coeffs: CubicCoeffs) -> tuple[list, mpmath.mpf]:
    """The roots of P at 60 digits, and k|A| = sqrt(3 a3)/2."""
    a = [mpmath.mpf(v) for v in (coeffs.a3, coeffs.a2, coeffs.a1, coeffs.a0)]
    return mpmath.polyroots(a, maxsteps=200, extraprec=200), mpmath.sqrt(3 * a[0]) / 2


@pytest.mark.parametrize("delta", TWO_ROOTS_DELTAS)
def test_case1_accuracy_where_two_roots_meet(delta):
    """case1_Z over three periods, and k1^2, against the mpmath chain:
    roots, k1^2 = (Z2 - Z1)/(Z3 - Z1), C1 = k|A| sqrt(Z3 - Z1)/sqrt(3)
    and Z = Z2 sn^2 + Z1 cn^2 at C1 t."""
    coeffs = build_cubic(WaveParams(k=1.0, a=0.1, g=9.8), BETA_STAR * (1.0 - delta))
    red = classify_roots(coeffs)
    assert isinstance(red, Case1Reduction)
    ts = np.linspace(0.0, 3.0 * period_case1(red), 301)
    with mpmath.workdps(60):
        roots, kA = _mp_cubic(coeffs)
        Z1, Z2, Z3 = sorted(mpmath.re(r) for r in roots)
        m = (Z2 - Z1) / (Z3 - Z1)
        C1 = kA * mpmath.sqrt(Z3 - Z1) / mpmath.sqrt(3)
        ref = [
            Z2 * mpmath.ellipfun("sn", C1 * t, m=m) ** 2
            + Z1 * mpmath.ellipfun("cn", C1 * t, m=m) ** 2
            for t in map(mpmath.mpf, ts.tolist())
        ]
        Z_err = max(abs(float(r - z)) for r, z in zip(ref, case1_Z(red, ts)))
        m_err = abs(float((red.k1sq - m) / m))
    Z_bound, m_bound = CASE1_TWO_ROOTS_BOUNDS[delta]
    assert Z_err <= Z_bound and m_err <= m_bound, (Z_err, m_err)


@pytest.mark.parametrize("delta", TWO_ROOTS_DELTAS)
def test_case2_accuracy_where_two_roots_meet(delta):
    """case2_Z over three periods, at phases within 1.5 K of a minimum,
    and k2^2, against the mpmath chain: Z0, p and q from the roots, then
    k2^2, C2 and Z = Z0 + s (1 - cn)/(1 + cn) at C2 t.  The closing pair
    is the complex one, and Z0 ~ 75 stays far from it: whatever delta,
    the relative error of Z measured 4.3e-15 to 1.4e-14, and k2^2 (5e-9
    down to 5e-15) was within 3.6e-17 of the reference."""
    coeffs = build_cubic(WaveParams(k=1.0, a=0.1, g=9.8), BETA_STAR * (1.0 + delta))
    red = classify_roots(coeffs)
    assert isinstance(red, Case2Reduction)
    quarter = complete_K(red.k2sq)
    ts = np.linspace(0.0, 3.0 * 4.0 * quarter / red.C2, 1201)
    phase = np.remainder(red.C2 * ts + 2.0 * quarter, 4.0 * quarter) - 2.0 * quarter
    ts = ts[np.abs(phase) <= 1.5 * quarter]
    with mpmath.workdps(60):
        roots, kA = _mp_cubic(coeffs)
        Z0 = min(roots, key=lambda r: abs(mpmath.im(r))).real
        pair = max(roots, key=lambda r: abs(mpmath.im(r)))
        p, q = -2 * pair.real, abs(pair) ** 2
        s = mpmath.sqrt(Z0 * Z0 + p * Z0 + q)
        m = (1 - (Z0 + p / 2) / s) / 2
        C2 = 2 / mpmath.sqrt(3) * kA * mpmath.sqrt(s)
        cn = [mpmath.ellipfun("cn", C2 * t, m=m) for t in map(mpmath.mpf, ts.tolist())]
        ref = [Z0 + s * (1 - c) / (1 + c) for c in cn]
        Z_err = max(abs(float((r - z) / r)) for r, z in zip(ref, case2_Z(red, ts)))
        m_err = abs(float(red.k2sq - m))
    assert Z_err <= 3e-14 and m_err <= 1e-16, (Z_err, m_err)
