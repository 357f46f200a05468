"""Elliptic functions and integrals against mpmath and classical identities."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deepwave import ParameterDomainError, complete_K, jacobi_sn_cn_dn
from deepwave.special_functions import _landen_chain, agm

modulus_sq = st.floats(min_value=1e-10, max_value=1.0 - 1e-10)
argument = st.floats(min_value=-30.0, max_value=30.0)

# Squared moduli at and next to both ends of the domain, plus the k2
# reference scenario (m ~ 0.0184) and m = 1/2, where a Landen stop test
# below one ulp is never met and the chain runs to its iteration cap.
EDGE_M = (0.0, 1e-16, 0.0184, 0.5, 1.0 - 5e-13, 1.0 - 2.0**-52)


def _mp_jacobi(u: float, m: float) -> tuple[float, float, float]:
    """mpmath reference at 40 digits, fed the exact binary u and m."""
    with mpmath.workdps(40):
        u_mp, m_mp = mpmath.mpf(u), mpmath.mpf(m)
        return tuple(
            float(mpmath.ellipfun(name, u_mp, m=m_mp)) for name in ("sn", "cn", "dn")
        )


def test_K_at_zero_is_quarter_circle():
    assert complete_K(0.0) == math.pi / 2.0


@pytest.mark.parametrize("m", [1e-12, 1e-6, 0.1, 0.25, 0.5, 0.9, 0.999, 1.0 - 1e-10])
def test_K_against_mpmath(m):
    ref = float(mpmath.ellipk(m))
    assert complete_K(m) == pytest.approx(ref, rel=1e-14)


@given(m=modulus_sq)
def test_K_against_mpmath_random(m):
    ref = float(mpmath.ellipk(m))
    assert complete_K(m) == pytest.approx(ref, rel=1e-13)


def test_K_monotone_and_divergent():
    ms = [0.0, 0.3, 0.6, 0.9, 0.99, 0.9999]
    Ks = [complete_K(m) for m in ms]
    assert all(b > a for a, b in zip(Ks, Ks[1:]))
    assert complete_K(1.0 - 1e-15) > 17.0  # ~ (1/2) log(16/(1-m))


@pytest.mark.parametrize("m", [-0.1, 1.0, 1.5, math.nan])
def test_K_domain(m):
    with pytest.raises(ParameterDomainError):
        complete_K(m)


@given(
    a=st.floats(min_value=1e-6, max_value=1e6),
    b=st.floats(min_value=1e-6, max_value=1e6),
)
def test_agm_bounds(a, b):
    m = agm(a, b)
    lo, hi = min(a, b), max(a, b)
    assert lo * (1.0 - 1e-14) <= m <= hi * (1.0 + 1e-14)
    assert m == pytest.approx(agm(b, a), rel=1e-15)


def test_agm_known_value():
    # Gauss's constant: agm(1, sqrt(2)) = sqrt(2) pi / (2 K(1/2)).
    ref = float(mpmath.agm(1, mpmath.sqrt(2)))
    assert agm(1.0, math.sqrt(2.0)) == pytest.approx(ref, rel=1e-15)


@given(u=argument, m=modulus_sq)
def test_jacobi_identities(u, m):
    sn, cn, dn = jacobi_sn_cn_dn(u, m)
    assert abs(sn * sn + cn * cn - 1.0) <= 1e-12
    assert abs(dn * dn + m * sn * sn - 1.0) <= 1e-12


@given(u=argument, m=modulus_sq)
def test_jacobi_against_mpmath(u, m):
    sn, cn, dn = jacobi_sn_cn_dn(u, m)
    # mpmath's ellipfun takes the same modulus-squared parameter via m=.
    assert sn == pytest.approx(float(mpmath.ellipfun("sn", u, m=m)), abs=2e-12)
    assert cn == pytest.approx(float(mpmath.ellipfun("cn", u, m=m)), abs=2e-12)
    assert dn == pytest.approx(float(mpmath.ellipfun("dn", u, m=m)), abs=2e-12)


@given(u=argument, m=modulus_sq)
def test_jacobi_parity(u, m):
    sn, cn, dn = jacobi_sn_cn_dn(u, m)
    sn_m, cn_m, dn_m = jacobi_sn_cn_dn(-u, m)
    assert sn_m == pytest.approx(-sn, abs=1e-14)
    assert cn_m == pytest.approx(cn, abs=1e-14)
    assert dn_m == pytest.approx(dn, abs=1e-14)


@given(u=argument, m=modulus_sq, n=st.integers(min_value=-3, max_value=3))
def test_jacobi_periodicity(u, m, n):
    K = complete_K(m)
    sn, cn, dn = jacobi_sn_cn_dn(u, m)
    sn_p, cn_p, dn_p = jacobi_sn_cn_dn(u + 4.0 * n * K, m)
    assert sn_p == pytest.approx(sn, abs=1e-10)
    assert cn_p == pytest.approx(cn, abs=1e-10)
    assert dn_p == pytest.approx(dn, abs=1e-10)


@pytest.mark.parametrize("m", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_jacobi_quarter_period_values(m):
    K = complete_K(m)
    sn, cn, dn = jacobi_sn_cn_dn(K, m)
    assert sn == pytest.approx(1.0, abs=1e-12)
    assert cn == pytest.approx(0.0, abs=1e-12)
    assert dn == pytest.approx(math.sqrt(1.0 - m), rel=1e-12)
    sn0, cn0, dn0 = jacobi_sn_cn_dn(0.0, m)
    assert (sn0, cn0, dn0) == (0.0, 1.0, 1.0)


def test_jacobi_degenerate_limits():
    # m = 1 itself sits outside the accepted domain, so the hyperbolic
    # limit is checked just inside the boundary instead
    for u in (-2.0, 0.3, 7.0):
        sn, cn, dn = jacobi_sn_cn_dn(u, 0.0)
        assert sn == pytest.approx(math.sin(u), abs=1e-15)
        assert cn == pytest.approx(math.cos(u), abs=1e-15)
        assert dn == 1.0
        sn, cn, dn = jacobi_sn_cn_dn(u, 1.0 - 1e-12)
        assert sn == pytest.approx(math.tanh(u), abs=1e-6)
        assert cn == pytest.approx(1.0 / math.cosh(u), abs=1e-6)
        assert dn == pytest.approx(1.0 / math.cosh(u), abs=1e-6)


@pytest.mark.parametrize("m", EDGE_M)
@pytest.mark.parametrize("u", [-1e3, -31.0, -0.3, 0.7, 31.0, 250.5, 800.0, 1e3])
def test_jacobi_against_mpmath_at_edges(u, m):
    """No special case near m = 0 or m = 1: one recursion stays accurate
    past the first quarter period and never overflows."""
    got = jacobi_sn_cn_dn(u, m)
    for value, ref in zip(got, _mp_jacobi(u, m)):
        assert value == pytest.approx(ref, abs=1e-11)


def test_jacobi_long_time_small_m():
    """The O(m u) phase drift of sn at small m is kept; argument
    reduction modulo 4K costs about ulp(u) ~ 1e-10 at u = 1e6."""
    got = jacobi_sn_cn_dn(1e6, 5e-13)
    for value, ref in zip(got, _mp_jacobi(1e6, 5e-13)):
        assert value == pytest.approx(ref, abs=1e-9)


def test_landen_chain_depth():
    ms = np.concatenate([np.linspace(0.0, 1.0, 20001)[:-1], EDGE_M])
    depths = [len(_landen_chain(float(m))) for m in ms]
    assert max(depths) <= 10
    assert len(_landen_chain(0.0)) == 1


@pytest.mark.parametrize("m", [-1e-6, 1.0, 1.0 + 1e-6, math.inf])
def test_jacobi_domain(m):
    with pytest.raises(ParameterDomainError):
        jacobi_sn_cn_dn(1.0, m)


@pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("u", [-4.3, -0.7, 0.2, 1.9, 5.1])
def test_jacobi_derivatives(u, m):
    """d/du (sn, cn, dn) = (cn dn, -sn dn, -m sn cn)."""
    h = 1e-6
    sn, cn, dn = jacobi_sn_cn_dn(u, m)
    sn_p, cn_p, dn_p = jacobi_sn_cn_dn(u + h, m)
    sn_m, cn_m, dn_m = jacobi_sn_cn_dn(u - h, m)
    assert (sn_p - sn_m) / (2.0 * h) == pytest.approx(cn * dn, abs=1e-6)
    assert (cn_p - cn_m) / (2.0 * h) == pytest.approx(-sn * dn, abs=1e-6)
    assert (dn_p - dn_m) / (2.0 * h) == pytest.approx(-m * sn * cn, abs=1e-6)
