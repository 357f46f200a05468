"""Elliptic functions and integrals against mpmath and classical identities."""

from __future__ import annotations

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deepwave import (
    ParameterDomainError,
    WaveParams,
    build_cubic,
    case1_series,
    case2_series,
    classify_roots,
    complete_K,
    jacobi_sn_cn_dn,
    sampled_case2,
)
from deepwave import special_functions
from deepwave.sampled_path import STREAM_BLOCK
from deepwave.special_functions import _landen_chain

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


# Squared moduli of the k2 (case 1) and k4 (case 2) reference scenarios.
REFERENCE_M = (0.01839326911306751, 0.9525930951624224)


@pytest.mark.parametrize("m", REFERENCE_M)
@pytest.mark.parametrize("u", [1e6, -1e6, 1e6 + 0.37, 987654.321])
def test_jacobi_long_time_phase_budget(u, m):
    """Reduction modulo 4K costs about ulp(u) of phase (~1.2e-10 at
    u = 1e6); the documented budget is two of them."""
    got = jacobi_sn_cn_dn(u, m)
    for value, ref in zip(got, _mp_jacobi(u, m)):
        assert abs(value - ref) <= 2.0 * math.ulp(u)


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


# Frozen copy of the libm recursion this module ran until its Landen
# levels moved to numpy's arcsin, with the two-recursion route it had
# before complete_K came from the Landen chain: an AGM loop for K(m), then
# a second, separate Landen chain for the phase, with math.sin, math.cos,
# math.asin and math.remainder at one argument at a time.  complete_K must
# keep returning its bits.  The kernel's arcsin may differ from math.asin
# in the last bit, and the Landen levels carry that into the phase, so
# the kernel must stay within _ref_gap(m) of it.
_REF_AGM_RTOL = 1e-15
_REF_LANDEN_STOP = 2.0**-52
_REF_MAX_ITER = 64


def _ref_agm(a0: float, b0: float) -> float:
    a, b = float(a0), float(b0)
    if b > a:
        a, b = b, a
    for _ in range(_REF_MAX_ITER):
        if abs(a - b) <= _REF_AGM_RTOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def _ref_complete_K(m: float) -> float:
    return math.pi / (2.0 * _ref_agm(1.0, math.sqrt(1.0 - m)))


def _ref_landen_chain(m: float) -> list[tuple[float, float]]:
    a, b, c = 1.0, math.sqrt(1.0 - m), math.sqrt(m)
    chain = [(a, c)]
    while c > _REF_LANDEN_STOP * a and len(chain) <= _REF_MAX_ITER:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        chain.append((a, c))
    return chain


def _ref_jacobi(u: float, m: float) -> tuple[float, float, float]:
    quarter = _ref_complete_K(m)
    if abs(u) > 4.0 * quarter:
        u = math.remainder(u, 4.0 * quarter)
    chain = _ref_landen_chain(m)
    phi = math.ldexp(chain[-1][0] * u, len(chain) - 1)
    for a, c in reversed(chain[1:]):
        s = c / a * math.sin(phi)
        s = max(-1.0, min(1.0, s))
        phi = 0.5 * (phi + math.asin(s))
    sn = math.sin(phi)
    cn = math.cos(phi)
    sn2 = sn * sn
    if sn2 <= 0.5:
        dn = math.sqrt(1.0 - m * sn2)
    else:
        dn = math.sqrt((1.0 - m) + m * cn * cn)
    return sn, cn, dn


def _bits(values) -> list[int]:
    """IEEE bit patterns, so -0.0 and 0.0 count as different."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _ref_gap(m: float) -> float:
    """Largest |kernel - _ref_jacobi| allowed at m, set from measurement:
    over 6 * 10^4 random arguments per m (|u| up to 1e6), the gap reached
    11.2 * 2^-52 for m <= 1 - 1e-6 and 864 * 2^-52 above, at
    m = 1 - 3 * 2^-53, where the first Landen level's c/a is within 2^-24
    of 1."""
    return (16.0 if m <= 1.0 - 1e-6 else 1024.0) * 2.0**-52


def _assert_near_ref(got, want, m: float) -> None:
    """Each of sn, cn, dn within _ref_gap(m) of the libm recursion's."""
    got = np.asarray(got, dtype=float).reshape(3, -1)
    want = np.asarray(want, dtype=float).reshape(3, -1)
    gap = np.abs(got - want).max(initial=0.0)
    assert gap <= _ref_gap(m), f"{gap / 2.0**-52:.1f} * 2^-52 from the libm recursion"


def _ref_columns(us, m: float) -> np.ndarray:
    """_ref_jacobi at each u, as rows sn, cn, dn."""
    return np.array([_ref_jacobi(u, m) for u in us]).reshape(-1, 3).T


# EDGE_M plus the smallest subnormal and the largest double below 1.
FROZEN_M = EDGE_M + (5e-324, 1.0 - 2.0**-53)
unit_m = st.one_of(
    st.sampled_from(FROZEN_M),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.floats(min_value=1e-300, max_value=1e-3),
    st.floats(min_value=1e-16, max_value=1e-3).map(lambda d: 1.0 - d),
)
wide_u = st.one_of(
    st.floats(min_value=-60.0, max_value=60.0),
    st.floats(min_value=-1e6, max_value=1e6),
)


@pytest.mark.parametrize("m", FROZEN_M)
def test_K_matches_two_agm_reference_at_edges(m):
    assert complete_K(m) == _ref_complete_K(m)


@given(m=unit_m)
def test_K_matches_two_agm_reference(m):
    assert complete_K(m) == _ref_complete_K(m)


@pytest.mark.parametrize("m", FROZEN_M)
@pytest.mark.parametrize(
    "u", [0.0, -0.0, 0.3, -0.3, 7.5, -31.0, 250.5, -987654.321, 1e6, -1e6]
)
def test_jacobi_matches_two_agm_reference_at_edges(u, m):
    _assert_near_ref(jacobi_sn_cn_dn(u, m), _ref_jacobi(u, m), m)


@given(u=wide_u, m=unit_m)
def test_jacobi_matches_two_agm_reference(u, m):
    """Over both ends of m, |u| > 4K, negative u and |u| up to 1e6."""
    _assert_near_ref(jacobi_sn_cn_dn(u, m), _ref_jacobi(u, m), m)


@pytest.mark.parametrize("m", FROZEN_M)
def test_jacobi_array_matches_two_agm_reference_on_a_grid(m):
    """Both dn identities, and arguments with and without reduction,
    over three periods either side of zero."""
    period = 4.0 * _ref_complete_K(m)
    u = np.linspace(-3.0 * period, 3.0 * period, 2001)
    _assert_near_ref(jacobi_sn_cn_dn(u, m), _ref_columns(u.tolist(), m), m)


@given(us=st.lists(wide_u, max_size=40), m=unit_m)
def test_jacobi_array_equals_scalar_calls(us, m):
    """Every element gets the bits of the kernel called at that element
    alone, from a contiguous array and from a strided view."""
    scalar = [jacobi_sn_cn_dn(u, m) for u in us]
    u = np.array(us, dtype=float)
    for array in (u, np.stack([u, -u]).T[:, 0]):
        sn, cn, dn = jacobi_sn_cn_dn(array, m)
        assert sn.shape == cn.shape == dn.shape == (len(us),)
        assert _bits(sn) == _bits([s for s, _, _ in scalar])
        assert _bits(cn) == _bits([c for _, c, _ in scalar])
        assert _bits(dn) == _bits([d for _, _, d in scalar])


@pytest.mark.parametrize("m", FROZEN_M)
@pytest.mark.parametrize("n", [4095, 4096, 4097, 8193])
@pytest.mark.parametrize("parity", [0, 1])
def test_jacobi_array_matches_two_agm_reference_across_blocks(n, m, parity):
    """Arrays one short of, at and past the 4096-argument block, and one
    past two blocks: reduced (|u| > 4K) and unreduced arguments alternate,
    so each kind sits on both sides of every block edge."""
    rng = np.random.default_rng(n + parity)
    period = 4.0 * _ref_complete_K(m)
    small = rng.uniform(-period, period, n)
    big = rng.uniform(period, 1e6, n) * rng.choice([-1.0, 1.0], n)
    u = np.where(np.arange(n) % 2 == parity, big, small)
    _assert_near_ref(jacobi_sn_cn_dn(u, m), _ref_columns(u.tolist(), m), m)


@pytest.mark.parametrize(
    "u",
    [
        np.linspace(-40.0, 40.0, 6).reshape(2, 3),
        np.linspace(-1e5, 1e5, 12).reshape(4, 3).T,
        np.linspace(-40.0, 40.0, 3 * 4097).reshape(3, 1, 4097),
        np.empty((0, 3)),
    ],
)
def test_jacobi_array_of_any_shape(u):
    got = jacobi_sn_cn_dn(u, 0.5)
    flat = jacobi_sn_cn_dn(u.ravel(), 0.5)
    for values, want in zip(got, flat):
        assert values.shape == u.shape
        assert _bits(values.ravel()) == _bits(want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "shape, where, named",
    [((8193,), (5000,), "u[5000]"), ((3, 4096), (1, 7), "u[1, 7]")],
)
def test_jacobi_array_names_non_finite_element_in_a_later_block(
    bad, shape, where, named
):
    u = np.linspace(-5.0, 5.0, math.prod(shape)).reshape(shape)
    u[where] = bad
    with pytest.raises(ParameterDomainError) as err:
        jacobi_sn_cn_dn(u, 0.5)
    assert named in str(err.value)
    assert str(bad) in str(err.value)


def test_jacobi_array_memory_is_bounded_by_the_block():
    """Three 0.8 MB results plus one block's temporaries (2.7 MB in all):
    the temporaries of the whole array at once would reach about 10 MB."""
    u = np.linspace(-1e3, 1e3, 100_000)
    tracemalloc.start()
    try:
        jacobi_sn_cn_dn(u, 0.953)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("u", [0.7, -3, np.float64(12.5), np.array(1e6)])
def test_jacobi_scalar_returns_floats(u):
    got = jacobi_sn_cn_dn(u, 0.5)
    assert len(got) == 3
    assert all(type(value) is float for value in got)
    _assert_near_ref(got, _ref_jacobi(float(u), 0.5), 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 3, 7])
def test_jacobi_array_rejects_one_non_finite_element(bad, where):
    u = np.linspace(-5.0, 5.0, 8)
    u[where] = bad
    with pytest.raises(ParameterDomainError):
        jacobi_sn_cn_dn(u, 0.5)


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("scalar", [float, np.float64, np.array])
def test_jacobi_scalar_rejects_non_finite(u, scalar):
    """A float or 0-d u gets a message without an element index."""
    with pytest.raises(ParameterDomainError) as err:
        jacobi_sn_cn_dn(scalar(u), 0.5)
    assert str(err.value) == f"argument u must be finite, got {u}"


@pytest.mark.parametrize("u", [0.7, -3, np.float64(-31.0), np.array(1e6)])
def test_jacobi_scalar_runs_one_block_of_one_element(u, monkeypatch):
    """A scalar takes the array path: one block of one argument."""
    blocks = []
    block = special_functions._sn_cn_dn_block

    def spy(v, *args):
        blocks.append(v.shape)
        return block(v, *args)

    monkeypatch.setattr(special_functions, "_sn_cn_dn_block", spy)
    jacobi_sn_cn_dn(u, 0.9525930951624224)
    assert blocks == [(1,)]


def test_jacobi_empty_array():
    got = jacobi_sn_cn_dn(np.array([]), 0.5)
    assert [value.shape for value in got] == [(0,)] * 3


@pytest.mark.parametrize(
    "u",
    [[0.1, 0.2], (0.1, -7.5, 1e6), [[0.1, 0.2, 0.3], [-40.0, 3.5, 12.0]], [0.7], []],
)
def test_jacobi_list_or_tuple_equals_the_array(u):
    got = jacobi_sn_cn_dn(u, 0.5)
    want = jacobi_sn_cn_dn(np.array(u, dtype=float), 0.5)
    for values, ref in zip(got, want):
        assert isinstance(values, np.ndarray) and values.shape == ref.shape
        assert _bits(values) == _bits(ref)


def _series_args(k: float) -> tuple:
    """(params, reduction, beta) of the reference scenario at k, beta = 1
    (case 1 at k = 1, case 2 at k = 4); reducing the cubic builds no
    chain."""
    params = WaveParams(k=k, a=0.1, g=9.8)
    return params, classify_roots(build_cubic(params, 1.0)), 1.0


def _one_streamed_pass() -> None:
    """Every block of a case-2 path of three kernel blocks, the last one
    partial."""
    path = sampled_case2(*_series_args(4.0), 0.0, 10.0, 2 * STREAM_BLOCK + 7)
    assert sum(1 for _ in path) == 3


@pytest.mark.parametrize(
    "call",
    [
        lambda: complete_K(0.9525930951624224),
        lambda: jacobi_sn_cn_dn(31.0, 0.9525930951624224),
        lambda: jacobi_sn_cn_dn(np.linspace(-1e3, 1e3, 500), 1.0 - 5e-13),
        lambda: jacobi_sn_cn_dn(np.array([]), 0.25),
        # A series path builds one chain for its K and all its kernel calls.
        lambda: case1_series(*_series_args(1.0), 0.0, 10.0, 512),
        lambda: case2_series(*_series_args(4.0), 0.0, 10.0, 512),
        _one_streamed_pass,
    ],
)
def test_one_landen_chain_per_call(call, monkeypatch):
    built = []

    def spy(m):
        built.append(m)
        return _landen_chain(m)

    monkeypatch.setattr(special_functions, "_landen_chain", spy)
    call()
    assert len(built) == 1


def _envelope_arguments(m: float) -> np.ndarray:
    """396 arguments: 150 within one period either side of zero, 50 within
    three, and 49 around each of K, 2K, -K and -2K (the points themselves
    and 1e-14 to 0.1 away on either side)."""
    K = complete_K(m)
    rng = np.random.default_rng(400)
    offsets = np.logspace(-14.0, -1.0, 24)
    near = np.concatenate([[0.0], offsets, -offsets])
    return np.concatenate(
        [
            rng.uniform(-4.0 * K, 4.0 * K, 150),
            rng.uniform(-12.0 * K, 12.0 * K, 50),
            *(centre + near for centre in (K, 2.0 * K, -K, -2.0 * K)),
        ]
    )


def _mp_columns(us, m: float) -> np.ndarray:
    """_mp_jacobi at each u, as rows sn, cn, dn."""
    return np.array([_mp_jacobi(u, m) for u in us]).reshape(-1, 3).T


# Max |kernel - mpmath| over _envelope_arguments(m), in units of 2^-52 for
# (sn, cn, dn): the libm recursion's figures, rounded up to 2^-54, which
# the kernel must not exceed.  Near m = 1 they grow within one period too,
# where the first Landen level's c/a nears 1 and arcsin is steep.
ENVELOPE = {
    0.0: (3.25, 3.5, 0.0),
    1e-16: (5.5, 5.25, 0.5),
    0.0038830911421148602: (8.0, 7.0, 0.5),  # k1
    0.01839326911306751: (6.25, 7.0, 0.5),  # k2
    0.5: (14.25, 9.75, 3.5),
    0.9: (21.0, 11.0, 8.5),
    0.9525930951624224: (19.0, 8.25, 7.0),  # k4
    0.99: (24.0, 11.5, 11.0),
    1.0 - 1e-6: (44.75, 31.5, 32.0),
    1.0 - 1e-9: (32.5, 40.75, 40.75),
    1.0 - 1e-12: (40.5, 176.25, 176.25),
    1.0 - 2.0**-52: (56.0, 685.25, 685.25),
    1.0 - 2.0**-53: (109.5, 1806.5, 1806.5),
}


def _mp_errors(got, us, m: float) -> np.ndarray:
    """Max |got - mpmath| of sn, cn and dn, in units of 2^-52."""
    err = np.abs(np.asarray(got, dtype=float) - _mp_columns(us, m))
    return err.max(axis=1) / 2.0**-52


@pytest.mark.parametrize("m", list(ENVELOPE))
def test_jacobi_mpmath_envelope(m):
    """At each m from 0 to the largest double below 1, sn, cn and dn
    stay within the libm recursion's measured error against 40-digit
    mpmath, over one and three periods and around K and 2K."""
    us = _envelope_arguments(m)
    err = _mp_errors(jacobi_sn_cn_dn(us, m), us.tolist(), m)
    assert (err <= ENVELOPE[m]).all(), f"{err} * 2^-52 exceeds {ENVELOPE[m]}"


@pytest.mark.parametrize("m", [0.0, 1.0 - 2.0**-53])
def test_jacobi_array_reduces_exact_ties_to_2K(m):
    """At |u| = (2q+1)·2K exactly, fmod leaves r = ±2K with the sign of
    u, and the kernel keeps it: a tie evaluates as ±2K exactly, for both
    quotient parities and on both sides of a block edge, so sn stays odd
    there, and they stay within the mpmath envelope."""
    period = 4.0 * complete_K(m)
    half = 0.5 * period
    ties = [(2 * q + 1) * half for q in (1, 2)]
    for u in ties:
        assert math.fmod(u, period) == half and math.fmod(-u, period) == -half
    special = ties + [-u for u in ties]
    edge = special_functions._BLOCK
    start = edge - len(special) // 2
    u = np.full(edge + len(special), 0.25)
    u[start : start + len(special)] = special
    got = [values[start : start + len(special)] for values in jacobi_sn_cn_dn(u, m)]
    at_2K = jacobi_sn_cn_dn(np.copysign(half, special), m)
    for values, want in zip(got, at_2K):
        assert _bits(values) == _bits(want)
    sn, cn, dn = got
    assert _bits(sn[2:]) == _bits(-sn[:2])
    assert _bits(cn[2:]) == _bits(cn[:2]) and _bits(dn[2:]) == _bits(dn[:2])
    # The ties lie outside the envelope's sample, where the reduction's
    # rounding of 4K shifts sn, whose slope is 1 at 2K, so they are held
    # to the envelope's largest bound at m.
    assert _mp_errors(got, special, m).max() <= max(ENVELOPE[m])


def test_landen_ratio_stays_below_one_at_every_level():
    """The recursion takes arcsin of (c/a) sin(phi) without a clamp, so
    c/a < 1 must hold at every level it runs, even at the largest m below
    1, where b_0 = sqrt(1 - m) = 2^-26.5 is smallest."""
    chain = _landen_chain(1.0 - 2.0**-53)
    assert len(chain) > 1
    assert all(c / a <= 1.0 - 2e-8 for a, c in chain[1:])
