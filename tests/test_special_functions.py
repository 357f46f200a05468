"""Elliptic functions and integrals against mpmath and classical identities."""

from __future__ import annotations

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deepwave import ParameterDomainError, complete_K, jacobi_sn_cn_dn
from deepwave import special_functions
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


# Frozen copy of the two-recursion kernel this module had before
# complete_K came from the Landen chain: an AGM loop for K(m), then a
# second, separate Landen chain for the phase.  The kernel must keep
# returning exactly these bits.
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
    assert _bits(jacobi_sn_cn_dn(u, m)) == _bits(_ref_jacobi(u, m))


@given(u=wide_u, m=unit_m)
def test_jacobi_matches_two_agm_reference(u, m):
    """Bits unchanged over both ends of m, |u| > 4K, negative u and
    |u| up to 1e6."""
    assert _bits(jacobi_sn_cn_dn(u, m)) == _bits(_ref_jacobi(u, m))


@pytest.mark.parametrize("m", FROZEN_M)
def test_jacobi_array_matches_two_agm_reference_on_a_grid(m):
    """Both dn identities, and arguments with and without reduction,
    over three periods either side of zero."""
    period = 4.0 * _ref_complete_K(m)
    u = np.linspace(-3.0 * period, 3.0 * period, 2001)
    got = jacobi_sn_cn_dn(u, m)
    want = [_ref_jacobi(float(x), m) for x in u]
    for i in range(3):
        assert _bits(got[i]) == _bits([w[i] for w in want])


@given(us=st.lists(wide_u, max_size=40), m=unit_m)
def test_jacobi_array_equals_scalar_calls(us, m):
    """Every element gets the bits of the frozen libm recursion called at
    that element alone."""
    sn, cn, dn = jacobi_sn_cn_dn(np.array(us, dtype=float), m)
    assert sn.shape == cn.shape == dn.shape == (len(us),)
    scalar = [_ref_jacobi(u, m) for u in us]
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
    got = jacobi_sn_cn_dn(u, m)
    want = [_ref_jacobi(x, m) for x in u.tolist()]
    for i in range(3):
        assert _bits(got[i]) == _bits([w[i] for w in want])


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
    """Three 0.8 MB results plus one block's temporaries: a boxed float
    per argument of the whole array would add about 3.2 MB."""
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
    assert _bits(got) == _bits(_ref_jacobi(float(u), 0.5))


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: complete_K(0.9525930951624224),
        lambda: jacobi_sn_cn_dn(31.0, 0.9525930951624224),
        lambda: jacobi_sn_cn_dn(np.linspace(-1e3, 1e3, 500), 1.0 - 5e-13),
        lambda: jacobi_sn_cn_dn(np.array([]), 0.25),
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


# The kernel runs numpy sin and cos, fmod and an identity asin at the
# lower Landen levels in place of libm calls, for every u, a float
# included; the tests below check the premises that keep those steps
# bit-identical to the libm recursion (_ref_jacobi), and the one libm
# call that is left.


def _visited_phases(u: float, m: float) -> list[float]:
    """Every phase the libm recursion passes to sin or cos at u."""
    chain = _landen_chain(m)
    period = 4.0 * complete_K(m)
    if abs(u) > period:
        u = math.remainder(u, period)
    phi = math.ldexp(chain[-1][0] * u, len(chain) - 1)
    phases = [phi]
    for a, c in reversed(chain[1:]):
        s = max(-1.0, min(1.0, c / a * math.sin(phi)))
        phi = 0.5 * (phi + math.asin(s))
        phases.append(phi)
    return phases


@pytest.mark.parametrize("name", ["sin", "cos"])
def test_premise_numpy_sin_cos_are_libm(name):
    """The kernel's sin and cos are numpy's; they must be libm's
    bit for bit on the recursion's phases and on |u| up to 1e6."""
    rng = np.random.default_rng(2024)
    phases = []
    for m in FROZEN_M:
        period = 4.0 * complete_K(m)
        us = np.concatenate(
            [rng.uniform(-period, period, 300), rng.uniform(-1e6, 1e6, 300)]
        )
        phases += us.tolist()
        for u in us.tolist():
            phases += _visited_phases(u, m)
    x = np.array(phases)
    got = _bits(getattr(np, name)(x))
    want = _bits([getattr(math, name)(v) for v in phases])
    differ = [v for v, g, w in zip(phases, got, want) if g != w]
    assert not differ, (
        f"premise broken: np.{name} must equal math.{name} bit for bit, but "
        f"{len(differ)} of {len(phases)} arguments differ (first {differ[0]!r}); "
        f"this numpy build dispatches its own float64 {name} "
        "(see numpy.show_runtime()), so the kernel no longer matches libm"
    )


def test_premise_asin_is_the_identity_below_the_threshold():
    """asin(s) == s for |s| < 2^-26, which lets the kernel skip
    asin at the Landen levels with c/a below that; 2^-26 itself too."""
    limit = special_functions._ASIN_IS_IDENTITY
    assert limit == 2.0**-26
    rng = np.random.default_rng(26)
    below = [limit, math.nextafter(limit, 0.0), 5e-324, 2.2250738585072014e-308]
    below += [limit * (1.0 - i * 2.0**-53) for i in range(1, 2001)]
    below += (2.0 ** rng.uniform(-1074.0, -26.0, 20000)).tolist()
    s = [v for x in below for v in (x, -x)] + [0.0, -0.0]
    differ = [x for x in s if _bits([math.asin(x)]) != _bits([x])]
    assert not differ, (
        "premise broken: math.asin(s) must round to s for |s| <= 2^-26, "
        f"but it does not at {differ[:3]!r}; libm's asin changed, so the "
        "kernel's identity levels no longer match libm"
    )


@pytest.mark.parametrize(
    "m, asin_levels",
    [(0.0038830911421148602, 2), (0.9525930951624224, 4), (1e-12, 0)],
    ids=["k1", "k4", "m=1e-12"],
)
def test_jacobi_array_calls_libm_asin_only_above_the_threshold(
    m, asin_levels, monkeypatch
):
    """One libm asin pass per block at each level with c/a >= 2^-26 and
    no other per-element libm call: sin, cos and the reduction run in
    numpy."""
    calls = []
    libm = special_functions._libm

    def spy(f, x):
        calls.append(f)
        return libm(f, x)

    monkeypatch.setattr(special_functions, "_libm", spy)
    period = 4.0 * complete_K(m)
    u = np.linspace(-3.0 * period, 3.0 * period, 2 * special_functions._BLOCK + 1)
    jacobi_sn_cn_dn(u, m)
    assert calls == [math.asin] * (3 * asin_levels)


@pytest.mark.parametrize("m", [0.0, 1.0 - 2.0**-53])
def test_jacobi_array_reduces_exact_ties_like_remainder(m):
    """At |u| = (2q+1)·2K exactly, fmod leaves |r| = 2K and IEEE
    remainder picks the even quotient; the kernel must agree with the
    libm recursion there, for both quotient parities, and at ±0, one ulp
    above 4K and ±1e6, on both sides of a block edge."""
    period = 4.0 * complete_K(m)
    half = 0.5 * period
    ties = [(2 * q + 1) * half for q in (1, 2, 3, 4)]
    for q, u in zip((1, 2, 3, 4), ties):
        assert math.fmod(u, period) == half and math.fmod(-u, period) == -half
        assert math.remainder(u, period) == (half if q % 2 == 0 else -half)
    above = math.nextafter(period, math.inf)
    special = ties + [-u for u in ties] + [0.0, -0.0, above, -above, 1e6, -1e6]
    edge = special_functions._BLOCK
    u = np.full(edge + len(special), 0.25)
    u[edge - len(special) // 2 : edge - len(special) // 2 + len(special)] = special
    got = jacobi_sn_cn_dn(u, m)
    want = [_ref_jacobi(x, m) for x in u.tolist()]
    for i in range(3):
        assert _bits(got[i]) == _bits([w[i] for w in want])
