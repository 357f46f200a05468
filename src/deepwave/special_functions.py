"""Complete elliptic integral of the first kind and the Jacobi elliptic
functions sn, cn, dn, all from one descending Landen chain.

Parameter convention
--------------------
Every public interface takes m = modulus squared (the classic parameter
m = k^2), never the modulus k itself.  The reductions feeding this
module produce squared moduli directly, and fixing the convention at the
boundary avoids the usual m-versus-k confusion.

Evaluation route
----------------
Each public call builds the Landen scale chain of m once (DLMF 19.8(i));
its last arithmetic mean a_n is the AGM of 1 and sqrt(1-m), so
K(m) = pi / (2 a_n).  A closed-form series builds the chain once too
(_chain_and_quarter), for its K and for every block of its kernel
(_sn_cn_dn).  The Jacobi triple is computed through the
descending Landen phase recursion for the amplitude function
(DLMF 22.20(ii)) over that chain, then sn = sin(am), cn = cos(am), and
dn from the identity that is better conditioned at the current point.
The same recursion covers the whole domain 0 <= m < 1: at m = 0 the
chain has one level and am(u) = u, and near m = 1 the chain is a few
levels longer, so there is no special case at either end.

There is one evaluation path.  A float is a one-argument array, and an
array of any shape is evaluated over blocks of its arguments, one Landen
level at a time across a block, in numpy: the period reduction (fmod,
then a Sterbenz-exact subtraction of 4K), then at each level
phi <- (phi + arcsin((c/a) sin phi)) / 2.  The same operations run on
every element in the same order, so an element's bits do not depend on
the shape or on its neighbours, and a point value equals a series value
at the same argument.  Those bits are numpy's sin, cos and arcsin on the
host, so they may differ between numpy builds in the last bits.  Against
40-digit mpmath, over three periods, the absolute error stays below
1e-14 for m <= 1 - 1e-6 and grows as m -> 1, to 4e-13 at the largest
double below 1 (tests/test_special_functions.py holds it per m).

All functions are pure; there is no cache or other shared state.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterDomainError

# The Landen chain stops once c_n <= 2^-52 a_n: a_n and b_n then agree
# to about one ulp, so a further level cannot change the phase.  A test
# below one ulp can go unmet for some m and run the chain to its cap.
_LANDEN_STOP = 2.0**-52

# Safety cap on the chain's length; 0 <= m < 1 needs at most 10 levels.
_MAX_LANDEN_LEVELS = 64

# Arrays are evaluated this many arguments at a time, so the temporaries
# of one block stay a small, fixed allocation.
_BLOCK = 4096


def _check_m(m: float) -> None:
    if not (0.0 <= m < 1.0) or not math.isfinite(m):
        raise ParameterDomainError(
            f"squared modulus m must satisfy 0 <= m < 1, got {m}"
        )


def complete_K(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m).

    Parameters
    ----------
    m : float
        Squared modulus, 0 <= m < 1.

    Returns
    -------
    float
        K(m) = integral of dphi / sqrt(1 - m sin^2 phi) over [0, pi/2],
        evaluated as pi / (2 a_n) from the Landen chain's last
        arithmetic mean.  Strictly increasing in m; K(0) = pi/2 exactly.
    """
    return _chain_and_quarter(m)[1]


def jacobi_sn_cn_dn(
    u: float | np.ndarray, m: float
) -> tuple[float, float, float] | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jacobi elliptic functions (sn, cn, dn) at argument u, parameter m.

    Parameters
    ----------
    u : float, array, list or tuple
        Real argument(s); an array may have any shape, and a list or
        tuple is evaluated as the array it converts to.  Arguments
        beyond one full period are reduced modulo 4K(m) before the
        recursion.  The reduction keeps the recursion's argument small
        but not the phase exact: the rounding of u and of 4K(m), carried
        over |u|/4K(m) periods, shifts the phase by about ulp(u), so
        absolute errors grow like |u| 2^-52 (about 1e-10 at |u| = 1e6).
    m : float
        Squared modulus, 0 <= m < 1.

    Returns
    -------
    (sn, cn, dn)
        Three floats for a scalar u (a 0-d array included), three
        arrays shaped like u otherwise.  sn and cn lie in [-1, 1], dn in
        [sqrt(1-m), 1].  Every u, a scalar included, is evaluated one
        Landen level at a time in numpy over blocks of 4096 arguments,
        so every element gets the bits of a one-element call at that
        element.

    Raises
    ------
    ParameterDomainError
        When m lies outside [0, 1) or any element of u is not finite;
        for an array u the message names the first such element.
    """
    chain, quarter = _chain_and_quarter(m)
    return _sn_cn_dn(u, m, chain, 4.0 * quarter)


def _chain_and_quarter(m: float) -> tuple[list[tuple[float, float]], float]:
    """The Landen chain of m, checked to satisfy 0 <= m < 1, and its
    quarter period K(m) = pi / (2 a_n).  A caller that evaluates one m
    many times builds the chain once here and passes it to _sn_cn_dn."""
    _check_m(m)
    chain = _landen_chain(m)
    return chain, math.pi / (2.0 * chain[-1][0])


def _sn_cn_dn(
    u: float | np.ndarray, m: float, chain: list[tuple[float, float]], period: float
) -> tuple[float, float, float] | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """jacobi_sn_cn_dn(u, m) over the chain and the period 4K(m) that
    _chain_and_quarter(m) gave, bit for bit."""
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    # Three output buffers filled a block at a time: the temporaries
    # never exceed one block, where n of them would leave the heap larger
    # for the emitters that follow.
    sn, cn, dn = np.empty(flat.size), np.empty(flat.size), np.empty(flat.size)
    for lo in range(0, flat.size, _BLOCK):
        hi = lo + _BLOCK
        block = flat[lo:hi]
        magnitude = np.abs(block)
        # The largest |u| is NaN or infinite exactly when some argument is.
        top = magnitude.max()
        if not top <= period:
            if not math.isfinite(top):
                i = lo + int(np.argmin(np.isfinite(block)))
                where = ", ".join(str(int(j)) for j in np.unravel_index(i, u.shape))
                at = f" at u[{where}]" if u.ndim else ""
                raise ParameterDomainError(
                    f"argument u must be finite, got {flat[i]}{at}"
                )
            block = _reduce(block, magnitude > period, period)
        _sn_cn_dn_block(block, m, chain, sn[lo:hi], cn[lo:hi], dn[lo:hi])
    if u.ndim == 0:
        return float(sn[0]), float(cn[0]), float(dn[0])
    return sn.reshape(u.shape), cn.reshape(u.shape), dn.reshape(u.shape)


def _reduce(u: np.ndarray, big: np.ndarray, period: float) -> np.ndarray:
    """A copy of the finite block u with its arguments beyond one period
    (marked big) reduced modulo period = 4K: fmod, which is exact, then
    r - copysign(4K, r) where |r| > 2K, exact by Sterbenz's lemma.  At a
    tie |r| = 2K it leaves r = 2K with the sign of u, so sn stays odd."""
    r = np.fmod(u[big], period)
    far = np.abs(r) > 0.5 * period
    r[far] -= np.copysign(period, r[far])
    u = u.copy()  # not the caller's array, of which u is a view
    u[big] = r
    return u


def _sn_cn_dn_block(
    u: np.ndarray,
    m: float,
    chain: list[tuple[float, float]],
    sn: np.ndarray,
    cn: np.ndarray,
    dn: np.ndarray,
) -> None:
    """The Landen phase recursion over a 1-d block of finite arguments
    within one period, one level at a time, for a built chain, written to
    sn, cn and dn.

    Each level updates phi in place, with sn as its scratch array, by the
    operations of phi <- 0.5 (phi + arcsin((c/a) sin phi)) in their order.
    No clamp is needed before arcsin: past the first level c/a <= 1 - 2e-8
    (b_0 = sqrt(1-m) >= 2^-26.5), and a rounded product with |sin| <= 1
    cannot exceed c/a.
    """
    phi = chain[-1][0] * u
    np.ldexp(phi, len(chain) - 1, out=phi)  # 2^n a_n u
    for a, c in reversed(chain[1:]):
        np.sin(phi, out=sn)
        sn *= c / a
        np.arcsin(sn, out=sn)
        phi += sn
        phi *= 0.5

    np.sin(phi, out=sn)
    np.cos(phi, out=cn)
    # dn = sqrt(1 - m sn^2) where sn^2 <= 1/2, else sqrt((1 - m) + m cn^2),
    # the better conditioned of the two; phi holds sn^2, then 1 - m sn^2.
    sn2 = np.multiply(sn, sn, out=phi)
    low = sn2 <= 0.5
    sn2 *= m
    np.subtract(1.0, sn2, out=sn2)
    np.multiply(m, cn, out=dn)
    dn *= cn
    dn += 1.0 - m
    np.sqrt(np.where(low, sn2, dn), out=dn)


def _landen_chain(m: float) -> list[tuple[float, float]]:
    """Descending Landen scale chain [(a_0, c_0), ..., (a_n, c_n)] for m.

    a_0 = 1, b_0 = sqrt(1-m), c_0 = sqrt(m); each level takes the
    arithmetic mean a, the geometric mean b and the half difference c of
    the level before, and the chain ends at the first level with
    c_n <= 2^-52 a_n: at most 10 entries over 0 <= m < 1, the longest
    next to m = 1.  a_n is then the arithmetic-geometric mean of 1 and
    sqrt(1-m).
    """
    a, b, c = 1.0, math.sqrt(1.0 - m), math.sqrt(m)
    chain = [(a, c)]
    while c > _LANDEN_STOP * a and len(chain) <= _MAX_LANDEN_LEVELS:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        chain.append((a, c))
    return chain
