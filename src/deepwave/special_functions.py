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
Each call builds the Landen scale chain of m once (DLMF 19.8(i)); its
last arithmetic mean a_n is the AGM of 1 and sqrt(1-m), so
K(m) = pi / (2 a_n).  The Jacobi triple is computed through the
descending Landen phase recursion for the amplitude function
(DLMF 22.20(ii)) over that chain, then sn = sin(am), cn = cos(am), and
dn from the identity that is better conditioned at the current point.
The same recursion covers the whole domain 0 <= m < 1: at m = 0 the
chain has one level and am(u) = u, and near m = 1 the chain is a few
levels longer, so there is no special case at either end.

There is one evaluation path.  A float is a one-argument array, and an
array of any shape is evaluated over blocks of its arguments, one Landen
level at a time across a block.  Its reference is the libm recursion:
math.sin, math.cos, math.asin and math.remainder at one argument at a
time, which tests/test_special_functions.py freezes as _ref_jacobi.
The block runs in numpy wherever numpy rounds exactly as that recursion
does: sin and cos (numpy's float64 sin and cos are libm's), the period
reduction (fmod, then a Sterbenz-exact subtraction of 4K), and the
arithmetic, in the same order.  asin is the identity at the lower
levels, where |s| < 2^-26; libm's asin runs at the levels above, because
numpy's arcsin may differ from it in the last bit.  So every element
gets the libm recursion's bits at that element, whatever the shape.

All functions are pure; there is no cache or other shared state.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .errors import ParameterDomainError

# The Landen chain stops once c_n <= 2^-52 a_n: a_n and b_n then agree
# to about one ulp, so a further level cannot change the phase.  A test
# below one ulp can go unmet for some m and run the chain to its cap.
_LANDEN_STOP = 2.0**-52

# Safety cap on the chain's length; 0 <= m < 1 needs at most 10 levels.
_MAX_LANDEN_LEVELS = 64

# Arrays are evaluated this many arguments at a time, so the temporaries
# of one block, the boxed floats of its libm asin calls included, stay a
# small, fixed allocation.
_BLOCK = 4096

# Below this |s|, asin(s) = s (1 + s^2/6 + ...) rounds to s: the relative
# correction is under 2^-52/6, less than half an ulp.
_ASIN_IS_IDENTITY = 2.0**-26


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
    _check_m(m)
    return math.pi / (2.0 * _landen_chain(m)[-1][0])


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
        Landen level at a time over blocks of 4096 arguments, with numpy
        sin, cos and fmod where they round as libm does and libm asin at
        the levels where asin is not the identity, so every element gets
        the bits of the libm recursion at that element.

    Raises
    ------
    ParameterDomainError
        When m lies outside [0, 1) or any element of u is not finite;
        for an array u the message names the first such element.
    """
    _check_m(m)
    chain = _landen_chain(m)
    period = 4.0 * (math.pi / (2.0 * chain[-1][0]))  # 4K(m)
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    # Three output buffers filled a block at a time: the temporaries, the
    # boxed floats of the libm asin calls included, never exceed one
    # block, where n of them would leave the heap larger for the emitters
    # that follow.
    sn, cn, dn = np.empty(flat.size), np.empty(flat.size), np.empty(flat.size)
    for lo in range(0, flat.size, _BLOCK):
        block = flat[lo : lo + _BLOCK]
        finite = np.isfinite(block)
        if not finite.all():
            i = lo + int(np.argmin(finite))
            where = ", ".join(str(int(j)) for j in np.unravel_index(i, u.shape))
            at = f" at u[{where}]" if u.ndim else ""
            raise ParameterDomainError(f"argument u must be finite, got {flat[i]}{at}")
        hi = lo + block.size
        sn[lo:hi], cn[lo:hi], dn[lo:hi] = _sn_cn_dn_block(block, m, chain, period)
    if u.ndim == 0:
        return float(sn[0]), float(cn[0]), float(dn[0])
    return sn.reshape(u.shape), cn.reshape(u.shape), dn.reshape(u.shape)


def _sn_cn_dn_block(
    u: np.ndarray, m: float, chain: list[tuple[float, float]], period: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Landen phase recursion over a 1-d block of finite arguments,
    one level at a time, for a built chain and period 4K(m).

    Each step gives the bits of the libm recursion's step elementwise:

    - sin and cos are numpy's, which for float64 call the same libm
      sin and cos as the math module.
    - The period reduction is numpy's fmod, which is exact, then
      r - copysign(4K, r) where |r| > 2K, exact by Sterbenz's lemma;
      that is IEEE remainder except at an exact tie |r| = 2K, where
      math.remainder picks the even quotient.
    - At a level with c/a < 2^-26, |s| <= c/a, so asin(s) rounds to s
      and s is used as it is; the clamp cannot bind there.  At the
      levels above, numpy's arcsin may differ from libm's in the last
      bit, so libm's asin runs there.
    - ldexp, arithmetic, clamp and sqrt round as the libm recursion's
      float operations do.
    """
    big = np.abs(u) > period
    if big.any():
        half = 0.5 * period
        wide = u[big]
        r = np.fmod(wide, period)
        far = np.abs(r) > half
        r[far] -= np.copysign(period, r[far])
        tie = np.abs(r) == half
        if tie.any():
            r[tie] = [math.remainder(x, period) for x in wide[tie].tolist()]
        u = u.copy()  # not the caller's array, of which u is a view
        u[big] = r

    phi = np.ldexp(chain[-1][0] * u, len(chain) - 1)  # 2^n a_n u
    for a, c in reversed(chain[1:]):
        ratio = c / a
        s = ratio * np.sin(phi)
        if ratio < _ASIN_IS_IDENTITY:
            phi = 0.5 * (phi + s)
        else:
            phi = 0.5 * (phi + _libm(math.asin, np.clip(s, -1.0, 1.0)))

    sn = np.sin(phi)
    cn = np.cos(phi)
    sn2 = sn * sn
    dn = np.sqrt(np.where(sn2 <= 0.5, 1.0 - m * sn2, (1.0 - m) + m * cn * cn))
    return sn, cn, dn


def _libm(f: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """The math-module function f at every element of the 1-d array x."""
    return np.frompyfunc(f, 1, 1)(x).astype(float)


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
