"""Arithmetic-geometric mean, complete elliptic integral of the first
kind, and the Jacobi elliptic functions sn, cn, dn.

Parameter convention
--------------------
Every public interface takes m = modulus squared (the classic parameter
m = k^2), never the modulus k itself.  The reductions feeding this
module produce squared moduli directly, and fixing the convention at the
boundary avoids the usual m-versus-k confusion.

Evaluation route
----------------
complete_K uses K(m) = pi / (2 agm(1, sqrt(1-m))).  The Jacobi triple is
computed through the descending Landen / AGM phase recursion for the
amplitude function (DLMF 22.20(ii)), then sn = sin(am), cn = cos(am),
and dn from the identity that is better conditioned at the current
point.  The same recursion covers the whole domain 0 <= m < 1: at m = 0
the scale chain is empty and am(u) = u, and near m = 1 the chain is a
few levels longer, so there is no special case at either end.

All functions are pure; there is no cache or other shared state.
"""

from __future__ import annotations

import math

from .errors import ParameterDomainError

# AGM iteration stops when |a_n - b_n| <= AGM_RTOL * a_n.
AGM_RTOL = 1e-15

# The Landen chain stops once c_n <= 2^-52 a_n: a_n and b_n then agree
# to about one ulp, so a further level cannot change the phase.  A test
# below one ulp can go unmet for some m and run the chain to its cap.
_LANDEN_STOP = 2.0**-52

_MAX_AGM_ITER = 64


def _check_m(m: float) -> None:
    if not (0.0 <= m < 1.0) or not math.isfinite(m):
        raise ParameterDomainError(
            f"squared modulus m must satisfy 0 <= m < 1, got {m}"
        )


def agm(a0: float, b0: float) -> float:
    """Arithmetic-geometric mean of two positive numbers.

    Parameters
    ----------
    a0, b0 : float
        Strictly positive starting values.

    Returns
    -------
    float
        The common limit of a_{n+1} = (a_n + b_n)/2, b_{n+1} = sqrt(a_n b_n).
    """
    if not (a0 > 0.0 and math.isfinite(a0)) or not (b0 > 0.0 and math.isfinite(b0)):
        raise ParameterDomainError(f"agm requires positive inputs, got ({a0}, {b0})")
    a, b = float(a0), float(b0)
    if b > a:
        a, b = b, a
    for _ in range(_MAX_AGM_ITER):
        if abs(a - b) <= AGM_RTOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


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
        evaluated as pi / (2 agm(1, sqrt(1-m))).  Strictly increasing
        in m; K(0) = pi/2 exactly.
    """
    _check_m(m)
    return math.pi / (2.0 * agm(1.0, math.sqrt(1.0 - m)))


def jacobi_sn_cn_dn(u: float, m: float) -> tuple[float, float, float]:
    """Jacobi elliptic functions (sn, cn, dn) at argument u, parameter m.

    Parameters
    ----------
    u : float
        Real argument.  Arguments beyond one full period are reduced
        modulo 4K(m) before the recursion.  The reduction keeps the
        recursion's argument small but not the phase exact: the
        rounding of u and of 4K(m), carried over |u|/4K(m) periods,
        shifts the phase by about ulp(u), so absolute errors grow like
        |u| 2^-52 (about 1e-10 at |u| = 1e6).
    m : float
        Squared modulus, 0 <= m < 1.

    Returns
    -------
    (float, float, float)
        (sn, cn, dn).  sn and cn lie in [-1, 1], dn in [sqrt(1-m), 1].
    """
    _check_m(m)
    if not math.isfinite(u):
        raise ParameterDomainError(f"argument u must be finite, got {u}")

    quarter = complete_K(m)
    if abs(u) > 4.0 * quarter:
        u = math.remainder(u, 4.0 * quarter)

    chain = _landen_chain(m)
    phi = math.ldexp(chain[-1][0] * u, len(chain) - 1)  # 2^n a_n u
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
        # Equivalent identity, better conditioned when sn^2 is large.
        dn = math.sqrt((1.0 - m) + m * cn * cn)
    return sn, cn, dn


def _landen_chain(m: float) -> list[tuple[float, float]]:
    """Descending Landen scale chain [(a_0, c_0), ..., (a_n, c_n)] for m.

    a_0 = 1, b_0 = sqrt(1-m), c_0 = sqrt(m); each level takes the
    arithmetic mean a, the geometric mean b and the half difference c of
    the level before, and the chain ends at the first level with
    c_n <= 2^-52 a_n: at most 10 entries over 0 <= m < 1, the longest
    next to m = 1.
    """
    a, b, c = 1.0, math.sqrt(1.0 - m), math.sqrt(m)
    chain = [(a, c)]
    while c > _LANDEN_STOP * a and len(chain) <= _MAX_AGM_ITER:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        chain.append((a, c))
    return chain
