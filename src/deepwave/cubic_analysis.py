"""Cubic model of the moving-frame vertical motion and its reduction to
Legendre normal form.

Truncating the Taylor series of e^{2Z} at Z^3 inside the first-order
equation (dZ/dt)^2 = k^2 A^2 e^{2Z} - (k c Z - beta)^2 leaves the cubic

    P(Z) = (4 k^2 A^2 / 3) Z^3 + k^2 (2A^2 - c^2) Z^2
         + 2 k (k A^2 + beta c) Z + (k^2 A^2 - beta^2).

Real-root classification of P decides the closed form of Z(t):

* Case 1, three distinct real roots Z1 < Z2 < Z3: the motion oscillates
  in [Z1, Z2] and reduces to the squared modulus
  k1^2 = (Z2 - Z1)/(Z3 - Z1) with time scale
  C1 = k |A| sqrt(Z3 - Z1) / sqrt(3).
* Case 2, one real root Z0 and the quadratic factor Z^2 + p Z + q with
  p^2 - 4q < 0: the motion escapes upward with squared modulus
  k2^2 = (1 - (Z0 + p/2)/sqrt(Z0^2 + p Z0 + q)) / 2 and time scale
  C2 = (2/sqrt(3)) k |A| (Z0^2 + p Z0 + q)^{1/4}.

C1 and C2 are stored positive; flipping their sign is a time reversal.
Repeated roots are rejected: only the two generic configurations carry
a supported closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import ContractViolationError, DegenerateRootsError, ParameterDomainError
from .wave_field import WaveParams

# |discriminant| at or below DISCRIMINANT_RTOL * scale^4 counts as a
# repeated-root configuration (the discriminant is quartic in the
# coefficients, hence the fourth power).
DISCRIMINANT_RTOL = 1e-12

# Beyond this coefficient scale, scale^4 overflows.
SCALE_MAX = 1e77

# Stored roots must satisfy |P(Z)| <= ROOT_RESIDUAL_RTOL * max(coeff scale,
# sum |a_i| |Z|^i).
ROOT_RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class CubicCoeffs:
    """Coefficients of P(Z) = a3 Z^3 + a2 Z^2 + a1 Z + a0.

    a3 = (4/3) k^2 A^2 is strictly positive for every valid wave.
    """

    a3: float
    a2: float
    a1: float
    a0: float

    def evaluate(self, Z: float) -> float:
        """P(Z) by Horner's scheme."""
        return ((self.a3 * Z + self.a2) * Z + self.a1) * Z + self.a0

    def derivative(self, Z: float) -> float:
        """P'(Z)."""
        return (3.0 * self.a3 * Z + 2.0 * self.a2) * Z + self.a1

    def scale(self) -> float:
        """Largest coefficient magnitude, used for relative tolerances."""
        return max(abs(self.a3), abs(self.a2), abs(self.a1), abs(self.a0))


@dataclass(frozen=True)
class Case1Reduction:
    """Three real roots Z1 < Z2 < Z3 plus Legendre reduction data."""

    Z1: float
    Z2: float
    Z3: float
    k1sq: float
    C1: float


@dataclass(frozen=True)
class Case2Reduction:
    """One real root Z0, quadratic factor Z^2 + pZ + q (complex pair),
    plus Legendre reduction data."""

    Z0: float
    p: float
    q: float
    k2sq: float
    C2: float


CubicReduction = Union[Case1Reduction, Case2Reduction]


def build_cubic(params: WaveParams, beta: float) -> CubicCoeffs:
    """Assemble the truncated cubic for the given wave and constant beta.

    Parameters
    ----------
    params : WaveParams
    beta : float
        Integration constant of the vertical equation, fixed by the
        initial conditions (see ``trajectories.beta_from_initial``).

    Returns
    -------
    CubicCoeffs

    Raises
    ------
    ParameterDomainError
        When a3 = (4/3) k^2 A^2 underflows to 0, i.e. the amplitude is too
        small for the cubic to be represented, or when a coefficient is not
        finite (beta or the wave too large for float64, or beta NaN).
    """
    k = params.k
    c = params.c
    A = params.A
    kA_sq = k * k * A * A
    a3 = 4.0 * kA_sq / 3.0
    if a3 == 0.0:
        raise ParameterDomainError(
            f"leading coefficient a3 = (4/3) k^2 A^2 underflows to 0 at kA = {k * A}"
        )
    coeffs = CubicCoeffs(
        a3=a3,
        a2=k * k * (2.0 * A * A - c * c),
        a1=2.0 * k * (k * A * A + beta * c),
        a0=kA_sq - beta * beta,
    )
    if not all(map(math.isfinite, (coeffs.a3, coeffs.a2, coeffs.a1, coeffs.a0))):
        raise ParameterDomainError(f"cubic coefficients are not finite: {coeffs}")
    return coeffs


def discriminant(coeffs: CubicCoeffs) -> float:
    """Discriminant of the cubic; positive iff three distinct real roots,
    negative iff one real root and a complex pair.

    Raises ParameterDomainError when it is not finite: its terms are
    quartic in the coefficients and overflow beyond a coefficient scale
    of about 1e77.
    """
    a, b, c, d = coeffs.a3, coeffs.a2, coeffs.a1, coeffs.a0
    delta = (
        18.0 * a * b * c * d
        - 4.0 * b * b * b * d
        + b * b * c * c
        - 4.0 * a * c * c * c
        - 27.0 * a * a * d * d
    )
    if not math.isfinite(delta):
        raise _scale_error(coeffs.scale())
    return delta


def _scale_error(scale: float) -> ParameterDomainError:
    return ParameterDomainError(f"cubic coefficient scale {scale} is out of range")


def _newton_polish(coeffs: CubicCoeffs, Z: float) -> float:
    # A few Newton steps remove the cancellation error of the closed-form
    # root expressions; they would otherwise poison k1sq in tight-root cases.
    for _ in range(8):
        f = coeffs.evaluate(Z)
        fp = coeffs.derivative(Z)
        if fp == 0.0:
            break
        step = f / fp
        Z -= step
        if abs(step) <= 1e-14 * max(1.0, abs(Z)):
            break
    return Z


def _depressed(coeffs: CubicCoeffs) -> tuple[float, float, float]:
    """(shift, p, q) with Z = t - shift turning the cubic into t^3 + pt + q."""
    a, b = coeffs.a3, coeffs.a2
    shift = b / (3.0 * a)
    p = (3.0 * a * coeffs.a1 - b * b) / (3.0 * a * a)
    q = (2.0 * b * b * b - 9.0 * a * b * coeffs.a1 + 27.0 * a * a * coeffs.a0) / (
        27.0 * a * a * a
    )
    return shift, p, q


def _three_real_roots(coeffs: CubicCoeffs) -> tuple[float, float, float]:
    # Trigonometric method on the depressed cubic t^3 + pt + q.
    shift, p, q = _depressed(coeffs)
    # Three real roots force p < 0.
    r = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q / (p * r)
    arg = max(-1.0, min(1.0, arg))
    theta = math.acos(arg)
    roots = [
        r * math.cos(theta / 3.0 - 2.0 * math.pi * j / 3.0) - shift for j in range(3)
    ]
    roots = sorted(_newton_polish(coeffs, Z) for Z in roots)
    return roots[0], roots[1], roots[2]


def _one_real_root(coeffs: CubicCoeffs) -> float:
    # Cardano's formula with sign-preserving cube roots.
    shift, p, q = _depressed(coeffs)
    # disc rounds below zero when the complex pair is nearly double next
    # to a far-off real root (tiny k|A|); disc = 0 then locates that root.
    disc = 0.25 * q * q + p * p * p / 27.0
    s = math.sqrt(max(disc, 0.0))
    t = _cbrt(-0.5 * q + s) + _cbrt(-0.5 * q - s)
    return _newton_polish(coeffs, t - shift)


def _check_residual(coeffs: CubicCoeffs, Z: float, scale: float) -> None:
    # The rounding of P(Z) grows with its summed term size, which a
    # far-off root lifts well above the coefficient scale.
    az = abs(Z)
    terms = ((abs(coeffs.a3) * az + abs(coeffs.a2)) * az + abs(coeffs.a1)) * az
    bound = ROOT_RESIDUAL_RTOL * max(scale, terms + abs(coeffs.a0))
    if abs(coeffs.evaluate(Z)) > bound:
        raise DegenerateRootsError(f"root {Z} failed to refine below residual {bound}")


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _case1_data(Z1: float, Z2: float, Z3: float, k_abs_A: float) -> Case1Reduction:
    if not (Z1 < Z2 < Z3):
        raise DegenerateRootsError(
            f"case 1 requires strictly ordered roots, got ({Z1}, {Z2}, {Z3})"
        )
    k1sq = (Z2 - Z1) / (Z3 - Z1)
    C1 = k_abs_A * math.sqrt(Z3 - Z1) / math.sqrt(3.0)
    return Case1Reduction(Z1=Z1, Z2=Z2, Z3=Z3, k1sq=k1sq, C1=C1)


def _case2_data(Z0: float, p: float, q: float, k_abs_A: float) -> Case2Reduction:
    if p * p - 4.0 * q >= 0.0:
        raise ContractViolationError(
            "case 2 requires a complex quadratic factor; "
            f"got p^2 - 4q = {p * p - 4.0 * q}"
        )
    s = math.sqrt(Z0 * Z0 + p * Z0 + q)
    k2sq = 0.5 * (1.0 - (Z0 + 0.5 * p) / s)
    C2 = 2.0 / math.sqrt(3.0) * k_abs_A * s ** 0.5
    return Case2Reduction(Z0=Z0, p=p, q=q, k2sq=k2sq, C2=C2)


def classify_roots(coeffs: CubicCoeffs) -> CubicReduction:
    """Classify the real roots of P and build the matching reduction.

    Parameters
    ----------
    coeffs : CubicCoeffs
        Must have a3 != 0.

    Returns
    -------
    Case1Reduction or Case2Reduction
        Case 1 when the discriminant is positive (three distinct real
        roots), Case 2 when it is negative (one real root).

    Raises
    ------
    DegenerateRootsError
        When the discriminant vanishes to within DISCRIMINANT_RTOL of the
        coefficient scale (repeated roots, no supported closed form) or
        when root refinement cannot reach the residual bound.
    ParameterDomainError
        When the scale exceeds SCALE_MAX or the discriminant overflows.
    """
    if coeffs.a3 == 0.0:
        raise ContractViolationError("leading coefficient a3 must be nonzero")
    scale = coeffs.scale()
    delta = discriminant(coeffs)
    if not scale <= SCALE_MAX:
        raise _scale_error(scale)
    if abs(delta) <= DISCRIMINANT_RTOL * scale ** 4:
        raise DegenerateRootsError(
            f"cubic discriminant {delta} is degenerate at coefficient scale {scale}"
        )
    # a3 = (4/3) k^2 A^2 makes k|A| recoverable from the cubic itself.
    k_abs_A = math.sqrt(3.0 * coeffs.a3) / 2.0
    if delta > 0.0:
        Z1, Z2, Z3 = _three_real_roots(coeffs)
        for Z in (Z1, Z2, Z3):
            _check_residual(coeffs, Z, scale)
        return _case1_data(Z1, Z2, Z3, k_abs_A)
    Z0 = _one_real_root(coeffs)
    _check_residual(coeffs, Z0, scale)
    # Deflation: P(Z)/a3 = (Z - Z0)(Z^2 + pZ + q).
    p = coeffs.a2 / coeffs.a3 + Z0
    q = coeffs.a1 / coeffs.a3 + p * Z0
    return _case2_data(Z0, p, q, k_abs_A)

