"""Linear deep-water gravity wave in physical variables.

The free surface is eta = a cos(k(x - ct)) with dispersion speed
c = direction * sqrt(g/k).  The velocity field below the surface is

    u = A e^{kz} cos(k(x - ct)),    v = A e^{kz} sin(k(x - ct)),

with the shared amplitude envelope A e^{kz}, A := a c k.  Pressure is
p = p0 - rho g z + rho a g e^{kz} cos(k(x - ct)).  The density rho
defaults to 1 and p0 to 0, matching the non-dimensional normalization;
both stay configurable for physical-unit output.

All functions here are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ParameterDomainError

TAU = 2.0 * math.pi
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class WaveParams:
    """Physical description of one linear deep-water wave.

    Parameters
    ----------
    k : float
        Wavenumber [rad/length], k > 0.
    a : float
        Wave amplitude [length], a > 0.
    g : float
        Gravitational acceleration [length/time^2], g > 0.
    direction : int
        +1 for a right-going wave, -1 for a left-going wave.
    p0 : float
        Atmospheric pressure constant (default 0).
    rho : float
        Water density (default 1, the non-dimensional choice).
    """

    k: float
    a: float
    g: float
    direction: int = +1
    p0: float = 0.0
    rho: float = 1.0

    def __post_init__(self):
        if not (self.k > 0.0 and math.isfinite(self.k)):
            raise ParameterDomainError(f"wavenumber k must be positive, got {self.k}")
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ParameterDomainError(f"amplitude a must be positive, got {self.a}")
        if not (self.g > 0.0 and math.isfinite(self.g)):
            raise ParameterDomainError(f"gravity g must be positive, got {self.g}")
        if self.direction not in (+1, -1):
            raise ParameterDomainError(
                f"direction must be +1 or -1, got {self.direction}"
            )
        if not (self.rho > 0.0 and math.isfinite(self.rho)):
            raise ParameterDomainError(f"density rho must be positive, got {self.rho}")
        if not math.isfinite(self.p0):
            raise ParameterDomainError(f"pressure constant p0 must be finite, got {self.p0}")
        kA = self.k * self.A
        if not (math.isfinite(self.c) and math.isfinite(kA) and kA != 0.0):
            raise ParameterDomainError(
                f"c = {self.c} and kA = {kA} must be finite, kA nonzero"
            )

    @property
    def c(self) -> float:
        """Phase speed direction * sqrt(g/k); |c|^2 k = g."""
        return self.direction * math.sqrt(self.g / self.k)

    @property
    def A(self) -> float:
        """Trajectory constant A = a c k; nonzero, same sign as direction."""
        return self.a * self.c * self.k

    @property
    def wavelength(self) -> float:
        """Spatial period 2 pi / k."""
        return TAU / self.k

    @property
    def wave_period(self) -> float:
        """Temporal period of the surface pattern, 2 pi / (k |c|)."""
        return TAU / (self.k * abs(self.c))


@dataclass(frozen=True)
class FieldSample:
    """Field values at one point: velocity (u, v), pressure p, surface
    elevation eta at the same horizontal position, and a flag marking
    probes above the instantaneous surface."""

    u: float
    v: float
    p: float
    eta: float
    above_surface: bool


def phase(params: WaveParams, x: float, t: float) -> float:
    """Wave phase k(x - ct) reduced to [-pi, pi].

    Reduction keeps trig evaluation accurate on long-time runs.  Raises
    ParameterDomainError when k(x - ct) is not finite: a non-finite x or
    t, or an overflow.
    """
    w = params.k * (x - params.c * t)
    if not math.isfinite(w):
        raise ParameterDomainError(f"phase k(x - ct) = {w} at x={x}, t={t}")
    return math.remainder(w, TAU)


def evaluate_field(params: WaveParams, x: float, z: float, t: float) -> FieldSample:
    """Evaluate velocity, pressure and surface elevation at (x, z, t).

    z = 0 is the mean surface and z < 0 lies below it.  The formulas are
    valid for any z: probes above the surface are flagged via
    ``above_surface``, not rejected, so that a path integrator may
    transiently overshoot without hard errors.  Raises
    ParameterDomainError when x, z or t is not finite, or k(x - ct),
    e^{kz} or a field value overflows.
    """
    th = phase(params, x, t)
    cos_th = math.cos(th)
    sin_th = math.sin(th)
    # math.exp raises past log(max float); a NaN kz also maps to inf.
    growth = math.exp(params.k * z) if params.k * z <= _LOG_MAX else math.inf
    envelope = params.A * growth
    eta = params.a * cos_th
    p = (
        params.p0
        - params.rho * params.g * z
        + params.rho * params.a * params.g * growth * cos_th
    )
    if not (math.isfinite(envelope) and math.isfinite(p)):
        raise ParameterDomainError(f"field at z={z} overflows: e^(kz) or p")
    return FieldSample(
        u=envelope * cos_th,
        v=envelope * sin_th,
        p=p,
        eta=eta,
        above_surface=z > eta,
    )
