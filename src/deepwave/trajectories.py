"""Closed-form particle paths and their assembly into (x, z) series.

Three closed forms are implemented for the moving-frame coordinates
X = k(x - ct), Z = kz of a particle below the linear deep-water wave:

* the peakon-like path x = ct + const1, z = -(1/k) log|kA t + const2|
  with a vertical asymptote at t* = -const2/(kA);
* the bounded oscillation (case 1, three real cubic roots)
  Z(t) = Z2 sn^2(C1 (t - t0); k1^2) + Z1 cn^2(C1 (t - t0); k1^2);
* the escaping branch (case 2, one real cubic root)
  Z(t) = Z0 + sqrt(Z0^2 + p Z0 + q) (1 - cn)/(1 + cn),
  cn = cn(C2 (t - t0); k2^2), with vertical asymptotes where 1 + cn = 0.

Horizontal assembly rests on a first integral of the moving-frame
system: along exact orbits the combination

    beta = k c Z - k A e^Z cos X

is constant, so cos X = (k c Z - beta)/(k A e^Z) is pinned by Z alone
and only the sign of sin X is free.  The emitted phase is therefore
X = s * arccos(...) with one global sign s per series.  This keeps x(t)
continuous and piecewise smooth, makes the per-period x increment equal
c * T exactly, and needs no turning-point bookkeeping.  Because Z comes
from the truncated cubic model while the phase relation is untruncated,
the arccos argument stays strictly inside (-1, 1); its distance to +-1
at the turning points is the truncation gap.  One consequence is that
sin X keeps the sign fixed by s, so the field's vertical velocity is
matched in magnitude but not in sign on retracing half-periods; the
residual reports quantify this instead of hiding it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    AsymptoteProximityError,
    ContractViolationError,
    ParameterDomainError,
)
from .cubic_analysis import Case1Reduction, Case2Reduction
from .special_functions import complete_K, jacobi_sn_cn_dn
from .wave_field import WaveParams, evaluate_field

# Samples whose phase distance to an asymptote of 1 + cn falls below this
# guard are rejected (point evaluation) or dropped (series sampling).
ASYMPTOTE_GUARD = 1e-9

# cn rounds to exactly -1 once the phase distance drops under ~sqrt(eps),
# which the phase guard alone cannot see; any denominator 1 + cn below
# this floor counts as on-asymptote.
CN_DENOM_GUARD = 1e-12

# Square-root argument below this is a contract violation rather than a
# turning-point rounding artifact.
SQRT_ARG_TOL = 1e-9

# A time argument of the closed forms: one instant or a 1-d array of them.
Times = float | np.ndarray

CASE_TAGS = ("peakon", "case1", "case2", "oracle-full", "oracle-truncated")


@dataclass(frozen=True)
class PeakonParams:
    """Constants of the peakon-like path, fixed by initial conditions.

    const1 is the x offset; const2 enters |kA t + const2|.  The vertical
    asymptote sits at t* = -const2/(kA).
    """

    const1: float
    const2: float

    def blowup_time(self, params: WaveParams) -> float:
        return -self.const2 / (params.k * params.A)


@dataclass(frozen=True)
class ZSeries:
    """Sampled vertical moving-frame coordinate Z(t).

    dZdt is optional; closed forms fill it analytically, integrators fill
    it from the right-hand side.  blowup_time is set by the truncated
    integrator when the sample window was cut short by an escape event.
    Arrays are treated as immutable once stored.
    """

    t: np.ndarray
    Z: np.ndarray
    dZdt: np.ndarray | None = None
    blowup_time: float | None = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        Z = np.asarray(self.Z, dtype=float)
        if t.shape != Z.shape or t.ndim != 1 or t.size == 0:
            raise ContractViolationError("ZSeries needs matching 1-d t and Z arrays")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ContractViolationError("ZSeries times must increase strictly")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "Z", Z)
        if self.dZdt is not None:
            d = np.asarray(self.dZdt, dtype=float)
            if d.shape != t.shape:
                raise ContractViolationError("ZSeries dZdt must match t in shape")
            object.__setattr__(self, "dZdt", d)


@dataclass(frozen=True)
class TrajectorySeries:
    """Sampled particle path with both physical and moving-frame samples.

    Invariants checked on construction: t strictly increasing, and the
    frame maps X = k(x - ct), Z = k z hold at every sample.
    """

    k: float
    c: float
    t: np.ndarray
    x: np.ndarray
    z: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    case_tag: str
    period: float | None = None
    drift_per_period: float | None = None
    asymptote_times: tuple[float, ...] | None = None
    dZdt: np.ndarray | None = None

    def __post_init__(self):
        if self.case_tag not in CASE_TAGS:
            raise ContractViolationError(f"unknown case tag {self.case_tag!r}")
        arrays = {}
        for name in ("t", "x", "z", "X", "Z"):
            arrays[name] = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arrays[name])
        n = arrays["t"].size
        if n == 0 or any(a.shape != (n,) for a in arrays.values()):
            raise ContractViolationError("series arrays must share one 1-d shape")
        if n > 1 and not np.all(np.diff(arrays["t"]) > 0.0):
            raise ContractViolationError("series times must increase strictly")
        if self.dZdt is not None:
            d = np.asarray(self.dZdt, dtype=float)
            if d.shape != (n,):
                raise ContractViolationError("dZdt must match the sample count")
            object.__setattr__(self, "dZdt", d)
        # Frame consistency, with the tolerance scaled by the phase k c t
        # whose rounding floor grows on long runs.
        scale = np.maximum(1.0, np.abs(self.k * self.c * arrays["t"]))
        if np.any(
            np.abs(arrays["X"] - self.k * (arrays["x"] - self.c * arrays["t"]))
            > 1e-12 * scale
        ):
            raise ContractViolationError("X samples violate X = k(x - ct)")
        if np.any(
            np.abs(arrays["Z"] - self.k * arrays["z"])
            > 1e-12 * np.maximum(1.0, np.abs(arrays["Z"]))
        ):
            raise ContractViolationError("Z samples violate Z = k z")


class BetaCandidates(NamedTuple):
    """Both admissible integration constants for one initial state.

    ``plus`` carries + sqrt(k^2 A^2 e^{2Z} - (dZ/dt)^2), i.e. the branch
    with k A e^Z cos X < 0; ``minus`` carries the opposite branch.
    """

    plus: float
    minus: float


def peakon_path(params: WaveParams, pk: PeakonParams, t: float) -> tuple[float, float]:
    """Evaluate the peakon-like path at time t.

    Returns (x, z) with x = ct + const1 and z = -(1/k) log|kA t + const2|.
    z rises to +infinity as t approaches t* = -const2/(kA) from either
    side and sinks to -infinity as |t| grows.

    Raises
    ------
    AsymptoteProximityError
        When |kA t + const2| < 1e-300 (vertical-asymptote underflow).
    """
    w = params.k * params.A * t + pk.const2
    if abs(w) < 1e-300:
        raise AsymptoteProximityError(
            f"peakon evaluation at t={t} is on the vertical asymptote",
            nearest_time=pk.blowup_time(params),
        )
    x = params.c * t + pk.const1
    z = -math.log(abs(w)) / params.k
    return x, z


def peakon_residuals(
    params: WaveParams, pk: PeakonParams, t: float
) -> tuple[float, float]:
    """Residuals of the peakon path against the particle velocity field.

    residual_eq1 = |x'(t) - u(x, z, t)| with x' = c, and
    residual_eq2 = |z'(t) - v(x, z, t)| with z' = -A/(kA t + const2).

    residual_eq2 vanishes when k * const1 = pi/2 (mod 2 pi) and the sign
    conventions align, i.e. on the t < t* side for A > 0 (and t > t* for
    A < 0), where sin(k const1) = -sign(kA t + const2).  residual_eq1
    stays at |c - A e^{kz} cos(k const1)| and is reported as-is; it is
    |c| exactly under the pi/2 convention.
    """
    x, z = peakon_path(params, pk, t)
    w = params.k * params.A * t + pk.const2
    zdot = -params.A / w
    sample = evaluate_field(params, x, z, t)
    return abs(params.c - sample.u), abs(zdot - sample.v)


def peakon_series(
    params: WaveParams,
    pk: PeakonParams,
    t_start: float,
    t_end: float,
    n_samples: int,
) -> TrajectorySeries:
    """Uniformly sampled peakon path over [t_start, t_end].

    Samples whose asymptote argument |kA t + const2| falls below the
    guard band are dropped, leaving a gap instead of huge finite values.
    """
    t = _sample_grid(t_start, t_end, n_samples)
    w = params.k * params.A * t + pk.const2
    keep = np.abs(w) >= ASYMPTOTE_GUARD
    if not np.any(keep):
        raise AsymptoteProximityError(
            "every requested sample sits inside the asymptote guard band",
            nearest_time=pk.blowup_time(params),
        )
    t = t[keep]
    w = w[keep]
    x = params.c * t + pk.const1
    Z = -np.log(np.abs(w))
    z = Z / params.k
    X = np.full_like(t, params.k * pk.const1)
    return TrajectorySeries(
        k=params.k,
        c=params.c,
        t=t,
        x=x,
        z=z,
        X=X,
        Z=Z,
        case_tag="peakon",
        asymptote_times=(pk.blowup_time(params),),
        dZdt=-params.k * params.A / w,
    )


def case1_Z(red: Case1Reduction, t: Times, t0: float = 0.0) -> Times:
    """Bounded vertical motion Z(t) = Z2 sn^2 + Z1 cn^2 at C1 (t - t0).

    t is a float or a 1-d array; the result has the same form.  The
    value always lies in [Z1, Z2]; Z(t0) = Z1 and the opposite turning
    point Z2 is reached a half period later.
    """
    return _like(t, _case1(red, t, t0)[0])


def case1_dZdt(red: Case1Reduction, t: Times, t0: float = 0.0) -> Times:
    """Time derivative of case1_Z: 2 C1 (Z2 - Z1) sn cn dn."""
    return _like(t, _case1(red, t, t0)[1])


def period_case1(red: Case1Reduction) -> float:
    """Period of the vertical oscillation, T = 2 K(k1^2) / C1."""
    return 2.0 * complete_K(red.k1sq) / red.C1


def case2_Z(red: Case2Reduction, t: Times, t0: float = 0.0) -> Times:
    """Escaping vertical motion Z(t) = Z0 + sqrt(Z0^2+pZ0+q)(1-cn)/(1+cn).

    t is a float or a 1-d array; the result has the same form.
    Z(t0) = Z0, Z >= Z0 always, and Z diverges where 1 + cn = 0.

    Raises
    ------
    AsymptoteProximityError
        When any sample is guarded: its phase C2 (t - t0) lies within
        ASYMPTOTE_GUARD of 2K (mod 4K), or its 1 + cn falls below
        CN_DENOM_GUARD.  case2_series drops exactly these samples.  The
        nearest asymptote time of the first guarded sample is attached.
    """
    return _like(t, _case2_point(red, t, t0)[0])


def case2_dZdt(red: Case2Reduction, t: Times, t0: float = 0.0) -> Times:
    """Time derivative of case2_Z: 2 C2 R sn dn / (1 + cn)^2."""
    return _like(t, _case2_point(red, t, t0)[1])


def asymptote_times(
    red: Case2Reduction, t0: float, n_values: Iterable[int]
) -> tuple[float, ...]:
    """Vertical-asymptote times t_n = t0 + (2 + 4n) K(k2^2) / C2.

    Consecutive asymptotes are one cn period 4K/C2 apart.
    """
    quarter = complete_K(red.k2sq)
    return tuple(t0 + (2.0 + 4.0 * n) * quarter / red.C2 for n in n_values)


def beta_from_initial(
    params: WaveParams, Z_init: float, dZdt_init: float
) -> BetaCandidates:
    """Both integration constants compatible with (Z, dZ/dt) at one instant.

    The vertical equation gives (k c Z - beta)^2 = k^2 A^2 e^{2Z} -
    (dZ/dt)^2, hence two candidates beta = k c Z -+ sqrt(...).  The
    caller selects the branch matching its sign convention for cos X.

    Raises
    ------
    ContractViolationError
        When |dZ/dt| exceeds the velocity envelope k |A| e^Z.
    """
    envelope = params.k * params.A * math.exp(Z_init)
    disc = envelope * envelope - dZdt_init * dZdt_init
    if disc < -1e-12 * max(envelope * envelope, dZdt_init * dZdt_init):
        raise ContractViolationError(
            f"vertical rate {dZdt_init} exceeds the field envelope {abs(envelope)}"
        )
    root = math.sqrt(max(disc, 0.0))
    anchor = params.k * params.c * Z_init
    return BetaCandidates(plus=anchor + root, minus=anchor - root)


def assemble_xz(
    params: WaveParams,
    beta: float,
    zs: ZSeries,
    stitching: int | None = None,
    *,
    case_tag: str,
    period: float | None = None,
    asymptote_times: tuple[float, ...] | None = None,
) -> TrajectorySeries:
    """Assemble the full path (x, z) from a sampled Z(t).

    The horizontal phase follows from the conserved combination
    beta = k c Z - k A e^Z cos X (see the module docstring):
    X = s * arccos((k c Z - beta)/(k A e^Z)) with one global sign s and
    x = ct + X/k, z = Z/k.

    Parameters
    ----------
    params : WaveParams
    beta : float
        Integration constant the Z series was built with.
    zs : ZSeries
        Sampled Z(t), ideally with analytic dZdt attached.
    stitching : int or None
        +1 or -1 forces the global sign; None selects it so that the
        emitted dx/dt matches the field velocity u at the first sample,
        which is equivalent to matching the initial vertical motion
        sense (ties at a turning-point start resolve to the forward
        sense of motion, s = sign(A) * sign of the upcoming dZ/dt).
    case_tag, period, asymptote_times
        Metadata copied into the series; drift per period is c * period.

    Raises
    ------
    ContractViolationError
        When 1 - cos^2 X drops below -1e-9, i.e. Z leaves the admissible
        band (wrong beta or misclassified case).
    """
    k = params.k
    c = params.c
    A = params.A
    t = zs.t
    Z = zs.Z
    with np.errstate(over="raise"):
        try:
            r = (k * c * Z - beta) * np.exp(-Z) / (k * A)
        except FloatingPointError as exc:
            raise ContractViolationError(
                "cos X overflowed; Z samples are far outside the admissible band"
            ) from exc
    arg = 1.0 - r * r
    if np.min(arg) < -SQRT_ARG_TOL:
        raise ContractViolationError(
            f"cos^2 X exceeds 1 by {-np.min(arg):.3e}; "
            "Z outside the admissible band (wrong beta or case)"
        )
    Xc = np.arccos(np.clip(r, -1.0, 1.0))

    dZdt = zs.dZdt if zs.dZdt is not None else _gradient(Z, t)
    if stitching in (+1, -1):
        s = float(stitching)
    elif stitching is None:
        s = _select_sign(params, beta, Z, r, arg, dZdt)
    else:
        raise ParameterDomainError(f"stitching must be +1, -1 or None, got {stitching}")

    X = s * Xc
    x = c * t + X / k
    return TrajectorySeries(
        k=k,
        c=c,
        t=t,
        x=x,
        z=Z / k,
        X=X,
        Z=Z,
        case_tag=case_tag,
        period=period,
        drift_per_period=None if period is None else c * period,
        asymptote_times=asymptote_times,
        dZdt=None if dZdt is None else np.asarray(dZdt, dtype=float),
    )


def case1_series(
    params: WaveParams,
    red: Case1Reduction,
    beta: float,
    t_start: float,
    t_end: float,
    n_samples: int,
    t0: float = 0.0,
) -> TrajectorySeries:
    """Uniformly sampled case-1 path over [t_start, t_end]."""
    t = _sample_grid(t_start, t_end, n_samples)
    Z, dZdt = _case1(red, t, t0)
    return assemble_xz(
        params,
        beta,
        ZSeries(t=t, Z=Z, dZdt=dZdt),
        case_tag="case1",
        period=period_case1(red),
    )


def case2_series(
    params: WaveParams,
    red: Case2Reduction,
    beta: float,
    t_start: float,
    t_end: float,
    n_samples: int,
    t0: float = 0.0,
) -> TrajectorySeries:
    """Uniformly sampled case-2 path over [t_start, t_end].

    Samples inside the asymptote guard band are dropped; all asymptote
    times intersecting the window are attached as metadata.
    """
    t = _sample_grid(t_start, t_end, n_samples)
    keep, Z, dZdt = _case2(red, t, t0)
    if not np.any(keep):
        raise AsymptoteProximityError(
            "every requested sample sits inside the asymptote guard band"
        )
    t = t[keep]
    quarter = complete_K(red.k2sq)
    n_lo = math.floor((red.C2 * (t_start - t0) / quarter - 2.0) / 4.0)
    n_hi = math.ceil((red.C2 * (t_end - t0) / quarter - 2.0) / 4.0)
    marks = tuple(
        ta
        for ta in asymptote_times(red, t0, range(n_lo, n_hi + 1))
        if t_start <= ta <= t_end
    )
    return assemble_xz(
        params,
        beta,
        ZSeries(t=t, Z=Z, dZdt=dZdt),
        case_tag="case2",
        asymptote_times=marks,
    )


def quadrature_x_check(params: WaveParams, series: TrajectorySeries) -> np.ndarray:
    """Cross-check x(t) by integrating the field velocity along the path.

    Returns the cumulative trapezoid of u = A e^Z cos X starting from the
    series' first x sample.  For truncated closed forms this drifts away
    from the assembled x at a rate set by the truncation gap; the result
    is a diagnostic, not a replacement.
    """
    u = params.A * np.exp(series.Z) * np.cos(series.X)
    dt = np.diff(series.t)
    increments = 0.5 * (u[1:] + u[:-1]) * dt
    x = np.empty_like(series.x)
    x[0] = series.x[0]
    np.cumsum(increments, out=x[1:])
    x[1:] += series.x[0]
    return x


def _case1(
    red: Case1Reduction, t: Times, t0: float
) -> tuple[np.ndarray, np.ndarray]:
    """Case-1 closed form (Z, dZdt) at every sample of t."""
    sn, cn, dn = jacobi_sn_cn_dn(red.C1 * (np.atleast_1d(t) - t0), red.k1sq)
    Z = red.Z2 * sn * sn + red.Z1 * cn * cn
    dZdt = 2.0 * red.C1 * (red.Z2 - red.Z1) * sn * cn * dn
    return Z, dZdt


def _case2(
    red: Case2Reduction, t: Times, t0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Case-2 closed form at the samples of t that pass the asymptote rule.

    Returns (keep, Z, dZdt): keep marks those samples of t, and Z and
    dZdt hold the values at them only.  A sample is guarded when its
    phase distance to 2K (mod 4K) is below ASYMPTOTE_GUARD or its 1 + cn
    is below CN_DENOM_GUARD.
    """
    quarter = complete_K(red.k2sq)
    u = red.C2 * (np.atleast_1d(t) - t0)
    dist = np.remainder(u - 2.0 * quarter, 4.0 * quarter)
    keep = np.minimum(dist, 4.0 * quarter - dist) >= ASYMPTOTE_GUARD
    sn, cn, dn = jacobi_sn_cn_dn(u[keep], red.k2sq)
    denom = 1.0 + cn
    clear = ~(denom < CN_DENOM_GUARD)
    keep[keep] = clear
    sn, cn, dn, denom = sn[clear], cn[clear], dn[clear], denom[clear]
    R = math.sqrt(red.Z0 * red.Z0 + red.p * red.Z0 + red.q)
    Z = red.Z0 + R * (1.0 - cn) / denom
    dZdt = 2.0 * red.C2 * R * sn * dn / (denom * denom)
    return keep, Z, dZdt


def _case2_point(
    red: Case2Reduction, t: Times, t0: float
) -> tuple[np.ndarray, np.ndarray]:
    """(Z, dZdt) of _case2 at every sample of t, or the guard's error."""
    keep, Z, dZdt = _case2(red, t, t0)
    if not np.all(keep):
        t_bad = float(np.atleast_1d(t)[np.argmin(keep)])
        u = red.C2 * (t_bad - t0)
        if not math.isfinite(u):
            raise ParameterDomainError(f"case-2 phase must be finite, got {u}")
        n = round((u / complete_K(red.k2sq) - 2.0) / 4.0)
        raise AsymptoteProximityError(
            f"case-2 evaluation at t={t_bad} is inside the asymptote guard band",
            nearest_time=asymptote_times(red, t0, (n,))[0],
        )
    return Z, dZdt


def _like(t: Times, values: np.ndarray) -> Times:
    """values as a float when t is a scalar, else as the array itself."""
    return float(values[0]) if np.ndim(t) == 0 else values


def _sample_grid(t_start: float, t_end: float, n_samples: int) -> np.ndarray:
    if n_samples < 2:
        raise ParameterDomainError(f"need at least 2 samples, got {n_samples}")
    if not t_end > t_start:
        raise ParameterDomainError(
            f"need t_end > t_start, got [{t_start}, {t_end}]"
        )
    return np.linspace(t_start, t_end, n_samples)


def _gradient(Z: np.ndarray, t: np.ndarray) -> np.ndarray | None:
    if Z.size < 2:
        return None
    return np.gradient(Z, t)


def _select_sign(
    params: WaveParams,
    beta: float,
    Z: np.ndarray,
    r: np.ndarray,
    arg: np.ndarray,
    dZdt: np.ndarray | None,
) -> float:
    """Global sign from field matching at the first sample.

    dx/dt = c + s dX_c/dt / k with dX_c/dt = -r'(Z) Z' / sqrt(1 - r^2);
    the candidate closer to u = A e^Z cos X (which is s-independent)
    wins.  Ties mean the series starts at a turning point; they resolve
    to the forward sense of motion s = sign(A) * sign of the next
    nonzero dZ/dt.
    """
    k = params.k
    c = params.c
    A = params.A
    fallback = _sign_of_motion(A, dZdt)
    if dZdt is None:
        return fallback
    denom = math.sqrt(max(arg[0], 0.0))
    if denom < 1e-12:
        return fallback
    # r'(Z) at the first sample.
    rprime = (k * c - (k * c * Z[0] - beta)) * math.exp(-Z[0]) / (k * A)
    rate = -rprime * dZdt[0] / denom
    # u = A e^Z cos X collapses to (k c Z - beta)/k on the path, which
    # stays finite where e^Z alone would overflow.
    u0 = (k * c * Z[0] - beta) / k
    gap_plus = abs(c + rate / k - u0)
    gap_minus = abs(c - rate / k - u0)
    if abs(gap_plus - gap_minus) <= 1e-12 * max(1.0, abs(c)):
        return fallback
    return 1.0 if gap_plus < gap_minus else -1.0


def _sign_of_motion(A: float, dZdt: np.ndarray | None) -> float:
    if dZdt is not None:
        for value in dZdt:
            if value != 0.0:
                return math.copysign(1.0, A) * math.copysign(1.0, value)
    return math.copysign(1.0, A)
