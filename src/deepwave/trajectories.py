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

is constant, so cos X = (k c Z - beta)/(k A e^Z) is pinned by Z alone.
Z does not fix the sheet h of X, the integer with h pi <= X <= (h+1) pi:
X = h pi + arccos(cos X) on even sheets, (h+1) pi - arccos(cos X) on odd
ones.  dZ/dt = k A e^Z sin X gives sin X the sign of A dZ/dt, so X moves
to the next sheet at every turning point of Z, passing an odd multiple
of pi (and wrapping by 2 pi) where cos X < 0 there.  The closed forms
read h off the elliptic phase, so X does not depend on how densely a
series is sampled.  As Z comes from the truncated cubic model, the
arccos argument stops short of +-1 at a turning point Z_turn and x jumps
by 2 arccos|cos X(Z_turn)|/k there: that jump is the truncation gap.
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

# 1 - cos^2 X below minus this is a contract violation rather than a
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
        # Frame consistency, with the tolerance scaled by the phases k c t
        # and X, whose rounding floors grow on long runs.
        scale = np.maximum(1.0, np.abs(self.k * self.c * arrays["t"]))
        np.maximum(scale, np.abs(arrays["X"]), out=scale)
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
    return _like(t, _case1(red, red.C1 * (np.atleast_1d(t) - t0))[0])


def case1_dZdt(red: Case1Reduction, t: Times, t0: float = 0.0) -> Times:
    """Time derivative of case1_Z: 2 C1 (Z2 - Z1) sn cn dn."""
    return _like(t, _case1(red, red.C1 * (np.atleast_1d(t) - t0))[1])


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
    return _asymptote_times(red, complete_K(red.k2sq), t0, n_values)


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
    *,
    case_tag: str,
    period: float | None = None,
    asymptote_times: tuple[float, ...] | None = None,
) -> TrajectorySeries:
    """Assemble the full path (x, z) from a sampled Z(t).

    The horizontal phase follows from the conserved combination
    beta = k c Z - k A e^Z cos X (see the module docstring), X = k(x - ct)
    and z = Z/k.  With no elliptic phase, the sheets come from the samples:
    sin X has the sign of A dZ/dt (numpy.gradient of Z when dZdt is not
    attached; the sign of A where dZ/dt = 0), and each sign change is a
    turning point, where X wraps by 2 pi times the old sign of sin X if
    cos X < 0 there; the samples must resolve every turning point.  With
    a period, the drift per period counts the wraps at the sampled
    extremes of Z, as case1_series does at Z1 and Z2.

    Raises
    ------
    ContractViolationError
        When 1 - cos^2 X drops below -1e-9, i.e. Z leaves the admissible
        band (wrong beta or misclassified case).
    """
    Z = zs.Z
    cos_X = _cos_phase(params, beta, Z)
    dZdt = zs.dZdt if zs.dZdt is not None or Z.size < 2 else np.gradient(Z, zs.t)
    odd = params.A * (np.zeros(1) if dZdt is None else dZdt) < 0.0
    wraps = ((odd[1:] != odd[:-1]) & (cos_X[1:] + cos_X[:-1] < 0.0)).astype(np.int64)
    np.negative(wraps, out=wraps, where=odd[:-1])
    sheet = np.zeros(Z.shape, dtype=np.int64)
    np.cumsum(wraps, out=sheet[1:])
    sheet *= 2
    sheet -= odd
    drift = None
    if period is not None:
        net = _laps(params, cos_X[np.argmin(Z)] < 0.0, cos_X[np.argmax(Z)] < 0.0)
        drift = params.c * period + 2.0 * math.pi * net / params.k
    return _assemble(
        params, zs.t, Z, dZdt, cos_X, sheet, case_tag=case_tag, period=period,
        drift_per_period=drift, asymptote_times=asymptote_times,
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
    """Uniformly sampled case-1 path over [t_start, t_end].

    Z turns at the phases u = C1 (t - t0) = jK (Z1 for even j, Z2 for odd
    j), so the half period floor(u/K) of each sample fixes its sheet; the
    drift per period is c T plus 2 pi/k per net wrap at Z1 and Z2.
    """
    t = _sample_grid(t_start, t_end, n_samples)
    quarter = complete_K(red.k1sq)
    u = red.C1 * (t - t0)
    Z, dZdt = _case1(red, u)
    half = np.floor(np.divide(u, quarter, out=u), out=u).astype(np.int64)
    del u
    cos_X = _cos_phase(params, beta, Z)
    below = [_cos_negative(params, beta, Z_turn) for Z_turn in (red.Z1, red.Z2)]
    period = 2.0 * quarter / red.C1
    drift = params.c * period + 2.0 * math.pi * _laps(params, *below) / params.k
    return _assemble(
        params, t, Z, dZdt, cos_X, _sheets(params, half, *below), case_tag="case1",
        period=period, drift_per_period=drift,
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
    times intersecting the window are attached as metadata.  Z has its
    minimum Z0 at the phases u = C2 (t - t0) = 0 (mod 4K), and X is
    4K-periodic in u: the asymptotes between periods are gaps.
    """
    t = _sample_grid(t_start, t_end, n_samples)
    quarter = complete_K(red.k2sq)
    keep, Z, dZdt, rising = _case2(red, quarter, red.C2 * (t - t0))
    if not np.any(keep):
        raise AsymptoteProximityError(
            "every requested sample sits inside the asymptote guard band"
        )
    t = t[keep]
    cos_X = _cos_phase(params, beta, Z)
    # Half periods 0 (rising) and -1 (falling) of an oscillation whose top
    # is the asymptote, where cos X tends to 0.
    half = rising.astype(np.int64) - 1
    sheet = _sheets(params, half, _cos_negative(params, beta, red.Z0), False)
    n_lo = math.floor((red.C2 * (t_start - t0) / quarter - 2.0) / 4.0)
    n_hi = math.ceil((red.C2 * (t_end - t0) / quarter - 2.0) / 4.0)
    marks = tuple(
        ta
        for ta in _asymptote_times(red, quarter, t0, range(n_lo, n_hi + 1))
        if t_start <= ta <= t_end
    )
    return _assemble(
        params, t, Z, dZdt, cos_X, sheet, case_tag="case2", asymptote_times=marks
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


def _case1(red: Case1Reduction, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Case-1 closed form (Z, dZdt) at every phase u = C1 (t - t0)."""
    sn, cn, dn = jacobi_sn_cn_dn(u, red.k1sq)
    Z = red.Z2 * sn * sn + red.Z1 * cn * cn
    dZdt = 2.0 * red.C1 * (red.Z2 - red.Z1) * sn * cn * dn
    return Z, dZdt


def _case2(
    red: Case2Reduction, quarter: float, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Case-2 closed form at the phases u = C2 (t - t0) that pass the
    asymptote rule, for quarter = K(k2^2).

    Returns (keep, Z, dZdt, rising): keep marks those phases, and Z,
    dZdt and rising (u in [0, 2K) mod 4K, where Z climbs from Z0) hold
    the values at them only.  A phase is guarded when its distance to 2K
    (mod 4K) is below ASYMPTOTE_GUARD or its 1 + cn below CN_DENOM_GUARD.
    """
    if not np.all(np.isfinite(u)):
        bad = float(u[np.argmin(np.isfinite(u))])
        raise ParameterDomainError(f"case-2 phase must be finite, got {bad}")
    dist = np.remainder(u - 2.0 * quarter, 4.0 * quarter)
    rising = dist >= 2.0 * quarter
    keep = np.minimum(dist, 4.0 * quarter - dist) >= ASYMPTOTE_GUARD
    sn, cn, dn = jacobi_sn_cn_dn(u[keep], red.k2sq)
    denom = 1.0 + cn
    clear = ~(denom < CN_DENOM_GUARD)
    keep[keep] = clear
    sn, cn, dn, denom = sn[clear], cn[clear], dn[clear], denom[clear]
    R = math.sqrt(red.Z0 * red.Z0 + red.p * red.Z0 + red.q)
    Z = red.Z0 + R * (1.0 - cn) / denom
    dZdt = 2.0 * red.C2 * R * sn * dn / (denom * denom)
    return keep, Z, dZdt, rising[keep]


def _case2_point(
    red: Case2Reduction, t: Times, t0: float
) -> tuple[np.ndarray, np.ndarray]:
    """(Z, dZdt) of _case2 at every sample of t, or the guard's error."""
    quarter = complete_K(red.k2sq)
    u = red.C2 * (np.atleast_1d(t) - t0)
    keep, Z, dZdt, _ = _case2(red, quarter, u)
    if not np.all(keep):
        i = int(np.argmin(keep))
        n = round((float(u[i]) / quarter - 2.0) / 4.0)
        raise AsymptoteProximityError(
            f"case-2 evaluation at t={float(np.atleast_1d(t)[i])} "
            "is inside the asymptote guard band",
            nearest_time=_asymptote_times(red, quarter, t0, (n,))[0],
        )
    return Z, dZdt


def _asymptote_times(
    red: Case2Reduction, quarter: float, t0: float, n_values: Iterable[int]
) -> tuple[float, ...]:
    return tuple(t0 + (2.0 + 4.0 * n) * quarter / red.C2 for n in n_values)


def _cos_phase(params: WaveParams, beta: float, Z: np.ndarray) -> np.ndarray:
    """cos X = (k c Z - beta)/(k A e^Z), checked against the band |cos X| <= 1."""
    k = params.k
    with np.errstate(over="raise"):
        try:
            r = (k * params.c * Z - beta) * np.exp(-Z) / (k * params.A)
        except FloatingPointError as exc:
            raise ContractViolationError(
                "cos X overflowed; Z samples are far outside the admissible band"
            ) from exc
    worst = float(np.max(np.abs(r)))
    if 1.0 - worst * worst < -SQRT_ARG_TOL:
        raise ContractViolationError(
            f"cos^2 X exceeds 1 by {worst * worst - 1.0:.3e}; "
            "Z outside the admissible band (wrong beta or case)"
        )
    return r


def _cos_negative(params: WaveParams, beta: float, Z: float) -> bool:
    """Whether cos X < 0 at level Z, from the sign of (k c Z - beta)/A."""
    return (params.k * params.c * Z - beta) * params.A < 0.0


def _laps(params: WaveParams, below_low: bool, below_high: bool) -> int:
    """Laps of X per period (units of 2 pi) of an oscillation whose bottom
    and top turning points have cos X < 0 as flagged: X wraps by 2 pi times
    the old sign of sin X (that of A while Z rises) at each such point."""
    return (1 if params.A > 0.0 else -1) * (int(below_high) - int(below_low))


def _sheets(
    params: WaveParams, half: np.ndarray, below_low: bool, below_high: bool
) -> np.ndarray:
    """Sheets of X on the half periods half (consumed) of an oscillation
    flagged as for _laps: half j runs up from the bottom turning point for
    even j and back down for odd j, and half 0 lies on sheet 0 (-1 when
    A < 0)."""
    laps = _laps(params, below_low, below_high)
    if laps:
        # X passes an odd multiple of pi at one turning point only, so it
        # moves on by one sheet every half period.
        half *= laps
    else:
        # X rocks between the sheets of the rising and the falling halves.
        half &= 1
        half *= (1 if params.A > 0.0 else -1) * (below_low + below_high - 1)
    half -= params.A < 0.0
    return half


def _assemble(
    params: WaveParams,
    t: np.ndarray,
    Z: np.ndarray,
    dZdt: np.ndarray | None,
    cos_X: np.ndarray,
    sheet: np.ndarray,
    **meta,
) -> TrajectorySeries:
    """The series with X on the given sheets; cos_X and sheet are consumed."""
    # X = h pi + arccos on even sheets h, (h + 1) pi - arccos on odd ones.
    X = np.arccos(np.clip(cos_X, -1.0, 1.0, out=cos_X), out=cos_X)
    odd = np.bitwise_and(sheet, 1, out=np.empty(sheet.shape, bool), casting="unsafe")
    np.negative(X, out=X, where=odd)
    sheet += odd
    X += sheet * math.pi
    x = X / params.k
    x += params.c * t
    return TrajectorySeries(
        k=params.k, c=params.c, t=t, x=x, z=Z / params.k, X=X, Z=Z, dZdt=dZdt, **meta
    )


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
