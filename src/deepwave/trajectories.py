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

Each family is declared once, in a private record (_peakon_form,
_case1_form, _case2_form) of its range lines, its kernel (Z and dZ/dt at
the times its asymptote guard keeps) and its nearest-asymptote rule.  A
point call checks the lines at its earliest and latest time and raises
at the first guarded time; a sampled path checks them at the window's
ends and drops the guarded times.

Every closed form is pointwise in t: case 1 reads its sheet off
floor(u/K), case 2 off the phase modulo 4K, and the peakon has none.  So
each series builder is series() of a sampled_path.SampledPath, made by
sampled_case1, sampled_case2 or sampled_peakon, which check the window
and declare the family's metadata (case tag, period, drift, asymptote
times and the x of each asymptote line) once.  The path evaluates its
grid at once (series()) or STREAM_BLOCK times at a time (iteration),
with the same rows bit for bit.  Its kernel step is the record's kernel;
its columns step gives x and X from Z and the times alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import (
    AsymptoteProximityError,
    ContractViolationError,
    ParameterDomainError,
)
from .cubic_analysis import Case1Reduction, Case2Reduction
from .sampled_path import SampledPath
from .series import TrajectorySeries, ZSeries
from .special_functions import _chain_and_quarter, _sn_cn_dn, complete_K
from .wave_field import WaveParams, evaluate_field

# Peakon samples whose asymptote argument |kA t + const2| falls below this
# guard are dropped.
ASYMPTOTE_GUARD = 1e-9

# A case-2 phase whose denominator 1 + cn falls below this floor counts as
# on-asymptote and is rejected (point evaluation) or dropped (series
# sampling).  At phase distance d from 2K (mod 4K), 1 + cn ~ d^2/2, so the
# band reaches d ~ sqrt(2 CN_DENOM_GUARD) ~ 1.41e-6.
CN_DENOM_GUARD = 1e-12

# 1 - cos^2 X below minus this is a contract violation rather than a
# turning-point rounding artifact.
SQRT_ARG_TOL = 1e-9

# A time argument of the closed forms: one instant or an array of them.
Times = float | np.ndarray

# Most asymptotes a case-2 window may span: each is a metadata mark.
MAX_ASYMPTOTES = 100_000

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


class BetaCandidates(NamedTuple):
    """Both admissible integration constants for one initial state.

    ``plus`` carries + sqrt(k^2 A^2 e^{2Z} - (dZ/dt)^2), i.e. the branch
    with k A e^Z cos X < 0; ``minus`` carries the opposite branch.
    """

    plus: float
    minus: float


def peakon_path(params: WaveParams, pk: PeakonParams, t: Times) -> tuple[Times, Times]:
    """Evaluate the peakon-like path at time t.

    Returns (x, z) with x = ct + const1 and z = -(1/k) log|kA t + const2|.
    z rises to +infinity as t approaches t* = -const2/(kA) from either
    side and sinks to -infinity as |t| grows.  t is a float or an array of
    any shape; x and z have the same form, and at the times of a
    peakon_series they equal its x and z bit for bit.

    Raises
    ------
    ParameterDomainError
        When c t + const1 or kA t + const2 is not finite at the earliest
        or the latest t, as peakon_series rejects a window.
    AsymptoteProximityError
        When |kA t + const2| < 1e-300 at some t (vertical-asymptote
        underflow).  The two thresholds differ on purpose: a point call
        returns every finite z, also at |kA t + const2| ~ 3e-10 next to
        t*, while peakon_series leaves a gap of ASYMPTOTE_GUARD there.
    """
    Z, _, x = _at(t, _peakon_form(params, pk, 1e-300))
    return x, Z / params.k


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
    x = ct + const1 and kA t + const2 must be finite at both ends of the
    window, and X = k const1 and the asymptote time t* too.
    """
    return sampled_peakon(params, pk, t_start, t_end, n_samples).series()


def sampled_peakon(
    params: WaveParams,
    pk: PeakonParams,
    t_start: float,
    t_end: float,
    n_samples: int,
) -> SampledPath:
    """The SampledPath of peakon_series, with the same window checks."""
    form = _peakon_form(params, pk, ASYMPTOTE_GUARD)
    window = _sample_window(
        params, t_start, t_end, n_samples, *form.lines,
        ("X = k const1", lambda t: params.k * pk.const1, math.inf),
        ("t*", lambda t: pk.blowup_time(params), math.inf),
    )
    t_star = form.nearest(t_start)
    # The asymptote line sits at x = c t* + const1, drawn while t* lies in
    # the window.
    lines = (params.c * t_star + pk.const1,) if t_start <= t_star <= t_end else ()

    def columns(t, Z):
        return params.c * t + pk.const1, np.full_like(t, params.k * pk.const1)

    meta = dict(case_tag="peakon", asymptote_times=(t_star,))
    return SampledPath(window, params, form.kernel, columns, meta, t_star, lines)


def case1_Z(red: Case1Reduction, t: Times, t0: float = 0.0) -> Times:
    """Bounded vertical motion Z(t) = Z2 sn^2 + Z1 cn^2 at C1 (t - t0).

    t is a float or an array of any shape; the result has the same form.
    The value always lies in [Z1, Z2]; Z(t0) = Z1 and the opposite
    turning point Z2 is reached a half period later.

    Raises
    ------
    ParameterDomainError
        When the phase C1 (t - t0) of a sample is not finite or passes
        2^52 quarter periods K, as case1_series rejects a window.
    """
    return _at(t, _case1_form(red, t0))[0]


def case1_dZdt(red: Case1Reduction, t: Times, t0: float = 0.0) -> Times:
    """Time derivative of case1_Z: 2 C1 (Z2 - Z1) sn cn dn.

    t and the phase bound are as in case1_Z.
    """
    return _at(t, _case1_form(red, t0))[1]


def period_case1(red: Case1Reduction) -> float:
    """Period of the vertical oscillation, T = 2 K(k1^2) / C1."""
    return 2.0 * complete_K(red.k1sq) / red.C1


def case2_Z(red: Case2Reduction, t: Times, t0: float = 0.0) -> Times:
    """Escaping vertical motion Z(t) = Z0 + sqrt(Z0^2+pZ0+q)(1-cn)/(1+cn).

    t is a float or an array of any shape; the result has the same form.
    Z(t0) = Z0, Z >= Z0 always, and Z diverges where 1 + cn = 0.

    Raises
    ------
    ParameterDomainError
        When the phase C2 (t - t0) of a sample is not finite or passes
        2^52 quarter periods K, as case2_series rejects a window.
    AsymptoteProximityError
        When any sample is guarded: its 1 + cn falls below
        CN_DENOM_GUARD, i.e. its phase C2 (t - t0) lies within about
        1.41e-6 of 2K (mod 4K).  case2_series drops exactly these
        samples.  The nearest asymptote time of the first guarded sample
        is attached.
    """
    return _at(t, _case2_form(red, t0))[0]


def case2_dZdt(red: Case2Reduction, t: Times, t0: float = 0.0) -> Times:
    """Time derivative of case2_Z: 2 C2 R sn dn / (1 + cn)^2.

    t is a float or an array of any shape; the result has the same form.
    Out-of-range phases and guarded samples raise as in case2_Z.
    """
    return _at(t, _case2_form(red, t0))[1]


def asymptote_times(
    red: Case2Reduction, t0: float, n_values: Iterable[int]
) -> tuple[float, ...]:
    """Vertical-asymptote times t_n = t0 + (2 + 4n) K(k2^2) / C2.

    Consecutive asymptotes are one cn period 4K/C2 apart.

    Raises
    ------
    ParameterDomainError
        When t0 is not finite, or when an n or a resulting time is not a
        finite float.
    """
    try:
        times = _asymptote_times(red, complete_K(red.k2sq), t0, n_values)
        finite = math.isfinite(t0) and all(map(math.isfinite, times))
    except OverflowError:  # an integer n beyond the float range
        finite = False
    if not finite:
        raise ParameterDomainError(
            f"t0 = {t0} and each asymptote time t0 + (2 + 4n) K/C2 must be finite"
        )
    return times


def beta_from_initial(
    params: WaveParams, Z_init: float, dZdt_init: float
) -> BetaCandidates:
    """Both integration constants compatible with (Z, dZ/dt) at one instant.

    The vertical equation gives (k c Z - beta)^2 = k^2 A^2 e^{2Z} -
    (dZ/dt)^2, hence two candidates beta = k c Z -+ sqrt(...).  The
    caller selects the branch matching its sign convention for cos X.

    Raises
    ------
    ParameterDomainError
        When Z or dZ/dt is not finite, or when the envelope k A e^Z, its
        square or the anchor k c Z overflows.
    ContractViolationError
        When |dZ/dt| exceeds the velocity envelope k |A| e^Z, its square
        overflowing included.
    """
    if not (math.isfinite(Z_init) and math.isfinite(dZdt_init)):
        raise ParameterDomainError(
            f"initial state (Z, dZ/dt) = ({Z_init}, {dZdt_init}) must be finite"
        )
    try:
        envelope = params.k * params.A * math.exp(Z_init)
    except OverflowError:
        envelope = math.inf
    envelope2 = envelope * envelope
    anchor = params.k * params.c * Z_init
    if not (math.isfinite(envelope2) and math.isfinite(anchor)):
        raise ParameterDomainError(
            f"field envelope k A e^Z or k c Z overflows at Z = {Z_init}"
        )
    rate2 = dZdt_init * dZdt_init
    disc = envelope2 - rate2
    if rate2 == math.inf or disc < -1e-12 * max(envelope2, rate2):
        raise ContractViolationError(
            f"vertical rate {dZdt_init} exceeds the field envelope {abs(envelope)}"
        )
    root = math.sqrt(max(disc, 0.0))
    return BetaCandidates(plus=anchor + root, minus=anchor - root)


def assemble_xz(
    params: WaveParams,
    beta: float,
    zs: ZSeries,
    *,
    case_tag: str,
    period: float | None = None,
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
    x, X = _columns(params, zs.t, cos_X, sheet)
    return TrajectorySeries(
        k=params.k, c=params.c, t=zs.t, x=x, z=Z / params.k, X=X, Z=Z, dZdt=dZdt,
        case_tag=case_tag, period=period, drift_per_period=drift,
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
    return sampled_case1(params, red, beta, t_start, t_end, n_samples, t0).series()


def sampled_case1(
    params: WaveParams,
    red: Case1Reduction,
    beta: float,
    t_start: float,
    t_end: float,
    n_samples: int,
    t0: float = 0.0,
) -> SampledPath:
    """The SampledPath of case1_series, with the same window checks."""
    form = _case1_form(red, t0)
    window = _sample_window(params, t_start, t_end, n_samples, *form.lines)
    below = [_cos_negative(params, beta, Z_turn) for Z_turn in (red.Z1, red.Z2)]
    period = 2.0 * form.quarter / red.C1
    drift = params.c * period + 2.0 * math.pi * _laps(params, *below) / params.k

    def columns(t, Z):
        u = red.C1 * (t - t0)
        half = np.floor(np.divide(u, form.quarter, out=u), out=u).astype(np.int64)
        del u
        cos_X = _cos_phase(params, beta, Z)
        return _columns(params, t, cos_X, _sheets(params, half, *below))

    meta = dict(case_tag="case1", period=period, drift_per_period=drift)
    return SampledPath(window, params, form.kernel, columns, meta)


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
    return sampled_case2(params, red, beta, t_start, t_end, n_samples, t0).series()


def sampled_case2(
    params: WaveParams,
    red: Case2Reduction,
    beta: float,
    t_start: float,
    t_end: float,
    n_samples: int,
    t0: float = 0.0,
) -> SampledPath:
    """The SampledPath of case2_series, with the same window checks; a
    window spanning more than MAX_ASYMPTOTES asymptotes fails here, before
    any kernel call."""
    form = _case2_form(red, t0)
    window = _sample_window(params, t_start, t_end, n_samples, *form.lines)
    quarter = form.quarter
    n_lo = math.floor((red.C2 * (t_start - t0) / quarter - 2.0) / 4.0)
    n_hi = math.ceil((red.C2 * (t_end - t0) / quarter - 2.0) / 4.0)
    if n_hi - n_lo > MAX_ASYMPTOTES:
        raise ParameterDomainError(
            f"[{t_start}, {t_end}] spans more than {MAX_ASYMPTOTES} asymptotes"
        )
    marks = tuple(
        ta
        for ta in _asymptote_times(red, quarter, t0, range(n_lo, n_hi + 1))
        if t_start <= ta <= t_end
    )
    below = _cos_negative(params, beta, red.Z0)
    # X tends to sign(A) pi/2 on the rising side of each asymptote, so its
    # line sits at x = c t_a + sign(A) pi/(2k).
    offset = math.copysign(math.pi / (2.0 * params.k), params.A)
    lines = tuple(params.c * ta + offset for ta in marks)

    def columns(t, Z):
        # Half periods 0 (rising: u in [0, 2K) mod 4K, where Z climbs from
        # Z0) and -1 (falling) of an oscillation whose top is the
        # asymptote, where cos X tends to 0.
        u = red.C2 * (t - t0)
        u -= 2.0 * quarter
        rising = np.remainder(u, 4.0 * quarter, out=u) >= 2.0 * quarter
        del u
        cos_X = _cos_phase(params, beta, Z)
        half = rising.astype(np.int64)
        half -= 1
        return _columns(params, t, cos_X, _sheets(params, half, below, False))

    meta = dict(case_tag="case2", asymptote_times=marks)
    nearest = form.nearest(t_start)
    return SampledPath(window, params, form.kernel, columns, meta, nearest, lines)


class _Form(NamedTuple):
    """One closed-form family at fixed constants, read by its point calls
    (_at) and its SampledPath alike: the (name, line, bound) triples that
    must hold at the earliest and the latest time; kernel(t), which gives
    (keep, Z, dZdt, ...) at the times t (keep marks the times the guard
    keeps, None when it keeps all of them; the values are those at the
    kept times); the quarter period K of the elliptic phase; and for a
    guarded family the asymptote time nearest(t) and a point call's error
    text for t.  An elliptic family builds the Landen chain of its m once,
    here: K and every kernel call, each block of a streamed path
    included, read that one chain."""

    lines: tuple
    kernel: Callable[[np.ndarray], tuple]
    quarter: float | None = None
    nearest: Callable[[float], float] | None = None
    guarded: str = ""


def _peakon_form(params: WaveParams, pk: PeakonParams, guard: float) -> _Form:
    """The peakon: lines c t + const1 and kA t + const2, the kernel
    (keep, Z, dZdt, x) at the times whose w = kA t + const2 has
    |w| >= guard, Z = -log|w|, dZdt = -kA/w and x = c t + const1, and t*
    the asymptote nearest every time."""
    kA = params.k * params.A

    def kernel(t):
        w = kA * t + pk.const2
        keep, t, w = _kept(np.abs(w) >= guard, t, w)
        # A point call's guard lets kA/w pass the float range next to t*.
        with np.errstate(over="ignore"):
            dZdt = -kA / w
        return keep, -np.log(np.abs(w)), dZdt, params.c * t + pk.const1

    return _Form(
        (
            ("c t + const1", lambda t: params.c * t + pk.const1, math.inf),
            ("kA t + const2", lambda t: kA * t + pk.const2, math.inf),
        ),
        kernel, nearest=lambda t: pk.blowup_time(params),
        guarded="peakon evaluation at t={} is on the vertical asymptote",
    )


def _case1_form(red: Case1Reduction, t0: float) -> _Form:
    """Case 1: the phase line and Z2 sn^2 + Z1 cn^2 with its derivative at
    every time; nothing is guarded."""
    m = red.k1sq
    chain, quarter = _chain_and_quarter(m)
    period = 4.0 * quarter
    rate = 2.0 * red.C1 * (red.Z2 - red.Z1)

    def kernel(t):
        sn, cn, dn = _sn_cn_dn(red.C1 * (t - t0), m, chain, period)
        # Z2 sn^2 + Z1 cn^2 and rate sn cn dn, operation for operation.
        Z = red.Z2 * sn
        Z *= sn
        cn2 = red.Z1 * cn
        cn2 *= cn
        Z += cn2
        sn *= rate
        sn *= cn
        sn *= dn
        return None, Z, sn

    return _Form((_phase(red.C1, t0, quarter),), kernel, quarter)


def _case2_form(red: Case2Reduction, t0: float) -> _Form:
    """Case 2: the phase line, Z0 + R (1 - cn)/(1 + cn) with its derivative
    at the times whose 1 + cn is at least CN_DENOM_GUARD, and the nearest
    asymptote t0 + (2 + 4n) K/C2, for a guarded time the one whose guard
    band holds it."""
    m = red.k2sq
    chain, quarter = _chain_and_quarter(m)
    period = 4.0 * quarter

    def kernel(t):
        sn, cn, dn = _sn_cn_dn(red.C2 * (t - t0), m, chain, period)
        denom = 1.0 + cn
        keep, sn, cn, dn, denom = _kept(~(denom < CN_DENOM_GUARD), sn, cn, dn, denom)
        R = math.sqrt(red.Z0 * red.Z0 + red.p * red.Z0 + red.q)
        # Z0 + R (1 - cn)/denom and 2 C2 R sn dn/denom^2, operation for
        # operation.
        Z = np.subtract(1.0, cn, out=cn)
        Z *= R
        Z /= denom
        Z += red.Z0
        sn *= 2.0 * red.C2 * R
        sn *= dn
        denom *= denom
        sn /= denom
        return keep, Z, sn

    def nearest(t):
        n = round((red.C2 * (t - t0) / quarter - 2.0) / 4.0)
        return _asymptote_times(red, quarter, t0, (n,))[0]

    return _Form(
        (_phase(red.C2, t0, quarter),), kernel, quarter, nearest,
        "case-2 evaluation at t={} is inside the asymptote guard band",
    )


def _kept(keep: np.ndarray, *arrays: np.ndarray) -> tuple:
    """(keep, *arrays) at the kept times, or (None, *arrays) unchanged when
    keep holds every time, which costs no copy."""
    if keep.all():
        return None, *arrays
    return keep, *(a[keep] for a in arrays)


def _at(t: Times, form: _Form) -> tuple:
    """The kernel's values (Z, dZdt, ...) at t, each in t's form: a float
    for a scalar t, else an array of t's shape.  The lines are checked at
    the earliest and the latest time, as _sample_window checks a window
    (a NaN time fails), and the first guarded time raises
    AsymptoteProximityError with its nearest asymptote."""
    ts = np.atleast_1d(t)
    if ts.size:
        _check_lines((float(ts.min()), float(ts.max())), *form.lines)
    keep, *values = form.kernel(ts)
    if keep is not None:
        first = float(ts.flat[np.argmin(keep)])
        raise AsymptoteProximityError(
            form.guarded.format(first), nearest_time=form.nearest(first)
        )
    # Every time was kept, so the flat values fill t's shape exactly.
    if np.ndim(t) == 0:
        return tuple(float(v[0]) for v in values)
    return tuple(v.reshape(ts.shape) for v in values)


def _asymptote_times(
    red: Case2Reduction, quarter: float, t0: float, n_values: Iterable[int]
) -> tuple[float, ...]:
    return tuple(t0 + (2.0 + 4.0 * n) * quarter / red.C2 for n in n_values)


def _phase(C: float, t0: float, quarter: float):
    """The elliptic phase u = C (t - t0) as a line for _check_lines: |u|
    must stay below 2^52 quarter periods K, beyond which one float step of
    u nears K and the phase no longer tells the half periods apart."""
    return "phase C (t - t0)", lambda t: C * (t - t0), 2.0**52 * quarter


def _cos_phase(params: WaveParams, beta: float, Z: np.ndarray) -> np.ndarray:
    """cos X = (k c Z - beta)/(k A e^Z), checked against the band |cos X| <= 1."""
    k = params.k
    with np.errstate(over="raise"):
        try:
            # (k c Z - beta) e^-Z / (k A), operation for operation.
            r = k * params.c * Z
            r -= beta
            e = np.negative(Z)
            np.exp(e, out=e)
            r *= e
            r /= k * params.A
        except FloatingPointError as exc:
            raise ContractViolationError(
                "cos X overflowed; Z samples are far outside the admissible band"
            ) from exc
    worst = float(np.abs(r, out=e).max())
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


def _columns(
    params: WaveParams, t: np.ndarray, cos_X: np.ndarray, sheet: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """x and X at the times t, with X on the given sheets; cos_X and sheet
    are consumed."""
    # X = h pi + arccos on even sheets h, (h + 1) pi - arccos on odd ones.
    # np.clip(cos_X, -1, 1), NaN kept, in two ufunc calls.
    np.maximum(cos_X, -1.0, out=cos_X)
    np.minimum(cos_X, 1.0, out=cos_X)
    X = np.arccos(cos_X, out=cos_X)
    odd = np.bitwise_and(sheet, 1, out=np.empty(sheet.shape, bool), casting="unsafe")
    np.negative(X, out=X, where=odd)
    sheet += odd
    X += sheet * math.pi
    x = X / params.k
    x += params.c * t
    return x, X


def check_window(t_start: float, t_end: float) -> None:
    """Raise unless t_end > t_start with a finite t_end - t_start."""
    if not t_end > t_start:
        raise ParameterDomainError(f"need t_end > t_start, got [{t_start}, {t_end}]")
    if t_end - t_start == math.inf:
        raise ParameterDomainError(f"t_end - t_start overflows on [{t_start}, {t_end}]")


def _sample_window(
    params: WaveParams, t_start: float, t_end: float, n_samples: int, *lines
) -> tuple[float, float, int]:
    """(t_start, t_end, n_samples) of a uniform grid for every path family,
    the oracle's included, checked in Python floats before numpy sees
    them: n_samples must be an integer >= 2, the window must pass
    check_window, and at both ends, so at every sample, |c t|, |k c t| and
    |line(t)| of each further (name, line, bound), with line linear in t,
    must stay below their bounds."""
    try:
        n_samples = operator.index(n_samples)
    except TypeError:
        raise ParameterDomainError(
            f"sample count must be an integer, got {n_samples!r}"
        ) from None
    if n_samples < 2:
        raise ParameterDomainError(f"need at least 2 samples, got {n_samples}")
    check_window(t_start, t_end)
    c, kc = params.c, params.k * params.c
    _check_lines(
        (t_start, t_end),
        ("c t", lambda t: c * t, math.inf),
        ("k c t", lambda t: kc * t, math.inf),
        *lines,
    )
    return t_start, t_end, n_samples


def _check_lines(times: tuple[float, ...], *lines) -> None:
    """|line(t)| < bound at every t of times for each (name, line, bound),
    or a ParameterDomainError naming the first line and time that fail;
    a NaN value fails too."""
    for name, line, bound in lines:
        for t in times:
            if not abs(value := line(t)) < bound:
                raise ParameterDomainError(f"{name} = {value} at t={t} is too large")
