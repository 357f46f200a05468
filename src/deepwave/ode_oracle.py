"""Reference ODE integrators for validating the closed-form paths.

Two hand-rolled steppers over two-component float states: classic
fixed-step RK4, written out per component because it is the battery's
hot path, and adaptive RKF45 (Fehlberg 4(5) with local extrapolation),
which runs from its tableau.  One loop in _integrate runs both, stepping
RK4 inline and taking the first RKF45 trial _rkf45_accept accepts, and
one accept path checks the new state and stores the knot.  The
derivative stored at each knot is the next step's first stage, which
saves one right-hand-side call per step.  Cubic Hermite dense output
between knots keeps the interpolation error below either stepper's
local truncation error.  Knots and dense samples accumulate in float64
buffers (``array('d')``, 40 B per knot for t, the state and its
derivative), which the public integrators view from numpy uncopied.

Three systems are wrapped:

* the physical particle system x' = u(x, z, t), z' = v(x, z, t);
* the moving-frame system X' = kA e^Z cos X - kc, Z' = kA e^Z sin X;
* the truncated vertical model Z'' = P'(Z)/2 for a cubic P, with an
  escape event at |Z| > 10^3 and a tail correction that converts the
  event time into the true blow-up time via the remaining-time integral
  t_inf - t_e = integral from Z_e to infinity of dZ/sqrt(P(Z) + E0).
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .cubic_analysis import CubicCoeffs
from .errors import ContractViolationError, ParameterDomainError, StiffnessError
from .series import TrajectorySeries, ZSeries
from .trajectories import check_window
from .wave_field import TAU, WaveParams

# rhs(t, a, b) -> (a', b') for the state (a, b).
RHS = Callable[[float, float, float], tuple[float, float]]
# event(a, b) -> True for a forbidden state.
Event = Callable[[float, float], bool]

# Escape threshold for the truncated vertical model.
Z_ESCAPE = 1e3

# Event location stops refining once the step is this small.
EVENT_DT = 1e-13

# Adaptive steps below this (relative to |t|) raise StiffnessError.
MIN_ADAPTIVE_DT = 1e-14

# A fixed-step run takes a remainder below this fraction of dt into its
# last step, so accumulated rounding of t += dt cannot leave a sliver step.
SLIVER_FRACTION = 1e-6

# Longest window for_wave accepts: the step count, and with it the run
# time and the knots kept in memory (40 B each), grows with the window.
# At for_wave's default step that is 2 * 10^7 RK4 knots, about 0.8 GB.
MAX_WAVE_PERIODS = 10_000

# Most steps a fixed-step (RK4) run may take: for_wave's default step
# over MAX_WAVE_PERIODS.
MAX_RK4_STEPS = 20_000_000

_METHODS = ("rk4", "rk45")


@dataclass(frozen=True)
class IntegratorConfig:
    """Time window and stepper settings for one integration run."""

    t_start: float
    t_end: float
    dt: float
    method: str = "rk4"
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10

    def __post_init__(self):
        check_window(self.t_start, self.t_end)
        if not (math.isfinite(self.dt) and 0.0 < self.dt <= self.t_end - self.t_start):
            raise ParameterDomainError(
                f"dt must lie in (0, t_end - t_start], got {self.dt}"
            )
        if self.method not in _METHODS:
            raise ParameterDomainError(
                f"method must be one of {_METHODS}, got {self.method!r}"
            )
        # NaN fails both comparisons: it would accept every RK45 trial
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise ParameterDomainError(
                f"tolerances must be finite and positive, got "
                f"abs_tol={self.abs_tol}, rel_tol={self.rel_tol}"
            )
        if self.method == "rk4":
            # Below the adaptive floor a step may not move t at all
            # (1e6 + 1e-12 == 1e6), and the run would never end.
            floor = MIN_ADAPTIVE_DT * max(1.0, abs(self.t_start), abs(self.t_end))
            if self.dt < floor:
                raise ParameterDomainError(
                    f"rk4 dt must be at least {floor:.3g} on "
                    f"[{self.t_start}, {self.t_end}], got {self.dt}"
                )
            # A remainder below SLIVER_FRACTION * dt joins the last step,
            # so this admits exactly the runs of at most MAX_RK4_STEPS steps.
            if (self.t_end - self.t_start) / self.dt > MAX_RK4_STEPS + SLIVER_FRACTION:
                raise ParameterDomainError(
                    f"rk4 run of more than {MAX_RK4_STEPS} steps: "
                    f"dt={self.dt} on [{self.t_start}, {self.t_end}]"
                )

    @classmethod
    def for_wave(
        cls,
        params: WaveParams,
        t_start: float,
        t_end: float,
        steps_per_period: int = 2000,
        method: str = "rk4",
    ) -> "IntegratorConfig":
        """Step size tied to the wave period, 2000 steps per period by default,
        over a window of at most MAX_WAVE_PERIODS wave periods.
        steps_per_period must be an integer from 1 up to the largest
        float, so the step is a float division."""
        try:
            steps_per_period = operator.index(steps_per_period)
        except TypeError:
            raise ParameterDomainError(
                f"steps_per_period must be an integer, got {steps_per_period!r}"
            ) from None
        if steps_per_period < 1:
            raise ParameterDomainError("steps_per_period must be positive")
        if steps_per_period > sys.float_info.max:
            raise ParameterDomainError(
                f"steps_per_period must be at most {sys.float_info.max:.17g}"
            )
        if not t_end - t_start <= MAX_WAVE_PERIODS * params.wave_period:
            raise ParameterDomainError(
                f"[{t_start}, {t_end}] spans more than {MAX_WAVE_PERIODS} wave periods"
            )
        dt = params.wave_period / steps_per_period
        dt = min(dt, t_end - t_start)
        return cls(t_start=t_start, t_end=t_end, dt=dt, method=method)


@dataclass(frozen=True)
class ResidualReport:
    """How well a sampled path satisfies the untruncated vertical system.

    max_residual_eq1 bounds |Z'^2 - (k^2 A^2 e^{2Z} - (kcZ - beta)^2)|,
    the energy form; max_residual_eq2 bounds |Z' - kA e^Z sin X|, the
    kinematic form, which amplifies the same gap near turning points.
    Samples near turning points (|Z'| < 1% of its peak) and in overflow
    territory (|Z| > 300) do not contribute; n_samples counts the
    contributing ones.
    """

    max_residual_eq1: float
    max_residual_eq2: float
    n_samples: int


def integrate_full(
    params: WaveParams,
    x0: float,
    z0: float,
    cfg: IntegratorConfig,
    sample_times: Sequence[float] | None = None,
) -> TrajectorySeries:
    """Integrate the physical particle system x' = u, z' = v.

    Returns a trajectory tagged ``oracle-full``; moving-frame samples are
    derived through X = k(x - ct), Z = kz, and dZdt is k v along the path.
    """
    k = params.k
    c = params.c
    A = params.A
    exp, cos, sin, remainder = math.exp, math.cos, math.sin, math.remainder

    def rhs(t: float, x: float, z: float) -> tuple[float, float]:
        theta = remainder(k * (x - c * t), TAU)
        envelope = A * exp(k * z)
        return envelope * cos(theta), envelope * sin(theta)

    path = _integrate(rhs, x0, z0, cfg, sample_times, event=None)
    t, x, z = np.asarray(path.t), np.asarray(path.a), np.asarray(path.b)
    return TrajectorySeries(
        k=k, c=c, t=t, x=x, z=z, X=k * (x - c * t), Z=k * z,
        case_tag="oracle-full", dZdt=k * np.asarray(path.fb),
    )


def integrate_moving_frame(
    params: WaveParams,
    X0: float,
    Z0: float,
    cfg: IntegratorConfig,
    sample_times: Sequence[float] | None = None,
) -> TrajectorySeries:
    """Integrate the moving-frame system for (X, Z) directly.

    Equivalent to integrate_full up to the frame map; integrating here
    avoids the growing phase k c t and its rounding.
    """
    k = params.k
    c = params.c
    kA = k * params.A
    kc = k * c
    exp, cos, sin = math.exp, math.cos, math.sin

    def rhs(t: float, X: float, Z: float) -> tuple[float, float]:
        envelope = kA * exp(Z)
        return envelope * cos(X) - kc, envelope * sin(X)

    path = _integrate(rhs, X0, Z0, cfg, sample_times, event=None)
    t, X, Z = np.asarray(path.t), np.asarray(path.a), np.asarray(path.b)
    return TrajectorySeries(
        k=k, c=c, t=t, x=c * t + X / k, z=Z / k, X=X, Z=Z,
        case_tag="oracle-full", dZdt=np.asarray(path.fb),
    )


def integrate_truncated(
    coeffs: CubicCoeffs,
    Z0: float,
    dZdt0: float,
    cfg: IntegratorConfig,
    sample_times: Sequence[float] | None = None,
) -> ZSeries:
    """Integrate the truncated vertical model Z'' = P'(Z)/2.

    The first-order form is (Z, V)' = (V, P'(Z)/2), which conserves
    E = V^2 - P(Z).  Integration stops when |Z| crosses 10^3; for an
    upward escape the returned blowup_time is the event time plus the
    analytic remaining time to infinity, which converges because
    P grows cubically.
    """

    derivative = coeffs.derivative

    def rhs(t: float, Z: float, V: float) -> tuple[float, float]:
        return V, 0.5 * derivative(Z)

    def escaped(Z: float, V: float) -> bool:
        return abs(Z) > Z_ESCAPE

    if escaped(Z0, dZdt0):
        raise ParameterDomainError(f"initial Z={Z0} already beyond the escape threshold")

    path = _integrate(rhs, Z0, dZdt0, cfg, sample_times, event=escaped)
    blowup = None
    if path.event is not None:
        t_event, Z_e, V_e = path.event
        if Z_e > 0.0 and V_e > 0.0:
            E0 = dZdt0 * dZdt0 - coeffs.evaluate(Z0)
            blowup = t_event + _time_to_infinity(coeffs, Z_e, E0)
    t, Z, dZdt = np.asarray(path.t), np.asarray(path.a), np.asarray(path.b)
    return ZSeries(t=t, Z=Z, dZdt=dZdt, blowup_time=blowup)


def residual_full_Z_ode(
    params: WaveParams, beta: float, series: TrajectorySeries
) -> ResidualReport:
    """Residuals of a sampled path against the untruncated vertical system.

    Checks both the energy form Z'^2 = k^2 A^2 e^{2Z} - (kcZ - beta)^2
    and the kinematic form Z' = kA e^Z sin X.  For closed-form series
    built from the truncated cubic, eq1 equals the truncation gap
    k^2 A^2 |e^{2Z} - 1 - 2Z - 2Z^2 - (4/3)Z^3| exactly; for oracle
    series it measures first-integral drift.  Turning-point
    neighbourhoods and |Z| > 300 are excluded (see ResidualReport).
    """
    t = series.t
    Z = series.Z
    dZdt = series.dZdt
    if dZdt is None:
        if t.size < 2:
            raise ContractViolationError("cannot difference a single-sample series")
        dZdt = np.gradient(Z, t)
    k = params.k
    kA = k * params.A
    kc = k * params.c

    include = np.abs(Z) <= 300.0
    peak = np.max(np.abs(dZdt[include])) if np.any(include) else 0.0
    include &= np.abs(dZdt) >= 0.01 * peak

    if not np.any(include):
        return ResidualReport(0.0, 0.0, 0)

    Zi = Z[include]
    Xi = series.X[include]
    Vi = dZdt[include]
    envelope = kA * np.exp(Zi)
    eq1 = np.abs(Vi * Vi - (envelope * envelope - (kc * Zi - beta) ** 2))
    eq2 = np.abs(Vi - envelope * np.sin(Xi))
    return ResidualReport(
        max_residual_eq1=float(np.max(eq1)),
        max_residual_eq2=float(np.max(eq2)),
        n_samples=int(Zi.size),
    )


@functools.cache
def _unit_gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """200-node Gauss-Legendre nodes and weights mapped to [0, 1].

    Built on first use, not at import: the eigenvalue solve behind
    leggauss takes about 12 ms with a one-thread OpenBLAS pool and 40-55
    ms with a two-thread one (2-vCPU host), the same bits either way.
    Read-only, since every caller shares the cached arrays.
    """
    nodes, weights = np.polynomial.legendre.leggauss(200)
    u, w = 0.5 * (nodes + 1.0), 0.5 * weights
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _time_to_infinity(coeffs: CubicCoeffs, Z_e: float, E0: float) -> float:
    """Remaining time from Z_e to the blow-up, integral of dZ/sqrt(P(Z)+E0).

    Substituting Z = Z_e + u^2/(1-u)^2 maps the half line to u in [0, 1)
    with a finite integrand whose u -> 1 limit is 2/sqrt(a3); 200-node
    Gauss-Legendre quadrature then resolves it to well below 1e-6.
    """
    u, w = _unit_gauss_legendre()
    v = (u / (1.0 - u)) ** 2
    speed_sq = coeffs.evaluate(Z_e + v) + E0
    if np.any(speed_sq <= 0.0):
        raise ContractViolationError(
            "energy integrand not positive beyond the escape point"
        )
    g = 2.0 * u / (1.0 - u) ** 3 / np.sqrt(speed_sq)
    return float(np.sum(w * g))


class _Path(NamedTuple):
    """Knots or dense samples of one run, one float64 buffer per quantity.

    ``a`` and ``b`` are the two state components and ``fa``, ``fb``
    their time derivatives.  ``event`` is (t, a, b) of the last good
    state when the event stopped the run, else None.  np.asarray views
    each buffer without copying it.
    """

    t: array
    a: array
    b: array
    fa: array
    fb: array
    event: tuple[float, float, float] | None


def _integrate(
    rhs: RHS,
    a0: float,
    b0: float,
    cfg: IntegratorConfig,
    sample_times: Sequence[float] | None,
    event: Event | None,
) -> _Path:
    """Run one integration, returning samples and the event hit, if any.

    One loop steps both methods: RK4 inline, where a remainder below
    SLIVER_FRACTION * dt joins the last step, and RKF45 through
    _rkf45_accept.  A finite new state outside the event becomes the next
    knot, its derivative the next step's first stage; otherwise bisection
    down to EVENT_DT locates the event, and the last good state is the
    final knot.  Sample times (or the knots when none are given) come out
    of a cubic Hermite evaluation.  An OverflowError (math.exp) or a
    ValueError (math.remainder, cos or sin of an overflowed phase) from
    rhs ends the run in StiffnessError at the last accepted state, except
    in an RKF45 trial, which is then halved.
    """
    if sample_times is not None:  # before the run, so outside its error handler
        try:
            sample_times = np.asarray(sample_times, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:  # ragged or not numbers
            raise ParameterDomainError("sample times must be finite and 1-d") from exc
        if sample_times.ndim != 1 or not np.all(np.isfinite(sample_times)):
            raise ParameterDomainError("sample times must be finite and 1-d")
        if not np.all(np.diff(sample_times) > 0.0):
            raise ParameterDomainError("sample times must increase strictly")
    t = cfg.t_start
    a, b = a0, b0
    try:
        fa, fb = rhs(t, a, b)
        if not (math.isfinite(fa) and math.isfinite(fb)):
            raise StiffnessError(
                "right-hand side not finite at the initial state",
                t_last=t,
                state_last=(a, b),
            )
        knots = _Path(*(array("d", (v,)) for v in (t, a, b, fa, fb)), None)
        knots_t, knots_a, knots_b, knots_fa, knots_fb, _ = knots
        t_end = cfg.t_end
        h = cfg.dt
        while t < t_end:
            if cfg.method == "rk45":
                h_try, a_new, b_new, h = _rkf45_accept(rhs, t, a, b, fa, fb, h, cfg)
            else:
                h_try = t_end - t if t_end - t < (1.0 + SLIVER_FRACTION) * h else h
                a_new, b_new = _rk4_step(rhs, t, a, b, fa, fb, h_try)
            if math.isfinite(a_new) and math.isfinite(b_new) and not (
                event is not None and event(a_new, b_new)
            ):
                t += h_try
                a = a_new
                b = b_new
                fa, fb = rhs(t, a, b)
            elif event is None:
                raise StiffnessError(
                    "state became non-finite", t_last=t, state_last=(a, b)
                )
            else:
                t, a, b, fa, fb = _locate_event(rhs, t, a, b, fa, fb, h_try, event)
                knots = knots._replace(event=(t, a, b))
                t_end = t  # the located state is the last knot
            knots_t.append(t)
            knots_a.append(a)
            knots_b.append(b)
            knots_fa.append(fa)
            knots_fb.append(fb)
        return knots if sample_times is None else _dense_output(rhs, knots, sample_times)
    except (OverflowError, ValueError) as exc:
        raise StiffnessError(
            "right-hand side overflowed", t_last=t, state_last=(a, b)
        ) from exc


def _rkf45_accept(
    rhs: RHS, t: float, a: float, b: float, fa: float, fb: float, h: float,
    cfg: IntegratorConfig,
) -> tuple[float, float, float, float]:
    """(h_try, a_new, b_new, h_next) of the first accepted RKF45 trial from t.

    Trials start at min(h, t_end - t).  One whose state is not finite, or
    whose rhs raises OverflowError or ValueError, is halved; one above
    tolerance shrinks; below MIN_ADAPTIVE_DT * max(1, |t|) StiffnessError."""
    h_try = min(h, cfg.t_end - t)
    while True:
        try:
            a_new, b_new, err_scale = _rkf45_step(rhs, t, a, b, fa, fb, h_try)
        except (OverflowError, ValueError):  # halved like a non-finite trial
            a_new = b_new = math.nan
        if not (math.isfinite(a_new) and math.isfinite(b_new)):
            h = 0.5 * h_try
        else:
            scale = max(abs(a), abs(b), abs(a_new), abs(b_new))
            tol = max(cfg.abs_tol, cfg.rel_tol * scale)
            if not err_scale > tol:  # a NaN error norm is accepted
                grow = min(5.0, max(0.2, 0.9 * (tol / max(err_scale, 1e-300)) ** 0.2))
                return h_try, a_new, b_new, h_try * grow
            h = h_try * max(0.2, 0.9 * (tol / err_scale) ** 0.2)
        if h < MIN_ADAPTIVE_DT * max(1.0, abs(t)):
            raise StiffnessError(
                "adaptive step size underflow", t_last=t, state_last=(a, b)
            )
        h_try = h  # h < h_try <= t_end - t, so no clamp


def _dense_output(rhs: RHS, knots: _Path, times: np.ndarray) -> _Path:
    """Cubic Hermite evaluation at requested times within the solved span.

    _integrate has checked the times finite, 1-d and strictly increasing;
    they must lie inside the span up to 1e-12 either side, and those past
    an escape event are dropped.  The loop runs on Python floats.
    """
    t_lo, t_hi = knots.t[0], knots.t[-1]
    if knots.event is not None:
        times = times[times <= t_hi + 1e-12]  # cut short by the event
    outside = times[(times < t_lo - 1e-12) | (times > t_hi + 1e-12)]
    if outside.size:
        raise ParameterDomainError(
            f"sample time {outside[0]} outside the integrated span [{t_lo}, {t_hi}]"
        )
    if not times.size:
        raise ParameterDomainError("no sample times fell inside the integrated span")
    out = _Path(*(array("d") for _ in range(5)), knots.event)
    last = len(knots.t) - 2
    for ts in np.clip(times, t_lo, t_hi).tolist():
        i = min(max(bisect_right(knots.t, ts) - 1, 0), last)
        a, b = _hermite(knots, i, ts)
        fa, fb = rhs(ts, a, b)
        out.t.append(ts)
        out.a.append(a)
        out.b.append(b)
        out.fa.append(fa)
        out.fb.append(fb)
    return out


def _hermite(knots: _Path, i: int, ts: float) -> tuple[float, float]:
    """Cubic Hermite state at ts between knots i and i + 1."""
    t0 = knots.t[i]
    h = knots.t[i + 1] - t0
    if h <= 0.0:
        return knots.a[i], knots.b[i]
    s = (ts - t0) / h
    # Basis h00, h01 for the states; h10, h11 come pre-scaled by h for
    # the derivatives.
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2 * h
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0) * h
    j = i + 1
    return (
        h00 * knots.a[i] + h10 * knots.fa[i] + h01 * knots.a[j] + h11 * knots.fa[j],
        h00 * knots.b[i] + h10 * knots.fb[i] + h01 * knots.b[j] + h11 * knots.fb[j],
    )


def _locate_event(
    rhs: RHS,
    t: float,
    a: float,
    b: float,
    fa: float,
    fb: float,
    h: float,
    event: Event,
) -> tuple[float, float, float, float, float]:
    """Bisect the step until the last good state is within EVENT_DT of the event.

    Returns (t, a, b, fa, fb) of that state.
    """
    while h > EVENT_DT:
        h_half = 0.5 * h
        a_mid, b_mid = _rk4_step(rhs, t, a, b, fa, fb, h_half)
        if math.isfinite(a_mid) and math.isfinite(b_mid) and not event(a_mid, b_mid):
            t += h_half
            a = a_mid
            b = b_mid
            fa, fb = rhs(t, a, b)
        h = h_half
    return t, a, b, fa, fb


def _rk4_step(
    rhs: RHS, t: float, a: float, b: float, fa: float, fb: float, h: float
) -> tuple[float, float]:
    """One classic RK4 step from (a, b), whose derivative (fa, fb) is the first stage."""
    h2 = 0.5 * h
    t2 = t + h2
    k2a, k2b = rhs(t2, a + h2 * fa, b + h2 * fb)
    k3a, k3b = rhs(t2, a + h2 * k2a, b + h2 * k2b)
    k4a, k4b = rhs(t + h, a + h * k3a, b + h * k3b)
    h6 = h / 6.0
    return (
        a + h6 * (fa + 2.0 * k2a + 2.0 * k3a + k4a),
        b + h6 * (fb + 2.0 * k2b + 2.0 * k3b + k4b),
    )


# Fehlberg 4(5) tableau.  Stages k_2 ... k_6 each give their node c_i as
# (numerator, denominator) of h and their coefficients of k_1, k_2, ...
# (k_1 is the step's first stage).  The fifth- and fourth-order weights
# are (index into k, weight) pairs, index 0 for k_1; neither weights k_2.
_FEHLBERG_STAGES = (
    ((1.0, 4.0), (1.0 / 4.0,)),
    ((3.0, 8.0), (3.0 / 32.0, 9.0 / 32.0)),
    ((12.0, 13.0), (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0)),
    ((1.0, 1.0), (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0)),
    ((1.0, 2.0), (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0)),
)
_FEHLBERG_ORDER5 = (
    (0, 16.0 / 135.0), (2, 6656.0 / 12825.0), (3, 28561.0 / 56430.0),
    (4, -9.0 / 50.0), (5, 2.0 / 55.0),
)
_FEHLBERG_ORDER4 = (
    (0, 25.0 / 216.0), (2, 1408.0 / 2565.0), (3, 2197.0 / 4104.0), (4, -1.0 / 5.0),
)
# The rows _rkf45_step reads: each stage's node and its coefficients as
# (index into k, coefficient) pairs, then the two weight rows, no node.
_FEHLBERG_ROWS = tuple(
    (node, tuple(enumerate(row))) for node, row in _FEHLBERG_STAGES
) + ((None, _FEHLBERG_ORDER5), (None, _FEHLBERG_ORDER4))


def _rkf45_step(
    rhs: RHS, t: float, a: float, b: float, fa: float, fb: float, h: float
) -> tuple[float, float, float]:
    """One Fehlberg 4(5) trial step from (a, b) with first stage (fa, fb).

    Returns the fifth-order state and the error norm, which is meaningless
    when that state is not finite.  Each row sums y + (h w_1) k_1 + (h w_2)
    k_2 + ... left to right: a stage row into the state its stage is
    evaluated at, a weight row into the fifth- or fourth-order state.
    """
    ka, kb = [fa], [fb]
    states = []
    for node, row in _FEHLBERG_ROWS:
        sa, sb = a, b
        for i, w in row:
            hw = h * w
            sa += hw * ka[i]
            sb += hw * kb[i]
        if node is None:
            states.append((sa, sb))
        else:
            ka_i, kb_i = rhs(t + node[0] * h / node[1], sa, sb)
            ka.append(ka_i)
            kb.append(kb_i)
    (a5, b5), (a4, b4) = states
    return a5, b5, max(abs(a5 - a4), abs(b5 - b4))
