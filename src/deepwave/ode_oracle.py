"""Reference ODE integrators for validating the closed-form paths.

Two hand-rolled steppers over two-component float states: classic
fixed-step RK4 and adaptive RKF45 (Fehlberg 4(5) with local
extrapolation).  Every system below has a two-component state, so each
step is written out per component.  The derivative stored at each
accepted knot is the next step's first stage, which saves one
right-hand-side call per step.  Dense output between accepted knots
uses cubic Hermite interpolation, which keeps the interpolation error
below the local truncation error of either stepper.

Three systems are wrapped:

* the physical particle system x' = u(x, z, t), z' = v(x, z, t);
* the moving-frame system X' = kA e^Z cos X - kc, Z' = kA e^Z sin X;
* the truncated vertical model Z'' = P'(Z)/2 for a cubic P, with an
  escape event at |Z| > 10^3 and a tail correction that converts the
  event time into the true blow-up time via the remaining-time integral
  t_inf - t_e = integral from Z_e to infinity of dZ/sqrt(P(Z) + E0).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .cubic_analysis import CubicCoeffs
from .errors import ContractViolationError, ParameterDomainError, StiffnessError
from .trajectories import TrajectorySeries, ZSeries
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
        if not (
            math.isfinite(self.t_start)
            and math.isfinite(self.t_end)
            and self.t_end > self.t_start
        ):
            raise ParameterDomainError(
                f"need finite t_end > t_start, got [{self.t_start}, {self.t_end}]"
            )
        if not (math.isfinite(self.dt) and 0.0 < self.dt <= self.t_end - self.t_start):
            raise ParameterDomainError(
                f"dt must lie in (0, t_end - t_start], got {self.dt}"
            )
        if self.method not in _METHODS:
            raise ParameterDomainError(
                f"method must be one of {_METHODS}, got {self.method!r}"
            )
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ParameterDomainError("tolerances must be positive")

    @classmethod
    def for_wave(
        cls,
        params: WaveParams,
        t_start: float,
        t_end: float,
        steps_per_period: int = 2000,
        method: str = "rk4",
    ) -> "IntegratorConfig":
        """Step size tied to the wave period, 2000 steps per period by default."""
        if steps_per_period < 1:
            raise ParameterDomainError("steps_per_period must be positive")
        dt = params.wave_period / steps_per_period
        dt = min(dt, t_end - t_start)
        return cls(t_start=t_start, t_end=t_end, dt=dt, method=method)


@dataclass(frozen=True)
class ResidualReport:
    """How well a sampled path satisfies the untruncated vertical system.

    max_residual_eq1 bounds |Z'^2 - (k^2 A^2 e^{2Z} - (kcZ - beta)^2)|,
    the energy form; max_residual_eq2 bounds |Z' - kA e^Z sin X|, the
    kinematic form, which amplifies the same gap near turning points.
    Samples inside excluded_windows (turning-point neighbourhoods where
    |Z'| < 1% of its peak, and overflow territory |Z| > 300) do not
    contribute; n_samples counts the contributing ones.
    """

    max_residual_eq1: float
    max_residual_eq2: float
    rms_residual: float
    n_samples: int
    excluded_windows: tuple[tuple[float, float], ...]


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
    t = np.array(path.t)
    x = np.array(path.a)
    z = np.array(path.b)
    return TrajectorySeries(
        k=k,
        c=c,
        t=t,
        x=x,
        z=z,
        X=k * (x - c * t),
        Z=k * z,
        case_tag="oracle-full",
        dZdt=k * np.array(path.fb),
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
    t = np.array(path.t)
    X = np.array(path.a)
    Z = np.array(path.b)
    return TrajectorySeries(
        k=k,
        c=c,
        t=t,
        x=c * t + X / k,
        z=Z / k,
        X=X,
        Z=Z,
        case_tag="oracle-full",
        dZdt=np.array(path.fb),
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
    return ZSeries(
        t=np.array(path.t),
        Z=np.array(path.a),
        dZdt=np.array(path.b),
        blowup_time=blowup,
    )


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

    windows = _excluded_windows(t, ~include)
    if not np.any(include):
        return ResidualReport(0.0, 0.0, 0.0, 0, windows)

    Zi = Z[include]
    Xi = series.X[include]
    Vi = dZdt[include]
    envelope = kA * np.exp(Zi)
    eq1 = np.abs(Vi * Vi - (envelope * envelope - (kc * Zi - beta) ** 2))
    eq2 = np.abs(Vi - envelope * np.sin(Xi))
    rms = math.sqrt((np.sum(eq1 * eq1) + np.sum(eq2 * eq2)) / (2.0 * Zi.size))
    return ResidualReport(
        max_residual_eq1=float(np.max(eq1)),
        max_residual_eq2=float(np.max(eq2)),
        rms_residual=rms,
        n_samples=int(Zi.size),
        excluded_windows=windows,
    )


def _excluded_windows(
    t: np.ndarray, excluded: np.ndarray
) -> tuple[tuple[float, float], ...]:
    """Contiguous runs of excluded samples as (t_lo, t_hi) windows."""
    padded = np.concatenate(([0], np.asarray(excluded, dtype=np.int8), [0]))
    edges = np.flatnonzero(np.diff(padded))
    # Edges alternate: a run starts at edges[0::2] and ends before edges[1::2].
    return tuple(
        (float(t[i]), float(t[j - 1])) for i, j in zip(edges[0::2], edges[1::2])
    )


def _time_to_infinity(coeffs: CubicCoeffs, Z_e: float, E0: float) -> float:
    """Remaining time from Z_e to the blow-up, integral of dZ/sqrt(P(Z)+E0).

    Substituting Z = Z_e + u^2/(1-u)^2 maps the half line to u in [0, 1)
    with a finite integrand whose u -> 1 limit is 2/sqrt(a3); 200-node
    Gauss-Legendre quadrature then resolves it to well below 1e-6.
    """
    nodes, weights = np.polynomial.legendre.leggauss(200)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    v = (u / (1.0 - u)) ** 2
    speed_sq = coeffs.evaluate(Z_e + v) + E0
    if np.any(speed_sq <= 0.0):
        raise ContractViolationError(
            "energy integrand not positive beyond the escape point"
        )
    g = 2.0 * u / (1.0 - u) ** 3 / np.sqrt(speed_sq)
    return float(np.sum(w * g))




class _Path(NamedTuple):
    """Knots or dense samples of one run, one float list per quantity.

    ``a`` and ``b`` are the two state components and ``fa``, ``fb``
    their time derivatives.  ``event`` is (t, a, b) of the last good
    state when the event stopped the run, else None.
    """

    t: list[float]
    a: list[float]
    b: list[float]
    fa: list[float]
    fb: list[float]
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

    Knots are accumulated with their derivatives, and each knot's
    derivative is the first stage of the step that leaves it.  Requested
    sample times (or the knots themselves when none are given) come out
    of a cubic Hermite evaluation.  The event callable marks forbidden
    states; the crossing is located by step bisection down to EVENT_DT
    and the last good state is reported as the event state.
    """
    t = cfg.t_start
    a, b = a0, b0
    fa, fb = rhs(t, a, b)
    if not (math.isfinite(fa) and math.isfinite(fb)):
        raise StiffnessError(
            "right-hand side not finite at the initial state",
            t_last=t,
            state_last=(a, b),
        )
    knots_t, knots_a, knots_b, knots_fa, knots_fb = [t], [a], [b], [fa], [fb]
    event_hit: tuple[float, float, float] | None = None

    t_end = cfg.t_end
    h = cfg.dt
    adaptive = cfg.method == "rk45"
    while t < t_end and event_hit is None:
        h_try = min(h, t_end - t)
        if adaptive:
            step = _rkf45_step(rhs, t, a, b, fa, fb, h_try)
            if step is None:
                h = 0.5 * h_try
                if h < MIN_ADAPTIVE_DT * max(1.0, abs(t)):
                    raise StiffnessError(
                        "adaptive step size underflow", t_last=t, state_last=(a, b)
                    )
                continue
            a_new, b_new, err_scale = step
            tol = max(
                cfg.abs_tol,
                cfg.rel_tol * max(abs(a), abs(b), abs(a_new), abs(b_new)),
            )
            if err_scale > tol:
                h = h_try * max(0.2, 0.9 * (tol / err_scale) ** 0.2)
                if h < MIN_ADAPTIVE_DT * max(1.0, abs(t)):
                    raise StiffnessError(
                        "adaptive step size underflow", t_last=t, state_last=(a, b)
                    )
                continue
            h = h_try * min(5.0, max(0.2, 0.9 * (tol / max(err_scale, 1e-300)) ** 0.2))
        else:
            a_new, b_new = _rk4_step(rhs, t, a, b, fa, fb, h_try)

        bad = not (math.isfinite(a_new) and math.isfinite(b_new))
        if bad or (event is not None and event(a_new, b_new)):
            if event is None:
                raise StiffnessError(
                    "state became non-finite", t_last=t, state_last=(a, b)
                )
            t, a, b, fa, fb = _locate_event(rhs, t, a, b, fa, fb, h_try, event)
            event_hit = (t, a, b)
        else:
            t += h_try
            a = a_new
            b = b_new
            fa, fb = rhs(t, a, b)
        knots_t.append(t)
        knots_a.append(a)
        knots_b.append(b)
        knots_fa.append(fa)
        knots_fb.append(fb)

    knots = _Path(knots_t, knots_a, knots_b, knots_fa, knots_fb, event_hit)
    if sample_times is None:
        return knots
    return _dense_output(rhs, knots, sample_times)


def _dense_output(rhs: RHS, knots: _Path, sample_times: Sequence[float]) -> _Path:
    """Cubic Hermite evaluation at requested times within the solved span."""
    out = _Path([], [], [], [], [], knots.event)
    t_lo = knots.t[0]
    t_hi = knots.t[-1]
    last = len(knots.t) - 2
    previous = None
    for ts in sample_times:
        if previous is not None and ts <= previous:
            raise ParameterDomainError("sample times must increase strictly")
        previous = ts
        if ts < t_lo - 1e-12 or ts > t_hi + 1e-12:
            if knots.event is not None and ts > t_hi:
                continue  # cut short by the event
            raise ParameterDomainError(
                f"sample time {ts} outside the integrated span [{t_lo}, {t_hi}]"
            )
        ts = min(max(ts, t_lo), t_hi)
        i = min(max(bisect_right(knots.t, ts) - 1, 0), last)
        a, b = _hermite(knots, i, ts)
        fa, fb = rhs(ts, a, b)
        out.t.append(ts)
        out.a.append(a)
        out.b.append(b)
        out.fa.append(fa)
        out.fb.append(fb)
    if not out.t:
        raise ParameterDomainError("no sample times fell inside the integrated span")
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


# Fehlberg 4(5) tableau: stage rows _Bij, fifth-order weights _W5i and
# fourth-order weights _W4i.
_B21 = 1.0 / 4.0
_B31, _B32 = 3.0 / 32.0, 9.0 / 32.0
_B41, _B42, _B43 = 1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0
_B51, _B52, _B53, _B54 = 439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0
_B61, _B62, _B63, _B64, _B65 = (
    -8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0
)
_W51, _W53, _W54, _W55, _W56 = (
    16.0 / 135.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0
)
_W41, _W43, _W44, _W45 = 25.0 / 216.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0


def _rkf45_step(
    rhs: RHS, t: float, a: float, b: float, fa: float, fb: float, h: float
) -> tuple[float, float, float] | None:
    """One Fehlberg 4(5) trial step from (a, b) with first stage (fa, fb).

    Returns the fifth-order state and the error norm, or None when that
    state is not finite.  Each stage sums y + (h b_1) k_1 + (h b_2) k_2
    + ... left to right.
    """
    k2a, k2b = rhs(t + h / 4.0, a + h * _B21 * fa, b + h * _B21 * fb)
    k3a, k3b = rhs(
        t + 3.0 * h / 8.0,
        a + h * _B31 * fa + h * _B32 * k2a,
        b + h * _B31 * fb + h * _B32 * k2b,
    )
    k4a, k4b = rhs(
        t + 12.0 * h / 13.0,
        a + h * _B41 * fa + h * _B42 * k2a + h * _B43 * k3a,
        b + h * _B41 * fb + h * _B42 * k2b + h * _B43 * k3b,
    )
    k5a, k5b = rhs(
        t + h,
        a + h * _B51 * fa + h * _B52 * k2a + h * _B53 * k3a + h * _B54 * k4a,
        b + h * _B51 * fb + h * _B52 * k2b + h * _B53 * k3b + h * _B54 * k4b,
    )
    k6a, k6b = rhs(
        t + 0.5 * h,
        a + h * _B61 * fa + h * _B62 * k2a + h * _B63 * k3a + h * _B64 * k4a
        + h * _B65 * k5a,
        b + h * _B61 * fb + h * _B62 * k2b + h * _B63 * k3b + h * _B64 * k4b
        + h * _B65 * k5b,
    )
    a5 = (
        a + h * _W51 * fa + h * _W53 * k3a + h * _W54 * k4a + h * _W55 * k5a
        + h * _W56 * k6a
    )
    b5 = (
        b + h * _W51 * fb + h * _W53 * k3b + h * _W54 * k4b + h * _W55 * k5b
        + h * _W56 * k6b
    )
    if not (math.isfinite(a5) and math.isfinite(b5)):
        return None
    a4 = a + h * _W41 * fa + h * _W43 * k3a + h * _W44 * k4a + h * _W45 * k5a
    b4 = b + h * _W41 * fb + h * _W43 * k3b + h * _W44 * k4b + h * _W45 * k5b
    return a5, b5, max(abs(a5 - a4), abs(b5 - b4))
