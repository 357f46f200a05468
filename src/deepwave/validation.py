"""Self-check battery wiring the closed forms against the oracles.

Each check returns (passed, detail) with a deterministic detail string,
and run_battery names its CheckResult after the check's function, so two
runs over the same scenario print byte-identical reports.  The bounds are
the same ones the library promises in its module contracts; a failing
check means a broken invariant, not a loose expectation.  Stagnation
levels are held to zeros that a grid-free branch and bound proves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cubic_analysis import Case1Reduction, build_cubic, classify_roots
from .errors import ContractViolationError, DeepwaveError, EmptyReportError
from .ode_oracle import (
    IntegratorConfig,
    integrate_full,
    integrate_moving_frame,
    integrate_truncated,
    residual_full_Z_ode,
)
from .special_functions import complete_K, jacobi_sn_cn_dn
from .stagnation import solve_stagnation
from .trajectories import (
    PeakonParams,
    TrajectorySeries,
    ZSeries,
    assemble_xz,
    asymptote_times,
    beta_from_initial,
    case1_series,
    case1_Z,
    case2_Z,
    peakon_residuals,
    period_case1,
)
from .wave_field import WaveParams


# Launch state (X, Z) of the checks that integrate the untruncated system.
_LAUNCH = (math.pi / 3.0, 0.0)

# RK4 steps per wave period of the frame-equivalence runs.  The frame
# map X = k(x - ct), Z = kz is affine and linear in t, so RK4 steps
# commute with it: the two discrete paths agree up to rounding at any
# step size, and more steps would not shrink the gap.
_FRAME_STEPS_PER_PERIOD = 500


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_battery(params: WaveParams, beta: float) -> list[CheckResult]:
    """Run every check against one scenario, never stopping early.  An
    overflow shows in its check's result (an inf or NaN fails the bound),
    so numpy's floating-point warnings are silenced."""
    checks = [
        _check_dispersion,
        _check_elliptic_identities,
        _check_classification,
        _check_closed_form_vs_oracle,
        _check_drift,
        _check_frame_equivalence,
        _check_stagnation_oracle,
        _check_untruncated_residual,
        _check_rk4_convergence,
        _check_peakon_residual,
        _check_corrupted_beta_guard,
    ]
    results = []
    for check in checks:
        name = check.__name__.removeprefix("_check_").replace("_", "-")
        try:
            with np.errstate(all="ignore"):
                passed, detail = check(params, beta)
        except DeepwaveError as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail))
    return results


def _check_dispersion(params: WaveParams, beta: float) -> tuple[bool, str]:
    c = params.c
    identity = abs(c * c * params.k / params.g - 1.0)
    doubled = WaveParams(
        k=2.0 * params.k, a=params.a, g=params.g, direction=params.direction
    )
    monotone = abs(doubled.c) < abs(c)
    ok = identity <= 1e-12 and monotone
    return (
        ok,
        f"|c^2 k/g - 1| = {identity:.3e}, |c({params.k:.6g})| = {abs(c):.6g} "
        f"> |c({2.0 * params.k:.6g})| = {abs(doubled.c):.6g}",
    )


def _check_elliptic_identities(params: WaveParams, beta: float) -> tuple[bool, str]:
    worst = 0.0
    u = np.linspace(-5.0, 5.0, 41)
    for m in (1e-8, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0 - 1e-8):
        sn, cn, dn = jacobi_sn_cn_dn(u, m)
        worst = max(
            worst,
            float(np.max(np.abs(sn * sn + cn * cn - 1.0))),
            float(np.max(np.abs(dn * dn + m * sn * sn - 1.0))),
        )
    k0 = abs(complete_K(0.0) - math.pi / 2.0)
    ok = worst <= 1e-12 and k0 <= 1e-15
    return ok, f"max identity defect {worst:.3e}, |K(0) - pi/2| = {k0:.3e}"


def _check_classification(params: WaveParams, beta: float) -> tuple[bool, str]:
    red = classify_roots(build_cubic(params, beta))
    if isinstance(red, Case1Reduction):
        detail = (
            f"case 1: roots ({red.Z1:.6g}, {red.Z2:.6g}, {red.Z3:.6g}), "
            f"k1^2 = {red.k1sq:.6g}, C1 = {red.C1:.6g}"
        )
        ok = red.Z1 < red.Z2 < red.Z3 and 0.0 < red.k1sq < 1.0
    else:
        detail = (
            f"case 2: root {red.Z0:.6g}, k2^2 = {red.k2sq:.6g}, C2 = {red.C2:.6g}"
        )
        ok = 0.0 < red.k2sq < 1.0
    return ok, detail


def _check_closed_form_vs_oracle(params: WaveParams, beta: float) -> tuple[bool, str]:
    coeffs = build_cubic(params, beta)
    red = classify_roots(coeffs)
    if isinstance(red, Case1Reduction):
        T = period_case1(red)
        cfg = IntegratorConfig(t_start=0.0, t_end=2.0 * T, dt=T / 2000.0)
        ts = np.linspace(0.0, 2.0 * T, 1501)
        zs = integrate_truncated(coeffs, red.Z1, 0.0, cfg, sample_times=ts)
        sup = float(np.max(np.abs(case1_Z(red, zs.t) - zs.Z)))
        return (
            sup <= 1e-7,
            f"case 1 sup |Z_closed - Z_oracle| = {sup:.3e} over two periods",
        )
    t_blow = asymptote_times(red, 0.0, (0,))[0]
    cfg = IntegratorConfig(0.0, 4.0 * t_blow, dt=t_blow / 1000.0, method="rk45")
    zs = integrate_truncated(coeffs, red.Z0, 0.0, cfg)
    mask = zs.t <= 0.8 * t_blow
    sup = float(np.max(np.abs(case2_Z(red, zs.t[mask]) - zs.Z[mask])))
    if zs.blowup_time is None:
        return False, "escape event not hit"
    rel = abs(zs.blowup_time - t_blow) / t_blow
    return (
        sup <= 1e-7 and rel <= 1e-4,
        f"case 2 sup |dZ| = {sup:.3e} before blow-up, "
        f"blow-up time rel err = {rel:.3e}",
    )


def _check_drift(params: WaveParams, beta: float) -> tuple[bool, str]:
    red = classify_roots(build_cubic(params, beta))
    if not isinstance(red, Case1Reduction):
        return True, "not applicable: case 2 path has no period"
    T = period_case1(red)
    series = case1_series(params, red, beta, 0.0, T, 257)
    drift = float(series.x[-1] - series.x[0])
    # X laps once per period against the direction of travel while |A| e^Z < |c|.
    target = params.c * T - math.copysign(2.0 * math.pi, params.c) / params.k
    rel = abs(drift - target) / abs(target)
    ok = rel <= 1e-8 and math.copysign(1.0, drift) == math.copysign(1.0, params.c)
    return (
        ok,
        f"x(T) - x(0) = {drift:.10g} vs c T - 2 pi sign(c)/k = {target:.10g} "
        f"(rel {rel:.3e})",
    )


def _check_frame_equivalence(params: WaveParams, beta: float) -> tuple[bool, str]:
    X0, Z0 = _LAUNCH
    t_end = 10.0 * params.wave_period
    cfg = IntegratorConfig.for_wave(
        params, 0.0, t_end, steps_per_period=_FRAME_STEPS_PER_PERIOD
    )
    full = integrate_full(params, X0 / params.k, Z0 / params.k, cfg)
    frame = integrate_moving_frame(params, X0, Z0, cfg)
    sup = _sup_gap(full, frame)
    detail = f"sup |(X,Z) gap| = {sup:.3e} over ten wave periods"
    return sup <= 1e-8, detail


def _check_stagnation_oracle(params: WaveParams, beta: float) -> tuple[bool, str]:
    """Plain levels and proven zeros pair one to one, in order and within
    1e-6, but for those within 1e-6 of a cluster: it must be at most 1e-6
    wide and hold a level.  EmptyReportError means none in the window."""
    try:
        report = solve_stagnation(params, beta)
        (lo, hi), solutions = report.search_interval, report.solutions
    except EmptyReportError:
        (lo, hi), solutions = solve_stagnation.__defaults__[:2], ()
    zeros, clusters = _enclose_stagnation(params, beta, lo, hi)
    found = [s.Z_star for s in solutions if not s.tangency]
    near = {  # the clusters within 1e-6 of each level and zero
        Z: [c for c in clusters if c[0] - 1e-6 <= Z <= c[1] + 1e-6]
        for Z in [s.Z_star for s in solutions] + zeros
    }
    for c in clusters:
        if c[1] - c[0] > 1e-6 or all(c not in near[s.Z_star] for s in solutions):
            return False, f"cluster [{c[0]:.17g}, {c[1]:.17g}] too wide or empty"
    free, proven = ([Z for Z in Zs if not near[Z]] for Zs in (found, zeros))
    if len(free) != len(proven):
        return False, f"count mismatch: solver {len(free)}, proven {len(proven)}"
    gaps = [abs(Z - z) for Z, z in zip(free, proven)]
    gaps += [abs(Z - 0.5 * (a + b)) for Z in found for a, b in near[Z]]
    gap = max(gaps, default=0.0)
    detail = f"{len(found)} level(s), max location gap {gap:.3e} vs proven enclosures"
    if clusters:
        detail += f", {len(clusters)} unresolved cluster(s)"
    return gap <= 1e-6, detail


def _check_untruncated_residual(params: WaveParams, beta: float) -> tuple[bool, str]:
    X0, Z0 = _LAUNCH
    beta_exact = (
        params.k * params.c * Z0
        - params.k * params.A * math.exp(Z0) * math.cos(X0)
    )
    t_end = 2.0 * params.wave_period
    cfg = IntegratorConfig.for_wave(params, 0.0, t_end)
    series = integrate_moving_frame(params, X0, Z0, cfg)
    rep = residual_full_Z_ode(params, beta_exact, series)
    dZdt0 = params.k * params.A * math.exp(Z0) * math.sin(X0)
    candidates = beta_from_initial(params, Z0, dZdt0)
    recovered = min(
        abs(candidates.plus - beta_exact), abs(candidates.minus - beta_exact)
    )
    ok = (
        rep.max_residual_eq1 <= 1e-8
        and rep.max_residual_eq2 <= 1e-10
        and recovered <= 1e-9
    )
    return (
        ok,
        f"eq1 sup {rep.max_residual_eq1:.3e}, eq2 sup {rep.max_residual_eq2:.3e} "
        f"({rep.n_samples} samples), beta recovery gap {recovered:.3e}",
    )


def _check_rk4_convergence(params: WaveParams, beta: float) -> tuple[bool, str]:
    X0, Z0 = _LAUNCH
    T = params.wave_period
    t_end = 2.0 * T
    coarse = integrate_moving_frame(
        params, X0, Z0, IntegratorConfig(0.0, t_end, dt=T / 100.0)
    )
    # Sampling the finer runs at the coarse knots keeps the comparison on
    # integration points (the knot grids nest up to rounding), so the
    # measured errors are pure step errors, not interpolation artifacts.
    ts = coarse.t
    runs = [coarse] + [
        integrate_moving_frame(
            params, X0, Z0, IntegratorConfig(0.0, t_end, dt=T / n), sample_times=ts
        )
        for n in (200.0, 400.0)
    ]
    ref = integrate_moving_frame(
        params, X0, Z0, IntegratorConfig(0.0, t_end, dt=T / 3200.0), sample_times=ts
    )
    errs = [_sup_gap(run, ref) for run in runs]
    ratios = [
        errs[i] / errs[i + 1] if errs[i + 1] > 0.0 else math.inf for i in range(2)
    ]
    ok = all(12.0 <= r <= 20.0 for r in ratios)
    return (
        ok,
        f"dt halving error ratios {ratios[0]:.4g}, {ratios[1]:.4g} "
        f"(err {errs[0]:.3e} -> {errs[1]:.3e} -> {errs[2]:.3e}, expect ~16)",
    )


def _sup_gap(p: TrajectorySeries, q: TrajectorySeries) -> float:
    """sup |p - q| over the X and Z samples of two paths on one grid."""
    return max(float(np.max(np.abs(p.X - q.X))), float(np.max(np.abs(p.Z - q.Z))))


def _check_peakon_residual(params: WaveParams, beta: float) -> tuple[bool, str]:
    pk = PeakonParams(const1=math.pi / (2.0 * params.k), const2=1.0)
    t_star = pk.blowup_time(params)
    # The aligned side is where kA t + const2 < 0.
    side = -1.0 if params.A > 0.0 else 1.0
    # Past |t*| = 2^40 the offsets scale with |t*|, or they round onto t*.
    scale = max(1.0, 2.0**-40 * abs(t_star))
    ts = [t_star + side * scale * dt for dt in (0.1, 0.5, 1.0, 2.0, 5.0)]
    worst_eq2 = 0.0
    worst_eq1_gap = 0.0
    for t in ts:
        res1, res2 = peakon_residuals(params, pk, t)
        worst_eq2 = max(worst_eq2, res2)
        worst_eq1_gap = max(worst_eq1_gap, abs(res1 - abs(params.c)))
    ok = worst_eq2 <= 1e-12 and worst_eq1_gap <= 1e-12 * max(1.0, abs(params.c))
    return (
        ok,
        f"vertical residual sup {worst_eq2:.3e} on the aligned side, "
        f"horizontal residual pinned at |c| within {worst_eq1_gap:.3e}",
    )


def _check_corrupted_beta_guard(params: WaveParams, beta: float) -> tuple[bool, str]:
    red = classify_roots(build_cubic(params, beta))
    if isinstance(red, Case1Reduction):
        T = period_case1(red)
        t = np.linspace(0.0, T, 64)
        Z = case1_Z(red, t)
    else:
        t_blow = asymptote_times(red, 0.0, (0,))[0]
        t = np.linspace(0.0, 0.9 * t_blow, 64)
        Z = case2_Z(red, t)
    zs = ZSeries(t=t, Z=Z)
    tripped = []
    for shift in (1.0, -1.0):
        try:
            assemble_xz(params, beta + shift, zs, case_tag="case1")
        except ContractViolationError:
            tripped.append(shift)
    return (
        bool(tripped),
        f"beta shifts {tripped or 'none'} rejected by the cos^2 X <= 1 guard",
    )


def _enclose_stagnation(
    params: WaveParams, beta: float, lo: float, hi: float
) -> tuple[list[float], list[tuple[float, float]]]:
    """Branch and bound for the zeros of g(Z) = kA e^Z - |kc Z - beta| on
    [lo, hi]: midpoints of proven one-zero boxes, and clusters where rounding
    hides any zero, in increasing order.  A box is dropped when g(m) +- rho
    +- h sup|g'| excludes 0 (see _rounded_g), proven when g' keeps one sign
    and g has certified opposite signs at its ends, clustered when h sup|g'|
    <= rho or it is 4 ulps wide, and else halved.  Uses no convexity of g."""
    kA, kc, eps = params.k * abs(params.A), params.k * params.c, math.ulp(1.0)

    def sign(Z: float) -> int:  # the sign of g(Z), or 0 where rounding hides it
        value, rho = _rounded_g(kA, kc, beta, Z)
        return (value > rho) - (value < -rho)

    def side(Z: float) -> int:  # the same for kc Z - beta
        u, r = kc * Z - beta, 2.0 * eps * (abs(kc * Z) + abs(beta))
        return (u > r) - (u < -r)

    zeros, clusters, boxes = [], [], [(lo, hi)]
    while boxes:
        a, b = boxes.pop()
        value, rho = _rounded_g(kA, kc, beta, m := 0.5 * (a + b))
        # g' lies in [d_lo, d_hi] up to slack, which covers their rounding;
        # its term -kc sign(kc Z - beta) spans +-|kc| across the kink.
        s = side(a) if side(a) == side(b) else 0
        low, high = (-kc * s, -kc * s) if s else (-abs(kc), abs(kc))
        eb = kA * math.exp(b)
        d_lo, d_hi = kA * math.exp(a) + low, eb + high
        slack = 8.0 * eps * (eb + abs(kc))
        spread = max(m - a, b - m) * (max(abs(d_lo), abs(d_hi)) + slack)
        if abs(value) > rho + spread:
            continue
        if (d_lo > slack or d_hi < -slack) and sign(a) * sign(b) < 0:
            sa = sign(a)
            while b - a > 1e-13 * max(1.0, abs(a), abs(b)):  # sign bisection
                sm = sign(m := 0.5 * (a + b))
                if sm == 0:
                    break  # the bracket stays proven
                a, b = (m, b) if sm == sa else (a, m)
            zeros.append(0.5 * (a + b))
        elif spread <= rho or b - a <= 4.0 * math.ulp(max(abs(a), abs(b))):
            if clusters and clusters[-1][1] == a:
                a = clusters.pop()[0]  # merge with the adjacent cluster box
            clusters.append((a, b))
        else:
            boxes += [(m, b), (a, m)]  # the left half is searched first
    return zeros, clusters


def _rounded_g(kA: float, kc: float, beta: float, Z: float) -> tuple[float, float]:
    """g(Z) = kA e^Z - |kc Z - beta| in floats, and rho = 4 eps (kA e^Z +
    |kc Z| + |beta|), which bounds its rounding when exp is within 1 ulp."""
    e, u = kA * math.exp(Z), kc * Z
    return e - abs(u - beta), 4.0 * math.ulp(1.0) * (e + abs(u) + abs(beta))
