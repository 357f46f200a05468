"""Self-check battery wiring the closed forms against the oracles.

Each check returns a CheckResult with a deterministic detail string, so
two runs over the same scenario print byte-identical reports.  The
bounds are the same ones the library promises in its module contracts;
a failing check means a broken invariant, not a loose expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .cubic_analysis import (
    Case1Reduction,
    Case2Reduction,
    build_cubic,
    classify_roots,
)
from .errors import ContractViolationError, DeepwaveError
from .ode_oracle import (
    IntegratorConfig,
    integrate_full,
    integrate_moving_frame,
    integrate_truncated,
    residual_full_Z_ode,
)
from .sampled_path import linspace_block
from .special_functions import complete_K, jacobi_sn_cn_dn
from .stagnation import solve_stagnation
from .trajectories import (
    PeakonParams,
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

# Points of the stagnation oracle's dense scan, and how many intervals
# between them it evaluates at once (0.5 MB per temporary).
_SCAN_POINTS = 1_000_000
_SCAN_CHUNK = 1 << 16

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
        try:
            with np.errstate(all="ignore"):
                results.append(check(params, beta))
        except DeepwaveError as exc:
            name = check.__name__.removeprefix("_check_").replace("_", "-")
            results.append(
                CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")
            )
    return results


def _classify(params: WaveParams, beta: float):
    return classify_roots(build_cubic(params, beta))


def _check_dispersion(params: WaveParams, beta: float) -> CheckResult:
    c = params.c
    identity = abs(c * c * params.k / params.g - 1.0)
    doubled = WaveParams(
        k=2.0 * params.k, a=params.a, g=params.g, direction=params.direction
    )
    monotone = abs(doubled.c) < abs(c)
    ok = identity <= 1e-12 and monotone
    return CheckResult(
        "dispersion",
        ok,
        f"|c^2 k/g - 1| = {identity:.3e}, |c({params.k:.6g})| = {abs(c):.6g} "
        f"> |c({2.0 * params.k:.6g})| = {abs(doubled.c):.6g}",
    )


def _check_elliptic_identities(params: WaveParams, beta: float) -> CheckResult:
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
    return CheckResult(
        "elliptic-identities",
        ok,
        f"max identity defect {worst:.3e}, |K(0) - pi/2| = {k0:.3e}",
    )


def _check_classification(params: WaveParams, beta: float) -> CheckResult:
    red = _classify(params, beta)
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
    return CheckResult("classification", ok, detail)


def _check_closed_form_vs_oracle(params: WaveParams, beta: float) -> CheckResult:
    coeffs = build_cubic(params, beta)
    red = classify_roots(coeffs)
    if isinstance(red, Case1Reduction):
        T = period_case1(red)
        cfg = IntegratorConfig(t_start=0.0, t_end=2.0 * T, dt=T / 2000.0)
        ts = np.linspace(0.0, 2.0 * T, 1501)
        zs = integrate_truncated(coeffs, red.Z1, 0.0, cfg, sample_times=ts)
        sup = float(np.max(np.abs(case1_Z(red, zs.t) - zs.Z)))
        return CheckResult(
            "closed-form-vs-oracle",
            sup <= 1e-7,
            f"case 1 sup |Z_closed - Z_oracle| = {sup:.3e} over two periods",
        )
    t_blow = asymptote_times(red, 0.0, (0,))[0]
    cfg = IntegratorConfig(0.0, 4.0 * t_blow, dt=t_blow / 1000.0, method="rk45")
    zs = integrate_truncated(coeffs, red.Z0, 0.0, cfg)
    mask = zs.t <= 0.8 * t_blow
    sup = float(np.max(np.abs(case2_Z(red, zs.t[mask]) - zs.Z[mask])))
    if zs.blowup_time is None:
        return CheckResult("closed-form-vs-oracle", False, "escape event not hit")
    rel = abs(zs.blowup_time - t_blow) / t_blow
    return CheckResult(
        "closed-form-vs-oracle",
        sup <= 1e-7 and rel <= 1e-4,
        f"case 2 sup |dZ| = {sup:.3e} before blow-up, "
        f"blow-up time rel err = {rel:.3e}",
    )


def _check_drift(params: WaveParams, beta: float) -> CheckResult:
    red = _classify(params, beta)
    if not isinstance(red, Case1Reduction):
        return CheckResult("drift", True, "not applicable: case 2 path has no period")
    T = period_case1(red)
    series = case1_series(params, red, beta, 0.0, T, 257)
    drift = float(series.x[-1] - series.x[0])
    # X laps once per period against the direction of travel while |A| e^Z < |c|.
    target = params.c * T - math.copysign(2.0 * math.pi, params.c) / params.k
    rel = abs(drift - target) / abs(target)
    ok = rel <= 1e-8 and math.copysign(1.0, drift) == math.copysign(1.0, params.c)
    return CheckResult(
        "drift",
        ok,
        f"x(T) - x(0) = {drift:.10g} vs c T - 2 pi sign(c)/k = {target:.10g} "
        f"(rel {rel:.3e})",
    )


def _check_frame_equivalence(params: WaveParams, beta: float) -> CheckResult:
    X0, Z0 = _LAUNCH
    t_end = 10.0 * params.wave_period
    cfg = IntegratorConfig.for_wave(
        params, 0.0, t_end, steps_per_period=_FRAME_STEPS_PER_PERIOD
    )
    full = integrate_full(params, X0 / params.k, Z0 / params.k, cfg)
    frame = integrate_moving_frame(params, X0, Z0, cfg)
    sup = max(
        float(np.max(np.abs(full.X - frame.X))),
        float(np.max(np.abs(full.Z - frame.Z))),
    )
    detail = f"sup |(X,Z) gap| = {sup:.3e} over ten wave periods"
    return CheckResult("frame-equivalence", sup <= 1e-8, detail)


def _check_stagnation_oracle(params: WaveParams, beta: float) -> CheckResult:
    report = solve_stagnation(params, beta)
    lo, hi = report.search_interval
    brute = _brute_stagnation(params, beta, lo, hi)
    found = [s.Z_star for s in report.solutions if not s.tangency]
    if len(found) != len(brute):
        return CheckResult(
            "stagnation-oracle",
            False,
            f"count mismatch: solver {len(found)}, dense scan {len(brute)}",
        )
    gap = max((abs(a - b) for a, b in zip(found, brute)), default=0.0)
    return CheckResult(
        "stagnation-oracle",
        gap <= 1e-6,
        f"{len(found)} level(s), max location gap {gap:.3e} vs 1e6-point scan",
    )


def _check_untruncated_residual(params: WaveParams, beta: float) -> CheckResult:
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
    return CheckResult(
        "untruncated-residual",
        ok,
        f"eq1 sup {rep.max_residual_eq1:.3e}, eq2 sup {rep.max_residual_eq2:.3e} "
        f"({rep.n_samples} samples), beta recovery gap {recovered:.3e}",
    )


def _check_rk4_convergence(params: WaveParams, beta: float) -> CheckResult:
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
    errs = [
        max(
            float(np.max(np.abs(run.X - ref.X))),
            float(np.max(np.abs(run.Z - ref.Z))),
        )
        for run in runs
    ]
    ratios = [
        errs[i] / errs[i + 1] if errs[i + 1] > 0.0 else math.inf for i in range(2)
    ]
    ok = all(12.0 <= r <= 20.0 for r in ratios)
    return CheckResult(
        "rk4-convergence",
        ok,
        f"dt halving error ratios {ratios[0]:.4g}, {ratios[1]:.4g} "
        f"(err {errs[0]:.3e} -> {errs[1]:.3e} -> {errs[2]:.3e}, expect ~16)",
    )


def _check_peakon_residual(params: WaveParams, beta: float) -> CheckResult:
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
    return CheckResult(
        "peakon-residual",
        ok,
        f"vertical residual sup {worst_eq2:.3e} on the aligned side, "
        f"horizontal residual pinned at |c| within {worst_eq1_gap:.3e}",
    )


def _check_corrupted_beta_guard(params: WaveParams, beta: float) -> CheckResult:
    red = _classify(params, beta)
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
    return CheckResult(
        "corrupted-beta-guard",
        bool(tripped),
        f"beta shifts {tripped or 'none'} rejected by the cos^2 X <= 1 guard",
    )


def _brute_stagnation(
    params: WaveParams, beta: float, lo: float, hi: float
) -> list[float]:
    """Dense-scan oracle: the 10^6 points of np.linspace(lo, hi, 10**6),
    scanned _SCAN_CHUNK + 1 at a time, plus pure bisection refinement
    of every sign change between neighbours and every exact grid zero."""
    kA = params.k * abs(params.A)
    kc = params.k * params.c

    def f(Z: float) -> float:
        return kA * math.exp(Z) - abs(kc * Z - beta)

    roots = []
    for Zg in _scan_chunks(lo, hi):
        s = kA * np.exp(Zg) - np.abs(kc * Zg - beta)
        for i in np.flatnonzero(np.sign(s[:-1]) * np.sign(s[1:]) < 0.0):
            a, b = float(Zg[i]), float(Zg[i + 1])
            fa = f(a)
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = f(mid)
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
                if b - a <= 1e-13 * max(1.0, abs(mid)):
                    break
            roots.append(0.5 * (a + b))
        # A chunk's last point opens the next chunk, which counts its zero.
        roots.extend(float(Z) for Z in Zg[:-1][s[:-1] == 0.0])
    if s[-1] == 0.0:
        roots.append(float(Zg[-1]))
    return sorted(roots)


def _scan_chunks(lo: float, hi: float) -> Iterator[np.ndarray]:
    """np.linspace(lo, hi, _SCAN_POINTS) in pieces of _SCAN_CHUNK + 1
    points, each starting on the previous piece's last point, every point
    bit for bit as np.linspace places it."""
    last = _SCAN_POINTS - 1
    for first in range(0, last, _SCAN_CHUNK):
        yield linspace_block(
            lo, hi, _SCAN_POINTS, first, min(first + _SCAN_CHUNK, last) + 1
        )
