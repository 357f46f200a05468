"""In-process op bodies: the traced replay of each CLI op and the lib-sweep op.

Each function calls deepwave's public API in the order the CLI does and
wraps every call in a span of the given tracer (a NullTracer records
nothing).  This module imports no scipy, so the lib-sweep child's peak
RSS reflects deepwave alone.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from deepwave import (
    Case1Reduction,
    IntegratorConfig,
    PeakonParams,
    WaveParams,
    build_cubic,
    case1_series,
    case2_series,
    classify_roots,
    evaluate_field,
    integrate_moving_frame,
    peakon_series,
    solve_stagnation,
)
from deepwave.emitters import (
    emit_text,
    trajectory_csv,
    trajectory_json,
    trajectory_summary,
    trajectory_svg,
)
from deepwave.scenario import build_scenario
from deepwave.validation import run_battery


def replay_trajectory(overrides: dict, tr) -> str:
    """`deepwave trajectory` with data (and SVG) sent to files; returns stdout."""
    with tr.span("build_scenario", "scenario"):
        sc = build_scenario(None, overrides)
    params = sc.params()
    asymptote_x: tuple[float, ...] = ()
    if sc.solution == "peakon":
        pk = PeakonParams(const1=sc.const1, const2=sc.const2)
        with tr.span("peakon_series", "trajectories"):
            series = peakon_series(params, pk, sc.t_start, sc.t_end, sc.samples)
        asymptote_x = tuple(
            params.c * ta + pk.const1
            for ta in series.asymptote_times or ()
            if sc.t_start <= ta <= sc.t_end
        )
    else:
        with tr.span("build_cubic", "cubic_analysis"):
            coeffs = build_cubic(params, sc.beta)
        with tr.span("classify_roots", "cubic_analysis"):
            red = classify_roots(coeffs)
        if sc.solution == "elliptic":
            fn = case1_series if isinstance(red, Case1Reduction) else case2_series
            with tr.span(fn.__name__, "trajectories"):
                series = fn(
                    params, red, sc.beta, sc.t_start, sc.t_end, sc.samples, t0=sc.t0
                )
            if series.asymptote_times:
                s = 1.0 if series.X[int(np.argmax(np.abs(series.X)))] >= 0.0 else -1.0
                asymptote_x = tuple(
                    params.c * ta + s * math.pi / (2.0 * params.k)
                    for ta in series.asymptote_times
                )
        else:
            Z_init = red.Z1 if isinstance(red, Case1Reduction) else red.Z0
            r0 = (
                (params.k * params.c * Z_init - sc.beta)
                * math.exp(-Z_init)
                / (params.k * params.A)
            )
            X_init = math.copysign(1.0, params.A) * math.acos(min(max(r0, -1.0), 1.0))
            cfg = IntegratorConfig.for_wave(
                params, sc.t_start, sc.t_end, steps_per_period=2000, method="rk45"
            )
            ts = [float(v) for v in np.linspace(sc.t_start, sc.t_end, sc.samples)]
            with tr.span("integrate_moving_frame", "ode_oracle"):
                series = integrate_moving_frame(
                    params, X_init, Z_init, cfg, sample_times=ts
                )
    emitter = trajectory_csv if sc.format == "csv" else trajectory_json
    with tr.span(emitter.__name__, "emitters"):
        text = emitter(series)
    with tr.span("emit_text", "emitters"):
        emit_text(sc.out, text)
    with tr.span("trajectory_summary", "emitters"):
        summary = trajectory_summary(series)
    if sc.svg:
        with tr.span("trajectory_svg", "emitters"):
            svg = trajectory_svg(
                series, asymptote_x=asymptote_x, title=f"{series.case_tag} path"
            )
        with tr.span("emit_text", "emitters"):
            emit_text(sc.svg, svg)
    return summary


def replay_validate(overrides: dict, tr) -> tuple[int, str]:
    """`deepwave validate`: (exit code, stdout)."""
    with tr.span("build_scenario", "scenario"):
        sc = build_scenario(None, overrides)
    with tr.span("run_battery", "validation"):
        results = run_battery(sc.params(), sc.beta)
    lines = [
        f"[{i:2d}/{len(results)}] {res.name:<24} "
        f"{'PASS' if res.passed else 'FAIL'}  {res.detail}"
        for i, res in enumerate(results, start=1)
    ]
    n_pass = sum(1 for r in results if r.passed)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return (0 if n_pass == len(results) else 4), "\n".join(lines) + "\n"


def replay_stagnation(overrides: dict, tr) -> str:
    """`deepwave stagnation`: stdout."""
    with tr.span("build_scenario", "scenario"):
        sc = build_scenario(None, overrides)
    with tr.span("solve_stagnation", "stagnation"):
        report = solve_stagnation(sc.params(), sc.beta, sc.z_min, sc.z_max, sc.grid)
    lo, hi = report.search_interval
    lines = [
        f"stagnation levels in [{lo:.10g}, {hi:.10g}]: "
        f"{len(report.solutions)} found (grid {report.grid_size})"
    ]
    for sol in report.solutions:
        tail = "  tangency" if sol.tangency else ""
        lines.append(
            f"  Z* = {sol.Z_star:>18.12g}  branch={sol.branch:<5}  "
            f"residual={sol.residual:.3e}{tail}"
        )
    return "\n".join(lines) + "\n"


def lib_op(draw: dict, tr):
    """One lib-sweep op: classify, a short series, stagnation, field probes."""
    with tr.span("WaveParams", "wave_field"):
        params = WaveParams(k=draw["k"], a=draw["a"], g=9.8, direction=draw["direction"])
    with tr.span("build_cubic", "cubic_analysis"):
        coeffs = build_cubic(params, draw["beta"])
    with tr.span("classify_roots", "cubic_analysis"):
        red = classify_roots(coeffs)
    fn = case1_series if isinstance(red, Case1Reduction) else case2_series
    with tr.span(fn.__name__, "trajectories"):
        series = fn(
            params, red, draw["beta"], draw["t_start"], draw["t_end"], draw["samples"]
        )
    with tr.span("solve_stagnation", "stagnation"):
        report = solve_stagnation(params, draw["beta"])
    fields = []
    for x, z, t in draw["points"]:
        with tr.span("evaluate_field", "wave_field"):
            fields.append(evaluate_field(params, x, z, t))
    return series, report, fields


def guarded(fn, *args):
    """fn(*args), or the exception it raised: a raising op is a failed op."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def lib_summary(raw, rows: int = 16) -> dict:
    """What the parent needs to check one lib-sweep op, plus its digest."""
    if isinstance(raw, Exception):
        return {"n": 0, "error": f"{type(raw).__name__}: {raw}", "digest": ""}
    series, report, fields = raw
    n = int(series.t.size)
    idx = np.unique(np.linspace(0, n - 1, rows).astype(int))
    h = hashlib.sha256()
    for col in (series.t, series.x, series.z, series.X, series.Z):
        h.update(np.ascontiguousarray(col).tobytes())
    levels = [[s.Z_star, s.residual, s.tangency] for s in report.solutions]
    values = [[f.u, f.v, f.p, f.eta] for f in fields]
    h.update(repr((levels, values)).encode())
    return {
        "n": n,
        "rows": {
            name: [float(v) for v in getattr(series, name)[idx]]
            for name in ("t", "x", "X", "Z")
        },
        "levels": levels,
        "fields": values,
        "digest": h.hexdigest(),
    }
