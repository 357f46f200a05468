"""Per-layer metrics: each layer's public functions timed directly on the
workloads' own inputs (the reference scenarios and the seed's lib draws).

Short calls are timed in batches and the median batch is reported; calls
of a second or more are timed once.  Which end-to-end metric each number
should move is tabled in README.md.
"""

from __future__ import annotations

import math
import statistics
import sys
import time

from deepwave import (
    Case1Reduction,
    IntegratorConfig,
    PeakonParams,
    WaveParams,
    ZSeries,
    assemble_xz,
    asymptote_times,
    build_cubic,
    case1_series,
    case2_series,
    classify_roots,
    complete_K,
    evaluate_field,
    integrate_moving_frame,
    integrate_truncated,
    jacobi_sn_cn_dn,
    peakon_series,
    period_case1,
    solve_stagnation,
)
from deepwave.emitters import trajectory_csv, trajectory_json, trajectory_svg
from deepwave.scenario import build_scenario
from deepwave.validation import run_battery

import workloads

LONG = 100_000  # samples of the traj-long series


def _median_batch(fn, calls: int, batches: int = 5) -> float:
    """Median seconds per call over batches of calls."""
    times = []
    for _ in range(batches):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - started) / calls)
    return statistics.median(times)


def _once(fn):
    started = time.perf_counter()
    value = fn()
    return time.perf_counter() - started, value


def _params(name: str) -> tuple[WaveParams, float]:
    sc = workloads.REFERENCE[name]
    return WaveParams(k=sc.k, a=sc.a, g=sc.g, direction=sc.direction), sc.beta


def jacobi_us(m: float, calls: int = 400) -> float:
    """Median microseconds of single jacobi_sn_cn_dn calls at m, over a
    spread of arguments; the median ignores calls hit by interference."""
    times = []
    for i in range(calls):
        started = time.perf_counter()
        jacobi_sn_cn_dn(0.37 * i, m)
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e6


def process_floor_s(launcher, runs: int = 5) -> float:
    """Median wall time of `deepwave dispersion --k 1` in a fresh process."""
    out = workloads.WORK / "dispersion.stdout"
    argv = [sys.executable, "-m", "deepwave", "dispersion", "--k", "1"]
    return statistics.median(workloads.spawn(launcher, argv, out)[0] for _ in range(runs))


def measure(launcher, lib_draws: list[dict]) -> dict[str, float]:
    p1, b1 = _params("k1")
    p2, b2 = _params("k2")
    p4, b4 = _params("k4")
    refs = [(p1, b1), (p2, b2), (p4, b4)]
    reds = [classify_roots(build_cubic(p, b)) for p, b in refs]
    m_of = [r.k1sq if isinstance(r, Case1Reduction) else r.k2sq for r in reds]
    out: dict[str, float] = {"cli.process_floor_s": process_floor_s(launcher)}

    overrides = workloads.traj_long_ops(0)[0].params
    out["scenario.build_scenario_us"] = 1e6 * _median_batch(
        lambda: build_scenario(None, overrides), 500
    )
    out["cubic_analysis.classify_us"] = 1e6 * _median_batch(
        lambda: [classify_roots(build_cubic(p, b)) for p, b in refs], 300
    ) / len(refs)

    for name, m in zip(("k1", "k2", "k4"), m_of):
        out[f"special_functions.jacobi_us.{name}"] = statistics.median(
            jacobi_us(m) for _ in range(5)
        )
    lib_ms = [d["m"] for d in lib_draws[:64]]
    out["special_functions.jacobi_us.lib"] = statistics.fmean(
        jacobi_us(m, calls=64) for m in lib_ms
    )
    out["special_functions.complete_K_us"] = 1e6 * _median_batch(
        lambda: [complete_K(m) for m in m_of], 1000
    ) / len(m_of)

    red1, red4 = reds[0], reds[2]
    secs, s1 = _once(lambda: case1_series(p1, red1, b1, 0.0, 10.0, LONG))
    out["trajectories.case1_series_us_per_sample"] = 1e6 * secs / LONG
    secs, s4 = _once(lambda: case2_series(p4, red4, b4, 0.0, 10.0, LONG))
    out["trajectories.case2_series_us_per_sample"] = 1e6 * secs / LONG
    out["trajectories.case2_kept_ratio"] = s4.t.size / LONG
    pk = PeakonParams(const1=math.pi / (2.0 * p1.k), const2=1.0)
    out["trajectories.peakon_series_us_per_sample"] = 1e6 * _median_batch(
        lambda: peakon_series(p1, pk, 0.0, 10.0, LONG), 1, 3
    ) / LONG
    zs = ZSeries(t=s1.t, Z=s1.Z, dZdt=s1.dZdt)
    T1 = period_case1(red1)
    out["trajectories.assemble_xz_us_per_sample"] = 1e6 * _median_batch(
        lambda: assemble_xz(p1, b1, zs, case_tag="case1", period=T1), 1, 3
    ) / LONG
    short = []
    for d in lib_draws[:32]:
        p = WaveParams(k=d["k"], a=d["a"], g=9.8, direction=d["direction"])
        red = classify_roots(build_cubic(p, d["beta"]))
        fn = case1_series if d["case"] == 1 else case2_series
        secs, _ = _once(lambda: fn(p, red, d["beta"], d["t_start"], d["t_end"], d["samples"]))
        short.append(secs)
    out["trajectories.short_series_us"] = 1e6 * statistics.fmean(short)

    secs, csv = _once(lambda: trajectory_csv(s1))
    out["emitters.csv_us_per_sample"] = 1e6 * secs / s1.t.size
    out["emitters.csv_bytes_per_sample"] = len(csv.encode()) / s1.t.size
    secs, js = _once(lambda: trajectory_json(s1))
    out["emitters.json_us_per_sample"] = 1e6 * secs / s1.t.size
    out["emitters.json_bytes_per_sample"] = len(js.encode()) / s1.t.size
    secs, _ = _once(lambda: trajectory_svg(s4, title="case2 path"))
    out["emitters.svg_us_per_sample"] = 1e6 * secs / s4.t.size

    # The frame-equivalence check's fixed-step configuration.
    cfg = IntegratorConfig.for_wave(p1, 0.0, 2.0 * p1.wave_period, steps_per_period=4000)
    steps = round((cfg.t_end - cfg.t_start) / cfg.dt)
    secs = statistics.median(
        _once(lambda: integrate_moving_frame(p1, math.pi / 3.0, 0.0, cfg))[0]
        for _ in range(3)
    )
    out["ode_oracle.rk4_steps_per_s"] = steps / secs
    # The closed-form-vs-oracle check's adaptive configuration on k4.
    t_blow = asymptote_times(red4, 0.0, (0,))[0]
    cfg45 = IntegratorConfig(t_start=0.0, t_end=4.0 * t_blow, dt=t_blow / 1000.0,
                             method="rk45", abs_tol=1e-12, rel_tol=1e-10)
    coeffs4 = build_cubic(p4, b4)
    runs = [_once(lambda: integrate_truncated(coeffs4, red4.Z0, 0.0, cfg45)) for _ in range(3)]
    out["ode_oracle.rk45_points_per_s"] = runs[0][1].t.size / statistics.median(r[0] for r in runs)

    out["stagnation.solve_us"] = 1e6 * _median_batch(
        lambda: [solve_stagnation(p, b) for p, b in refs], 50
    ) / len(refs)
    out["stagnation.levels"] = float(sum(len(solve_stagnation(p, b).solutions) for p, b in refs))
    for name, (p, b) in zip(("k1", "k2", "k4"), refs):
        out[f"validation.run_battery_s.{name}"] = _once(lambda: run_battery(p, b))[0]

    probes = [(0.3 * i, -0.05 * i, 0.1 * i) for i in range(20)]
    out["wave_field.evaluate_field_us"] = 1e6 * _median_batch(
        lambda: [evaluate_field(p1, x, z, t) for x, z, t in probes], 100
    ) / len(probes)
    return out
