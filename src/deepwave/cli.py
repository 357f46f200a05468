"""Command-line interface.

Subcommands: ``dispersion`` (speed table), ``trajectory`` (closed-form
or oracle particle paths as CSV/JSON plus optional SVG), ``stagnation``
(levels where the vertical motion stalls), ``validate`` (self-check
battery), ``field`` (point evaluation of the velocity/pressure field).

Exit codes: 0 success, 2 usage error, 3 domain/classification error
(printed as a single ``error:<code>: message`` line on stderr), 4
validation failure.
"""

from __future__ import annotations

import math
import sys

import click
import numpy as np

from .cubic_analysis import Case1Reduction, build_cubic, classify_roots
from .emitters import (
    emit_text,
    field_json,
    trajectory_csv,
    trajectory_json,
    trajectory_summary,
    trajectory_svg,
)
from .errors import DeepwaveError
from .ode_oracle import IntegratorConfig, integrate_moving_frame
from .scenario import ScenarioConfig, build_scenario
from .stagnation import solve_stagnation
from .trajectories import (
    PeakonParams,
    TrajectorySeries,
    case1_series,
    case2_series,
    peakon_series,
)
from .validation import run_battery
from .wave_field import WaveParams, evaluate_field


@click.group(name="deepwave")
def cli() -> None:
    """Particle paths beneath small-amplitude deep-water gravity waves."""


_opt_config = click.option(
    "--config",
    "config_path",
    default=None,
    help="Config file (flat 'key = value' lines); DEEPWAVE_CONFIG is the fallback.",
)


def _scenario_options(*names: str):
    """Stack the named scenario flags (all optional, config supplies the rest)."""
    flags = {
        "k": click.option("--k", type=float, default=None, help="Wavenumber k > 0."),
        "a": click.option("--a", type=float, default=None, help="Amplitude a > 0."),
        "g": click.option("--g", type=float, default=None, help="Gravity g > 0."),
        "beta": click.option(
            "--beta", type=float, default=None, help="Vertical integration constant."
        ),
        "direction": click.option(
            "--direction",
            type=click.Choice(["1", "-1"]),
            default=None,
            help="Propagation direction of the wave.",
        ),
        "p0": click.option(
            "--p0", type=float, default=None, help="Surface pressure offset."
        ),
        "t_start": click.option("--t-start", type=float, default=None),
        "t_end": click.option("--t-end", type=float, default=None),
        "samples": click.option(
            "--samples", type=int, default=None, help="Number of output samples."
        ),
        "solution": click.option(
            "--solution",
            type=click.Choice(["peakon", "elliptic", "oracle"]),
            default=None,
            help="Path family: closed forms or the numerical oracle.",
        ),
        "const1": click.option(
            "--const1",
            type=float,
            default=None,
            help="Peakon x offset (default pi/(2k), the crest-phase convention).",
        ),
        "const2": click.option(
            "--const2", type=float, default=None, help="Peakon asymptote constant."
        ),
        "t0": click.option(
            "--t0", type=float, default=None, help="Clock offset of the closed forms."
        ),
        "out": click.option(
            "--out", default=None, help="Sample file path ('-' or omitted: stdout)."
        ),
        "format": click.option(
            "--format",
            "format_",
            type=click.Choice(["csv", "json"]),
            default=None,
            help="Sample file format.",
        ),
        "svg": click.option("--svg", default=None, help="Also draw the path to SVG."),
        "z_min": click.option(
            "--z-min", type=float, default=None, help="Search window lower edge (Z)."
        ),
        "z_max": click.option(
            "--z-max", type=float, default=None, help="Search window upper edge (Z)."
        ),
        "grid": click.option(
            "--grid", type=int, default=None, help="Echoed only; must be >= 1000."
        ),
        "x": click.option("--x", type=float, default=None, help="Evaluation x."),
        "z": click.option("--z", type=float, default=None, help="Evaluation z."),
        "t": click.option("--t", type=float, default=None, help="Evaluation time."),
    }

    def wrap(fn):
        for name in reversed(names):
            fn = flags[name](fn)
        return fn

    return wrap


def _overrides(kwargs: dict) -> dict:
    out = dict(kwargs)
    if out.get("format_") is not None:
        out["format"] = out.pop("format_")
    else:
        out.pop("format_", None)
    if out.get("direction") is not None:
        out["direction"] = int(out["direction"])
    return out


@cli.command()
@click.option(
    "--k",
    "k_list",
    required=True,
    help="Wavenumber, or comma-separated list like 1,2,4.",
)
@click.option("--g", type=float, default=9.8, show_default=True)
@click.option("--a", type=float, default=0.1, show_default=True)
@click.option(
    "--direction", type=click.Choice(["1", "-1"]), default="1", show_default=True
)
def dispersion(k_list: str, g: float, a: float, direction: str) -> None:
    """Speed table (k, wavelength, c, A) for one or more wavenumbers."""
    try:
        values = [float(part) for part in k_list.split(",") if part.strip()]
    except ValueError as exc:
        raise click.BadParameter(f"cannot parse --k {k_list!r}") from exc
    if not values:
        raise click.BadParameter("--k needs at least one wavenumber")
    header = f"{'k':>14} {'wavelength':>14} {'c':>14} {'A':>14}"
    click.echo(header)
    for kv in values:
        p = WaveParams(k=kv, a=a, g=g, direction=int(direction))
        click.echo(
            f"{p.k:>14.8g} {p.wavelength:>14.8g} {p.c:>14.8g} {p.A:>14.8g}"
        )


@cli.command()
@_opt_config
@_scenario_options(
    "k", "a", "g", "beta", "direction", "p0", "t_start", "t_end", "samples",
    "solution", "const1", "const2", "t0", "out", "format", "svg",
)
def trajectory(config_path: str | None, **kwargs) -> None:
    """Sample one particle path and emit it as CSV or JSON (plus SVG)."""
    sc = build_scenario(config_path, _overrides(kwargs))
    params = sc.params()
    series, asymptote_x = _compute_series(sc, params)
    text = trajectory_csv(series) if sc.format == "csv" else trajectory_json(series)
    emit_text(sc.out, text)
    to_stdout = sc.out in (None, "-")
    click.echo(trajectory_summary(series), nl=False, err=to_stdout)
    if sc.svg:
        emit_text(
            sc.svg,
            trajectory_svg(
                series, asymptote_x=asymptote_x, title=f"{series.case_tag} path"
            ),
        )


@cli.command()
@_opt_config
@_scenario_options("k", "a", "g", "beta", "direction", "z_min", "z_max", "grid")
def stagnation(config_path: str | None, **kwargs) -> None:
    """Report every stagnation level in the search window."""
    sc = build_scenario(config_path, _overrides(kwargs))
    report = solve_stagnation(sc.params(), sc.beta, sc.z_min, sc.z_max, sc.grid)
    lo, hi = report.search_interval
    click.echo(
        f"stagnation levels in [{lo:.10g}, {hi:.10g}]: "
        f"{len(report.solutions)} found (grid {report.grid_size})"
    )
    for sol in report.solutions:
        tail = "  tangency" if sol.tangency else ""
        click.echo(
            f"  Z* = {sol.Z_star:>18.12g}  branch={sol.branch:<5}  "
            f"residual={sol.residual:.3e}{tail}"
        )


@cli.command()
@_opt_config
@_scenario_options("k", "a", "g", "beta", "direction")
@click.pass_context
def validate(ctx: click.Context, config_path: str | None, **kwargs) -> None:
    """Run the self-check battery; exit 4 unless every check passes."""
    sc = build_scenario(config_path, _overrides(kwargs))
    results = run_battery(sc.params(), sc.beta)
    for i, res in enumerate(results, start=1):
        status = "PASS" if res.passed else "FAIL"
        click.echo(f"[{i:2d}/{len(results)}] {res.name:<24} {status}  {res.detail}")
    n_pass = sum(1 for r in results if r.passed)
    click.echo(f"{n_pass}/{len(results)} checks passed")
    if n_pass != len(results):
        ctx.exit(4)


@cli.command()
@_opt_config
@_scenario_options("k", "a", "g", "direction", "p0", "x", "z", "t")
def field(config_path: str | None, **kwargs) -> None:
    """Evaluate velocity, pressure and surface elevation at one point."""
    sc = build_scenario(config_path, _overrides(kwargs))
    sample = evaluate_field(sc.params(), sc.x, sc.z, sc.t)
    click.echo(field_json(sc.x, sc.z, sc.t, sample), nl=False)


def _compute_series(
    sc: ScenarioConfig, params: WaveParams
) -> tuple[TrajectorySeries, tuple[float, ...]]:
    """Build the requested series plus the x locations of its asymptotes."""
    if sc.solution == "peakon":
        pk = PeakonParams(const1=sc.const1, const2=sc.const2)
        series = peakon_series(params, pk, sc.t_start, sc.t_end, sc.samples)
        marks = tuple(
            params.c * ta + pk.const1
            for ta in series.asymptote_times or ()
            if sc.t_start <= ta <= sc.t_end
        )
        return series, marks

    red = classify_roots(build_cubic(params, sc.beta))
    if sc.solution == "elliptic":
        if isinstance(red, Case1Reduction):
            return (
                case1_series(
                    params, red, sc.beta, sc.t_start, sc.t_end, sc.samples, t0=sc.t0
                ),
                (),
            )
        series = case2_series(
            params, red, sc.beta, sc.t_start, sc.t_end, sc.samples, t0=sc.t0
        )
        return series, _case2_asymptote_x(params, series)

    # Oracle: untruncated dynamics from the closed form's launch state.
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
    series = integrate_moving_frame(params, X_init, Z_init, cfg, sample_times=ts)
    return series, ()


def _case2_asymptote_x(
    params: WaveParams, series: TrajectorySeries
) -> tuple[float, ...]:
    """Vertical-asymptote x lines x = c t_n + sign(A) pi/(2k): the limit of
    X on the rising side of each asymptote is sign(A) pi/2."""
    s = math.copysign(math.pi / (2.0 * params.k), params.A)
    return tuple(params.c * ta + s for ta in series.asymptote_times or ())


def main(argv: list[str] | None = None) -> None:
    try:
        # click returns Exit codes instead of raising them outside
        # standalone mode, so ctx.exit(4) arrives as a return value
        rv = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.Abort:
        sys.exit(130)
    except DeepwaveError as exc:
        click.echo(f"error:{exc.code}: {exc}", err=True)
        sys.exit(3)
    sys.exit(rv if isinstance(rv, int) else 0)
