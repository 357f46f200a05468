"""Command-line interface.

Subcommands: ``dispersion`` (speed table), ``trajectory`` (closed-form
or oracle particle paths as CSV/JSON plus optional SVG), ``stagnation``
(levels where the vertical motion stalls), ``validate`` (self-check
battery), ``field`` (point evaluation of the velocity/pressure field).

Exit codes: 0 success, 2 usage error, 3 domain/classification error
(printed as a single ``error:<code>: message`` line on stderr), 4
validation failure.

The click commands only wire flags to plain functions, which take a
resolved ScenarioConfig: trajectory_series, trajectory_output,
stagnation_report and validate_report.  Only numpy-free modules are
imported at the top; each function imports the rest of what it runs, so
``--help``, ``dispersion``, ``stagnation`` and ``field`` start without
loading numpy.

main() sets OPENBLAS_NUM_THREADS=1 unless the caller already set it, so
the numpy a command imports starts no BLAS thread pool: deepwave's only
BLAS call, the eigenvalue solve behind the blow-up quadrature's nodes,
runs about 4x faster on one thread with the same bits.  Importing this
module, or deepwave, changes no environment variable.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Iterator

import click

from .errors import DeepwaveError, ParameterDomainError
from .scenario import ScenarioConfig, build_scenario
from .wave_field import WaveParams, evaluate_field

if TYPE_CHECKING:
    from .series import TrajectorySeries


@click.group(name="deepwave")
def cli() -> None:
    """Particle paths beneath small-amplitude deep-water gravity waves."""


_ROWS = {f.name: f for f in dataclasses.fields(ScenarioConfig)}


def _option(name: str, **attrs):
    """The ``--flag`` of one ScenarioConfig row: a Choice of the row's
    allowed values or its converter as the type, the value passed through
    the converter, the row's help text; attrs override click's settings."""
    row = _ROWS[name].metadata
    convert, choices = row["convert"], row["choices"]
    attrs.setdefault("help", row["help"])
    return click.option(
        "--" + name.replace("_", "-"),
        type=click.Choice([str(c) for c in choices]) if choices else convert,
        callback=lambda _ctx, _param, value: None if value is None else convert(value),
        **attrs,
    )


def _shown_default(name: str):
    """A flag of dispersion, which reads no config: the row's default, shown."""
    # As text, click parses the default like a typed value, which a Choice needs.
    return _option(name, help=None, default=str(_ROWS[name].default), show_default=True)


def _scenario_options(*names: str):
    """Stack --config and the named scenario flags (all optional, config
    supplies the rest)."""

    def wrap(fn):
        for name in reversed(names):
            fn = _option(name)(fn)
        return click.option(
            "--config",
            "config_path",
            default=None,
            help="Config file (flat 'key = value' lines); "
            "DEEPWAVE_CONFIG is the fallback.",
        )(fn)

    return wrap


@cli.command()
@click.option(
    "--k",
    "k_list",
    required=True,
    help="Wavenumber, or comma-separated list like 1,2,4.",
)
@_shown_default("g")
@_shown_default("a")
@_shown_default("direction")
def dispersion(k_list: str, g: float, a: float, direction: int) -> None:
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
        p = WaveParams(k=kv, a=a, g=g, direction=direction)
        click.echo(
            f"{p.k:>14.8g} {p.wavelength:>14.8g} {p.c:>14.8g} {p.A:>14.8g}"
        )


@cli.command()
@_scenario_options(
    "k", "a", "g", "beta", "direction", "t_start", "t_end", "samples",
    "solution", "const1", "const2", "t0", "out", "format", "svg",
)
def trajectory(config_path: str | None, **kwargs) -> None:
    """Sample one particle path and emit it as CSV or JSON (plus SVG)."""
    from .emitters import emit_rows

    sc = build_scenario(config_path, kwargs)
    rows, summary = trajectory_output(sc)
    emit_rows((sc.out, sc.svg) if sc.svg else (sc.out,), rows)
    click.echo(summary, nl=False, err=sc.out in (None, "-") or sc.svg == "-")


@cli.command()
@_scenario_options("k", "a", "g", "beta", "direction", "z_min", "z_max", "grid")
def stagnation(config_path: str | None, **kwargs) -> None:
    """Report every stagnation level in the search window."""
    click.echo(stagnation_report(build_scenario(config_path, kwargs)), nl=False)


@cli.command()
@_scenario_options("k", "a", "g", "beta", "direction")
@click.pass_context
def validate(ctx: click.Context, config_path: str | None, **kwargs) -> None:
    """Run the self-check battery; exit 4 unless every check passes."""
    code, text = validate_report(build_scenario(config_path, kwargs))
    click.echo(text, nl=False)
    ctx.exit(code)


@cli.command()
@_scenario_options("k", "a", "g", "direction", "p0", "x", "z", "t")
def field(config_path: str | None, **kwargs) -> None:
    """Evaluate velocity, pressure and surface elevation at one point."""
    sc = build_scenario(config_path, kwargs)
    sample = evaluate_field(sc.params(), sc.x, sc.z, sc.t)
    payload = {"x": sc.x, "z": sc.z, "t": sc.t, **dataclasses.asdict(sample)}
    click.echo(json.dumps(payload, indent=2))


def trajectory_series(
    sc: ScenarioConfig,
) -> tuple[TrajectorySeries, tuple[float, ...]]:
    """The series `deepwave trajectory` emits, built whole, and the x of
    its asymptote lines in the window."""
    (series,), marks = _trajectory_blocks(sc, whole=True)
    return series, marks


def trajectory_output(
    sc: ScenarioConfig,
) -> tuple[Iterator[tuple[str, ...]], str]:
    """(rows, summary): what `deepwave trajectory` writes, as rows of one
    piece for the sample file and, with --svg, one for the SVG
    (emitters.emit_rows), and the summary.

    A closed form is evaluated STREAM_BLOCK grid times at a time, in
    passes.  The first pass, here, runs every check of the whole-series
    build and collects the sample count, time span and ranges, and the
    SVG's ranges are checked, so a run that fails does so before anything
    is written.  It keeps Z (8 B per sample) for JSON, and for CSV when
    the grid fits sampled_path.Z_BUDGET, so the kernel runs once; reading
    the rows rebuilds each block from Z as plain columns, with one
    columns call for the CSV and the SVG, which share one pass.  A larger
    CSV grid is evaluated, and checked, again in that shared pass.  JSON
    is written column by column, and its SVG in a pass of its own.  The
    oracle is one whole block.  The SVG's asymptote lines are the path
    family's.  Data and SVG both bound for stdout, or for one file, raise
    ParameterDomainError before the path is evaluated."""
    from .emitters import summary_text, survey, svg_layout, trajectory_rows

    out = "-" if sc.out is None else sc.out
    if sc.svg and _one_target(out, sc.svg):
        where = "stdout" if out == "-" else repr(out)
        raise ParameterDomainError(f"the sample data and the SVG would both go to {where}")
    blocks, marks = _trajectory_blocks(sc, whole=False)
    s = survey(blocks)
    svg = svg_layout(s, marks, title=f"{s.case_tag} path") if sc.svg else None
    return trajectory_rows(s, sc.format, svg), summary_text(s)


def _one_target(out: str, svg: str) -> bool:
    """Whether two output targets ("-": stdout) are one: both stdout, or
    paths that resolve to one file."""
    if "-" in (out, svg):
        return out == svg
    return os.path.realpath(out) == os.path.realpath(svg) or (
        os.path.exists(out) and os.path.exists(svg) and os.path.samefile(out, svg)
    )


def _trajectory_blocks(sc: ScenarioConfig, whole: bool):
    """(blocks, marks): the series `deepwave trajectory` emits, as a
    re-iterable of blocks (one whole series if whole, or for the oracle),
    and the x of its asymptote lines in the window (none for case 1 and
    the oracle)."""
    from .cubic_analysis import Case1Reduction, build_cubic, classify_roots
    from .trajectories import PeakonParams, sampled_case1, sampled_case2, sampled_peakon

    params, window = sc.params(), (sc.t_start, sc.t_end, sc.samples)
    if sc.solution == "peakon":
        path = sampled_peakon(params, PeakonParams(sc.const1, sc.const2), *window)
    else:
        red = classify_roots(build_cubic(params, sc.beta))
        if sc.solution == "oracle":
            return (_oracle_series(sc, params, red),), ()
        sample = sampled_case1 if isinstance(red, Case1Reduction) else sampled_case2
        path = sample(params, red, sc.beta, *window, t0=sc.t0)
    blocks = (path.series(),) if whole else path.passes(by_column=sc.format == "json")
    return blocks, path.asymptote_x


def stagnation_report(sc: ScenarioConfig) -> str:
    """The stdout of `deepwave stagnation`: every level in the window."""
    from .stagnation import solve_stagnation

    report = solve_stagnation(sc.params(), sc.beta, sc.z_min, sc.z_max, sc.grid)
    lo, hi = report.search_interval
    text = (
        f"stagnation levels in [{lo:.10g}, {hi:.10g}]: "
        f"{len(report.solutions)} found (grid {report.grid_size})\n"
    )
    for sol in report.solutions:
        tail = "  tangency" if sol.tangency else ""
        text += (
            f"  Z* = {sol.Z_star:>18.12g}  branch={sol.branch:<5}  "
            f"residual={sol.residual:.3e}{tail}\n"
        )
    return text


def validate_report(sc: ScenarioConfig) -> tuple[int, str]:
    """The exit code and stdout of `deepwave validate`: 4 unless every
    check of the battery passes."""
    from .validation import run_battery

    results = run_battery(sc.params(), sc.beta)
    text = ""
    for i, res in enumerate(results, start=1):
        status = "PASS" if res.passed else "FAIL"
        text += f"[{i:2d}/{len(results)}] {res.name:<24} {status}  {res.detail}\n"
    n_pass = sum(1 for r in results if r.passed)
    text += f"{n_pass}/{len(results)} checks passed\n"
    return (0 if n_pass == len(results) else 4), text


def _oracle_series(sc: ScenarioConfig, params: WaveParams, red) -> TrajectorySeries:
    """The untruncated dynamics from the closed form's launch state, sampled
    on the closed forms' checked grid."""
    import numpy as np

    from .cubic_analysis import Case1Reduction
    from .ode_oracle import IntegratorConfig, integrate_moving_frame
    from .trajectories import _sample_window

    ts = np.linspace(*_sample_window(params, sc.t_start, sc.t_end, sc.samples))
    Z_init = red.Z1 if isinstance(red, Case1Reduction) else red.Z0
    kA = params.k * params.A
    r0 = (params.k * params.c * Z_init - sc.beta) * math.exp(-Z_init) / kA
    X_init = math.copysign(1.0, params.A) * math.acos(min(max(r0, -1.0), 1.0))
    cfg = IntegratorConfig.for_wave(params, sc.t_start, sc.t_end, method="rk45")
    return integrate_moving_frame(params, X_init, Z_init, cfg, sample_times=ts)


def main(argv: list[str] | None = None) -> None:
    # Before any command imports numpy, which is when OpenBLAS reads it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
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
    except MemoryError as exc:
        # numpy names the allocation it could not make; a bare one says nothing.
        detail = str(exc) or "no detail"
        click.echo(f"error:{DeepwaveError.code}: out of memory: {detail}", err=True)
        sys.exit(3)
    sys.exit(rv if isinstance(rv, int) else 0)
