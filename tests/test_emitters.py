"""The bulk CSV, JSON and SVG emitters write the bytes of the per-row
reference emitters kept below.

The references are the row-by-row formatting the emitters replaced;
they stay here as the definition of the output format, so any change to
the bytes shows up as a test failure rather than a silent change to
golden files downstream.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from deepwave.cli import _compute_series
from deepwave.emitters import (
    SVG_HEIGHT,
    SVG_MARGIN,
    SVG_WIDTH,
    Z_DISPLAY_CAP,
    _escape,
    _padded_range,
    _ticks_x,
    _ticks_y,
    trajectory_csv,
    trajectory_json,
    trajectory_svg,
)
from deepwave.scenario import build_scenario
from deepwave.trajectories import TrajectorySeries


def reference_csv(series: TrajectorySeries) -> str:
    lines = ["t,x,z,X,Z"]
    for i in range(series.t.size):
        lines.append(
            ",".join(
                "%.17g" % float(col[i])
                for col in (series.t, series.x, series.z, series.X, series.Z)
            )
        )
    return "\n".join(lines) + "\n"


def reference_json(series: TrajectorySeries) -> str:
    meta = {
        "case": series.case_tag,
        "k": series.k,
        "c": series.c,
        "n_samples": int(series.t.size),
        "t_start": float(series.t[0]),
        "t_end": float(series.t[-1]),
        "period": series.period,
        "drift_per_period": series.drift_per_period,
        "asymptote_times": (
            None
            if series.asymptote_times is None
            else [float(v) for v in series.asymptote_times]
        ),
    }
    samples = {
        name: [float(v) for v in getattr(series, name)]
        for name in ("t", "x", "z", "X", "Z")
    }
    return json.dumps({"metadata": meta, "samples": samples}, indent=2) + "\n"


def reference_svg(series, asymptote_x=(), title=None) -> str:
    x = np.asarray(series.x, dtype=float)
    z = np.asarray(series.z, dtype=float)

    z_for_range = z
    if series.asymptote_times:
        cap = Z_DISPLAY_CAP / series.k
        capped = z[z <= cap]
        if capped.size >= 2:
            z_for_range = capped
    x_lo, x_hi = _padded_range(
        min(np.min(x), *asymptote_x) if asymptote_x else float(np.min(x)),
        max(np.max(x), *asymptote_x) if asymptote_x else float(np.max(x)),
    )
    z_lo, z_hi = _padded_range(float(np.min(z_for_range)), float(np.max(z_for_range)))

    plot_w = SVG_WIDTH - 2.0 * SVG_MARGIN
    plot_h = SVG_HEIGHT - 2.0 * SVG_MARGIN

    def sx(v: float) -> float:
        return SVG_MARGIN + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        raw = SVG_MARGIN + (z_hi - v) / (z_hi - z_lo) * plot_h
        return min(max(raw, -SVG_HEIGHT), 2.0 * SVG_HEIGHT)

    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {SVG_WIDTH:.0f} {SVG_HEIGHT:.0f}" '
        f'width="{SVG_WIDTH:.0f}" height="{SVG_HEIGHT:.0f}">',
        f'<rect x="0" y="0" width="{SVG_WIDTH:.0f}" height="{SVG_HEIGHT:.0f}" '
        'fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{SVG_MARGIN:.3f}" y="{0.6 * SVG_MARGIN:.3f}" '
            'font-family="monospace" font-size="13">'
            f"{_escape(title)}</text>"
        )
    out.append(
        f'<rect x="{SVG_MARGIN:.3f}" y="{SVG_MARGIN:.3f}" '
        f'width="{plot_w:.3f}" height="{plot_h:.3f}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    out.extend(_ticks_x(x_lo, x_hi, sx))
    out.extend(_ticks_y(z_lo, z_hi, sy))
    for xa in asymptote_x:
        out.append(
            f'<line x1="{sx(xa):.3f}" y1="{SVG_MARGIN:.3f}" '
            f'x2="{sx(xa):.3f}" y2="{SVG_MARGIN + plot_h:.3f}" '
            'stroke="#c0392b" stroke-width="1" stroke-dasharray="6,4"/>'
        )
    points = " ".join(f"{sx(float(a)):.3f},{sy(float(b)):.3f}" for a, b in zip(x, z))
    out.append(
        f'<polyline fill="none" stroke="#1f6fb4" stroke-width="1.5" '
        f'points="{points}"/>'
    )
    out.append(
        f'<text x="{SVG_MARGIN + plot_w - 10.0:.3f}" '
        f'y="{SVG_MARGIN + plot_h + 35.0:.3f}" '
        'font-family="monospace" font-size="12">x</text>'
    )
    out.append(
        f'<text x="{10.0:.3f}" y="{SVG_MARGIN + 10.0:.3f}" '
        'font-family="monospace" font-size="12">z</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def assert_same_text(got: str, want: str) -> None:
    """Equality with a short report: pytest's own diff of two 100 kB
    strings takes minutes."""
    if got == want:
        return
    at = next(
        (i for i, (a, b) in enumerate(zip(got, want)) if a != b),
        min(len(got), len(want)),
    )
    pytest.fail(
        f"texts differ at offset {at}: got {got[at - 40:at + 40]!r}, "
        f"want {want[at - 40:at + 40]!r} (lengths {len(got)}, {len(want)})"
    )


def _cli_series(**overrides):
    """(series, asymptote x marks) exactly as `deepwave trajectory` builds them."""
    sc = build_scenario(None, overrides)
    return _compute_series(sc, sc.params())


@pytest.fixture(scope="module")
def cli_series():
    k1 = _cli_series(k=1.0, beta=1.0, t_start=0.4, t_end=10.4, samples=3001)
    # A window centred on an asymptote puts its middle sample inside the
    # guard band, so the case-2 series drops it.
    probe, _ = _cli_series(k=4.0, beta=1.0, t_start=0.0, t_end=10.0, samples=11)
    t_a = probe.asymptote_times[1]
    k4 = _cli_series(k=4.0, beta=1.0, t_start=t_a - 1.0, t_end=t_a + 1.0, samples=3001)
    peakon = _cli_series(
        k=1.0, beta=1.0, t_start=0.0, t_end=10.0, samples=3001, solution="peakon"
    )
    return {"k1": k1, "k4": k4, "peakon": peakon}


def _edge_series() -> TrajectorySeries:
    # c = 0 makes X = x and Z = z exact at k = 1; at t = inf the frame
    # check reads c t = nan and passes, so the row can carry an inf.
    t = [-0.0, 5e-324, 1e300, math.inf]
    x = [-0.0, 5e-324, 1.0, 1e300]
    z = [5e-324, -0.0, -1e300, 1.0]
    with np.errstate(invalid="ignore"):
        return TrajectorySeries(
            k=1.0, c=0.0, t=t, x=x, z=z, X=x, Z=z, case_tag="case1",
            period=-0.0, drift_per_period=1e300, asymptote_times=(5e-324,),
        )


def test_k4_series_has_dropped_samples_and_marks(cli_series):
    series, marks = cli_series["k4"]
    assert series.case_tag == "case2"
    assert series.t.size < 3001
    assert series.asymptote_times and marks


@pytest.mark.parametrize("name", ["k1", "k4", "peakon"])
def test_bytes_match_reference(cli_series, name):
    series, marks = cli_series[name]
    assert_same_text(trajectory_csv(series), reference_csv(series))
    assert_same_text(trajectory_json(series), reference_json(series))
    title = f"{series.case_tag} path"
    assert_same_text(
        trajectory_svg(series, asymptote_x=marks, title=title),
        reference_svg(series, asymptote_x=marks, title=title),
    )


def test_edge_values_match_reference():
    series = _edge_series()
    csv = trajectory_csv(series)
    assert_same_text(csv, reference_csv(series))
    assert "\n-0,-0,4.9406564584124654e-324," in csv and "\ninf," in csv
    js = trajectory_json(series)
    assert_same_text(js, reference_json(series))
    assert "Infinity" in js and "5e-324" in js and "-0.0" in js
    assert json.loads(js)["samples"]["t"][-1] == math.inf
    assert_same_text(
        trajectory_svg(series, title="a<b"), reference_svg(series, title="a<b")
    )


def test_single_sample_json_matches_reference():
    series = TrajectorySeries(
        k=2.0, c=0.5, t=[1.5], x=[0.25], z=[-0.125], X=[-1.0], Z=[-0.25],
        case_tag="peakon",
    )
    assert_same_text(trajectory_json(series), reference_json(series))
    assert_same_text(trajectory_csv(series), reference_csv(series))
