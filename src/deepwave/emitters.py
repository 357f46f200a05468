"""Byte-stable CSV, JSON and SVG emitters for trajectory output.

Formatting policy, fixed per file type so golden files stay stable:

* CSV: header ``t,x,z,X,Z`` exactly, one row per sample, every number
  printed with 17 significant digits (``%.17g``), comma separated, no
  locale formatting anywhere.
* JSON: one object with ``metadata`` and ``samples``, laid out as
  json.dumps(indent=2) lays it out; floats use Python's shortest
  round-trip repr.
* SVG: generated directly with a fixed viewBox, path coordinates at 3
  decimals, axis ticks at round steps, vertical asymptotes dashed.

All emitted text uses "\n" newlines regardless of platform.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Sequence

import numpy as np

from .errors import ContractViolationError
from .trajectories import TrajectorySeries
from .wave_field import FieldSample

SVG_WIDTH = 640.0
SVG_HEIGHT = 480.0
SVG_MARGIN = 50.0

# Series with vertical asymptotes get their drawn z range capped at
# Z = Z_DISPLAY_CAP (in moving-frame units) so one near-asymptote sample
# cannot flatten the rest of the path into a single pixel row.
Z_DISPLAY_CAP = 10.0


SAMPLE_COLUMNS = ("t", "x", "z", "X", "Z")


def trajectory_csv(series: TrajectorySeries) -> str:
    columns = (getattr(series, name).tolist() for name in SAMPLE_COLUMNS)
    rows = "".join(
        "%.17g,%.17g,%.17g,%.17g,%.17g\n" % row for row in zip(*columns)
    )
    return ",".join(SAMPLE_COLUMNS) + "\n" + rows


def trajectory_json(series: TrajectorySeries) -> str:
    """The document json.dumps(indent=2) writes for metadata and samples.

    Only the metadata goes through the indenting encoder.  Each sample
    array is encoded flat by the C encoder and its ", " separators are
    turned into the indented line breaks; a float repr (and json's NaN
    and Infinity) never contains ", ".
    """
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
    head = json.dumps({"metadata": meta}, indent=2)[: -len("\n}")]
    arrays = ",\n".join(
        f'    "{name}": [\n      '
        + json.dumps(getattr(series, name).tolist())[1:-1].replace(", ", ",\n      ")
        + "\n    ]"
        for name in SAMPLE_COLUMNS
    )
    return head + ',\n  "samples": {\n' + arrays + "\n  }\n}\n"


def trajectory_summary(series: TrajectorySeries) -> str:
    """Human-readable metadata block printed alongside the sample file."""
    lines = [
        f"case: {series.case_tag}",
        f"samples: {series.t.size}",
        f"t: [{series.t[0]:.10g}, {series.t[-1]:.10g}]",
        f"x: [{np.min(series.x):.10g}, {np.max(series.x):.10g}]",
        f"z: [{np.min(series.z):.10g}, {np.max(series.z):.10g}]",
    ]
    if series.period is not None:
        lines.append(f"period: {series.period:.10g}")
    if series.drift_per_period is not None:
        lines.append(f"drift per period: {series.drift_per_period:.10g}")
    if series.asymptote_times:
        marks = ", ".join(f"{t:.10g}" for t in series.asymptote_times)
        lines.append(f"asymptote times: {marks}")
    return "\n".join(lines) + "\n"


def field_json(x: float, z: float, t: float, sample: FieldSample) -> str:
    payload = {
        "x": x,
        "z": z,
        "t": t,
        "u": sample.u,
        "v": sample.v,
        "p": sample.p,
        "eta": sample.eta,
        "above_surface": sample.above_surface,
    }
    return json.dumps(payload, indent=2) + "\n"


def trajectory_svg(
    series: TrajectorySeries,
    asymptote_x: Sequence[float] = (),
    title: str | None = None,
) -> str:
    """Render the (x, z) path as a standalone SVG document.

    A path whose plotted x or z range is not finite (an infinite or NaN
    coordinate) raises ContractViolationError; CSV and JSON still emit
    such a path.
    """
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

    # Pixel maps for scalars and arrays alike.
    def sx(v):
        return SVG_MARGIN + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        raw = SVG_MARGIN + (z_hi - v) / (z_hi - z_lo) * plot_h
        return np.minimum(np.maximum(raw, -SVG_HEIGHT), 2.0 * SVG_HEIGHT)

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

    frame = (
        f'<rect x="{SVG_MARGIN:.3f}" y="{SVG_MARGIN:.3f}" '
        f'width="{plot_w:.3f}" height="{plot_h:.3f}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    out.append(frame)
    out.extend(_ticks_x(x_lo, x_hi, sx))
    out.extend(_ticks_y(z_lo, z_hi, sy))

    for xa in asymptote_x:
        out.append(
            f'<line x1="{sx(xa):.3f}" y1="{SVG_MARGIN:.3f}" '
            f'x2="{sx(xa):.3f}" y2="{SVG_MARGIN + plot_h:.3f}" '
            'stroke="#c0392b" stroke-width="1" stroke-dasharray="6,4"/>'
        )

    points = " ".join(
        "%.3f,%.3f" % pair for pair in zip(sx(x).tolist(), sy(z).tolist())
    )
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


def emit_text(path: str | None, text: str) -> None:
    """Write to a file with \\n newlines, or to stdout for None or "-"."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _padded_range(lo: float, hi: float) -> tuple[float, float]:
    if hi <= lo:
        return lo - 1.0, lo + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    raw = span / target
    if not (math.isfinite(raw) and raw > 0.0):
        raise ContractViolationError(
            f"cannot draw axis ticks over [{lo}, {hi}]: "
            "the plotted range must be finite and wider than the rounding floor"
        )
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 5.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step)
    last = math.floor(hi / step)
    return [i * step for i in range(first, last + 1)]


def _ticks_x(lo: float, hi: float, sx) -> list[str]:
    y0 = SVG_HEIGHT - SVG_MARGIN
    out = []
    for tick in _nice_ticks(lo, hi):
        px = sx(tick)
        out.append(
            f'<line x1="{px:.3f}" y1="{y0:.3f}" x2="{px:.3f}" y2="{y0 + 5.0:.3f}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.3f}" y="{y0 + 18.0:.3f}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{tick:.6g}</text>'
        )
    return out


def _ticks_y(lo: float, hi: float, sy) -> list[str]:
    x0 = SVG_MARGIN
    out = []
    for tick in _nice_ticks(lo, hi):
        py = sy(tick)
        out.append(
            f'<line x1="{x0 - 5.0:.3f}" y1="{py:.3f}" x2="{x0:.3f}" y2="{py:.3f}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x0 - 8.0:.3f}" y="{py + 3.0:.3f}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{tick:.6g}</text>'
        )
    return out


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
