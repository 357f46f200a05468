"""Byte-stable CSV, JSON and SVG emitters for trajectory output.

Formatting policy, fixed per file type so golden files stay stable:

* CSV: header ``t,x,z,X,Z`` exactly, one row per sample, every number
  printed with 17 significant digits (``%.17g``), comma separated, no
  locale formatting anywhere.
* JSON: one object with ``metadata`` and ``samples``, laid out as
  json.dumps(indent=2) lays it out; floats use Python's shortest
  round-trip repr.
* SVG: generated directly with a fixed viewBox, path coordinates at 3
  decimals (``%.3f``), axis ticks at round steps, vertical asymptotes
  dashed.

The CSV numbers and the SVG path coordinates are the bytes the ``%``
operator writes, produced by an array writer (_decimal_text) a block of
rows at a time; a row holding a value it does not cover is written by
``%``.

All emitted text uses "\n" newlines regardless of platform.  Each
format is a generator of pieces covering _PIECE samples each, which
emit_text writes as they come; trajectory_csv, trajectory_json and
trajectory_svg return the same pieces joined.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ContractViolationError
from .trajectories import TrajectorySeries

SVG_WIDTH = 640.0
SVG_HEIGHT = 480.0
SVG_MARGIN = 50.0

# Series with vertical asymptotes get their drawn z range capped at
# Z = Z_DISPLAY_CAP (in moving-frame units) so one near-asymptote sample
# cannot flatten the rest of the path into a single pixel row.
Z_DISPLAY_CAP = 10.0


SAMPLE_COLUMNS = ("t", "x", "z", "X", "Z")

# Samples formatted per piece: output memory stays bounded by one piece,
# not by the length of the formatted text.
_PIECE = 4096


def csv_pieces(series: TrajectorySeries) -> Iterator[str]:
    yield ",".join(SAMPLE_COLUMNS) + "\n"
    for piece in _slices(series.t.size):
        block = np.stack([getattr(series, name)[piece] for name in SAMPLE_COLUMNS], axis=1)
        yield _decimal_text(block, "%.17g", ",,,,\n")


def trajectory_csv(series: TrajectorySeries) -> str:
    return "".join(csv_pieces(series))


def json_pieces(series: TrajectorySeries) -> Iterator[str]:
    """The document json.dumps(indent=2) writes for metadata and samples.

    Only the metadata goes through the indenting encoder.  Each slice of
    a sample array is encoded flat by the C encoder and its ", "
    separators are turned into the indented line breaks; a float repr
    (and json's NaN and Infinity) never contains ", ".
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
    yield head + ',\n  "samples": {\n'
    for i, name in enumerate(SAMPLE_COLUMNS):
        yield ("" if i == 0 else ",\n") + f'    "{name}": [\n      '
        column = getattr(series, name)
        for j, piece in enumerate(_slices(column.size)):
            flat = json.dumps(column[piece].tolist())[1:-1]
            yield ("" if j == 0 else ",\n      ") + flat.replace(", ", ",\n      ")
        yield "\n    ]"
    yield "\n  }\n}\n"


def trajectory_json(series: TrajectorySeries) -> str:
    return "".join(json_pieces(series))


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


def svg_pieces(
    series: TrajectorySeries,
    asymptote_x: Sequence[float] = (),
    title: str | None = None,
) -> Iterator[str]:
    """Render the (x, z) path as a standalone SVG document.

    The ranges, ticks and frame come from the whole path when this is
    called; the polyline points are mapped and formatted one slice at a
    time as the pieces are read.  A path whose plotted x or z range cannot
    be drawn (an infinite or NaN coordinate) raises ContractViolationError
    at the call; CSV and JSON still emit such a path.
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
    out.extend(_ticks(x_lo, x_hi, sx, vertical=False))
    out.extend(_ticks(z_lo, z_hi, sy, vertical=True))

    for xa in asymptote_x:
        out.append(
            f'<line x1="{sx(xa):.3f}" y1="{SVG_MARGIN:.3f}" '
            f'x2="{sx(xa):.3f}" y2="{SVG_MARGIN + plot_h:.3f}" '
            'stroke="#c0392b" stroke-width="1" stroke-dasharray="6,4"/>'
        )

    out.append(
        '<polyline fill="none" stroke="#1f6fb4" stroke-width="1.5" points="'
    )
    tail = [
        '"/>',
        f'<text x="{SVG_MARGIN + plot_w - 10.0:.3f}" '
        f'y="{SVG_MARGIN + plot_h + 35.0:.3f}" '
        'font-family="monospace" font-size="12">x</text>',
        f'<text x="{10.0:.3f}" y="{SVG_MARGIN + 10.0:.3f}" '
        'font-family="monospace" font-size="12">z</text>',
        "</svg>",
    ]

    def points() -> Iterator[str]:
        for j, piece in enumerate(_slices(x.size)):
            # Each pair ends in a space; the piece's last one is cut.
            pairs = np.stack([sx(x[piece]), sy(z[piece])], axis=1)
            yield ("" if j == 0 else " ") + _decimal_text(pairs, "%.3f", ", ")[:-1]

    return itertools.chain(["\n".join(out)], points(), ["\n".join(tail) + "\n"])


def trajectory_svg(
    series: TrajectorySeries,
    asymptote_x: Sequence[float] = (),
    title: str | None = None,
) -> str:
    return "".join(svg_pieces(series, asymptote_x, title))


def emit_text(path: str | None, text: str | Iterable[str]) -> None:
    """Write a text, or its pieces in turn, to a file with \\n newlines,
    or to stdout for None or "-".

    The first piece is made before the file is opened, so an emitter
    that rejects its input leaves no file behind.
    """
    pieces = iter((text,) if isinstance(text, str) else text)
    first = next(pieces, "")
    if path is None or path == "-":
        sys.stdout.write(first)
        sys.stdout.writelines(pieces)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(first)
        fh.writelines(pieces)


def _slices(n: int) -> Iterator[slice]:
    """Consecutive slices of _PIECE samples covering range(n)."""
    return (slice(i, i + _PIECE) for i in range(0, n, _PIECE))


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


def _ticks(lo: float, hi: float, to_px, vertical: bool) -> list[str]:
    """Tick marks and labels along the bottom edge (x) or the left edge (z)."""
    out = []
    for tick in _nice_ticks(lo, hi):
        p = to_px(tick)
        if vertical:
            x0 = SVG_MARGIN
            mark, label = (x0 - 5.0, p, x0, p), (x0 - 8.0, p + 3.0, "end")
        else:
            y0 = SVG_HEIGHT - SVG_MARGIN
            mark, label = (p, y0, p, y0 + 5.0), (p, y0 + 18.0, "middle")
        out.append(
            '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" ' % mark
            + 'stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            '<text x="%.3f" y="%.3f" text-anchor="%s" ' % label
            + f'font-family="monospace" font-size="10">{tick:.6g}</text>'
        )
    return out


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


# The array decimal writer.  Each value's digits are the correctly rounded
# integer D = round(|v|·10^s), the fixed-precision conversion of Ryū
# printf (Adams 2019), with the exact product |v|·10^s taken as Dekker's
# TwoProduct (Dekker 1971; Ogita, Rump & Oishi 2005) instead of in wide
# integers.  The text is laid out in a uint8 matrix, one plane per output
# column, with NUL bytes as padding that bytes.translate deletes.  A row
# holding a value whose rounding is in doubt, or whose text this layout
# does not cover, is written by the % operator, so every byte is the one
# % writes.

# Rows per sub-block: the planes of 1024 CSV rows take about 1 MB.
_BLOCK_ROWS = 1024
# Dekker's splitting constant 2^27 + 1.
_SPLIT = 134217729.0
# A fraction this close to one half may round either way; the computed
# fraction is within 1e-14 of the exact one.
_DOUBT = 2.0**-30


def _split(x):
    """Dekker's split of x into a high part of 26 bits and the rest."""
    t = _SPLIT * x
    high = t - (t - x)
    return high, x - high


# 10^s for s = 0..22, each an exact double, with its Dekker halves as
# rows 1 and 2.  Fixed notation needs no other power: s = 16 - X with
# the %g exponent X in -5..16 (-5 only to be flagged), or 3 for %.3f.
_POWERS = np.array([float(10**s) for s in range(23)])
_POW10 = np.stack([_POWERS, *_split(_POWERS)])
# The four decimal digits of 0..9999, most significant first, built in
# uint8 so the tables leave no large temporaries behind at import.
_DIGIT_ROWS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
# The digits of 0..9999 as four ASCII bytes, read as one uint32.
_DIGITS4 = np.ascontiguousarray(_DIGIT_ROWS.T + 48).view(np.uint32).ravel()
# Trailing decimal zeros of 0..9999, 4 for 0.
_TRAILING4 = np.logical_and.accumulate(_DIGIT_ROWS[::-1] == 0).sum(
    axis=0, dtype=np.int8
)
# Plane numbers, against one value per column.
_COLUMN = np.arange(18, dtype=np.int8)[:, None]
# "0." and up to three zeros before the digits of a %g value below 1:
# column j is written when the exponent X has -X >= _LEAD_MIN[j].
_LEAD_CHARS = np.frombuffer(b"0.000", np.uint8)[:, None]
_LEAD_MIN = np.array([1, 1, 2, 3, 4], np.int8)[:, None]


def _round_scaled(a, s):
    """(round(a·10^s) as int64, whether that rounding is in doubt) for
    a >= 0 and s in 0..22 with a·10^s below 2^62."""
    hi, h1, h2 = _POW10.take(s, axis=1)
    p = a * hi
    a1, a2 = _split(a)
    # p + err is a·10^s exactly.
    err = ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2
    q = np.rint(p)
    r = (p - q) + err
    rr = np.rint(r)
    doubt = np.abs(np.abs(r - rr) - 0.5) < _DOUBT
    return q.astype(np.int64) + rr.astype(np.int64), doubt


def _digit_planes(groups):
    """ASCII digit planes, most significant first, of rows of 4-digit
    groups (most significant row first), and one NUL plane after them."""
    planes = np.zeros((4 * len(groups) + 1, groups.shape[1]), np.uint8)
    words = _DIGITS4.take(groups).view(np.uint8).reshape(*groups.shape, 4)
    planes[:-1].reshape(len(groups), 4, -1)[...] = words.transpose(0, 2, 1)
    return planes


def _g17_planes(v):
    """The planes of "%.17g" % v for 1-d v (sign, "0.000" lead, 17 digits
    with the point among them), and the values they do not cover: zero,
    non-finite, the exponent notation %g uses outside X = -4..16, and
    roundings in doubt."""
    a = np.abs(v)
    with np.errstate(invalid="ignore"):
        ok = (a >= 1e-5) & (a < 1e17)
    a[~ok] = 1.0
    # log10 may misjudge X by one next to a power of ten, and the digits
    # may round up to one: D then falls outside 10^16..10^17.
    X = np.clip(np.floor(np.log10(a)), -5, 16).astype(np.int8)
    D, doubt = _round_scaled(a, 16 - X)
    bad = ~ok | doubt | (D < 10**16) | (D >= 10**17) | (X < -4)

    n = v.size
    D[bad] = 10**16
    # D's leading digit, then four groups of four digits.
    groups = np.empty((5, n), np.int64)
    groups[0] = D // 10**16
    groups[2] = D // 10**8 - groups[0] * 10**8
    groups[4] = D % 10**8
    groups[1::2] = groups[2::2] // 10**4
    groups[2::2] -= groups[1::2] * 10**4
    trail = _TRAILING4.take(groups[1:])
    zero = trail == 4
    tz = trail[3] + zero[3] * (trail[2] + zero[2] * (trail[1] + zero[1] * trail[0]))
    # %g strips the trailing zeros after the point; 16 - X digits follow it.
    keep = 17 - np.minimum(tz, 16 - X)
    digits = _digit_planes(groups)[3:]
    digits[:17] *= _COLUMN[:17] < keep

    # Planes: sign, five for "0.000", 18 for the digits and the point.
    planes = np.empty((24, n), np.uint8)
    planes[0] = np.signbit(v) * np.uint8(45)
    planes[1:6] = _LEAD_CHARS * (_LEAD_MIN <= -X)
    # The point follows digit X when 0 <= X <= 15 and a digit is kept
    # after it; the digits behind it move one column on.
    point = (X >= 0) & (keep > X + 1)
    before = _COLUMN <= np.where(point, X, 17)
    body = planes[6:]
    np.multiply(digits, before, out=body)
    body[1:] += digits[:17] * ~before[1:]
    at = np.flatnonzero(point)
    body[X[at] + 1, at] = 46
    return planes, bad


def _f3_planes(v):
    """The planes of "%.3f" % v for 1-d v (sign, five integer digits with
    leading zeros dropped, point, three decimals), and the values they do
    not cover: non-finite, |v| that rounds to 10^5 or more, and roundings
    in doubt."""
    a = np.abs(v)
    with np.errstate(invalid="ignore"):
        ok = a < 1e5
    a[~ok] = 0.0
    D, doubt = _round_scaled(a, 3)
    bad = ~ok | doubt | (D >= 10**8)
    D[bad] = 0
    high = D // 10**4
    digits = _digit_planes(np.stack([high, D - high * 10**4]))
    planes = np.empty((10, v.size), np.uint8)
    planes[0] = np.signbit(v) * np.uint8(45)
    planes[1:6] = digits[:5]
    lead = digits[0] == 48
    for j in range(1, 5):
        planes[j] *= ~lead
        lead &= digits[j] == 48
    planes[6] = 46
    planes[7:] = digits[5:8]
    return planes, bad


_PLANES = {"%.17g": _g17_planes, "%.3f": _f3_planes}


def _decimal_text(block: np.ndarray, spec: str, seps: str) -> str:
    """The text of spec % value for each value of a 2-d float block, value
    j of each row followed by seps[j]: "%.17g" or "%.3f" formatting, byte
    for byte, without a call per value."""
    planes_of = _PLANES[spec]
    row_format = "".join(spec + sep for sep in seps)
    sep_codes = np.frombuffer(seps.encode(), np.uint8)
    out = []
    for start in range(0, len(block), _BLOCK_ROWS):
        sub = block[start : start + _BLOCK_ROWS]
        rows, cols = sub.shape
        planes, bad = planes_of(sub.ravel())
        matrix = np.empty((rows, cols, len(planes) + 1), np.uint8)
        matrix[..., :-1] = planes.T.reshape(rows, cols, -1)
        matrix[..., -1] = sep_codes
        done = 0
        for r in np.flatnonzero(bad.reshape(rows, cols).any(axis=1)).tolist():
            if r > done:
                out.append(matrix[done:r].tobytes().translate(None, b"\0").decode())
            out.append(row_format % tuple(sub[r].tolist()))
            done = r + 1
        out.append(matrix[done:].tobytes().translate(None, b"\0").decode())
    return "".join(out)
