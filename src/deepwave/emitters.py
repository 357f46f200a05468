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
operator writes, and the JSON sample floats the bytes json.dumps writes
(``float.__repr__``, or ``NaN``, ``Infinity``, ``-Infinity``).  An array
writer (_decimal_text) produces them a block of values at a time; a row
holding a value it does not cover is written by ``%`` or json.dumps.
Only the JSON metadata goes through json.dumps as a whole.

All emitted text uses "\n" newlines regardless of platform.  The
emitters read a series as blocks: a Survey holds a re-iterable of
TrajectorySeries blocks and what one pass over them found (sample
count, time span, ranges), which the JSON metadata, the summary and the
SVG frame need before the first sample.  CSV and SVG are layouts (a
head, the pieces of each block, a tail), so one pass over the blocks
(one_pass) writes the data and the SVG side by side; JSON reads the
blocks once per column (json_pieces).  Each piece is one block of
_decimal_text (_BLOCK_VALUES values: 1024 CSV rows, 2560 SVG points,
5120 JSON values), and emit_rows writes the pieces to their targets as
they come.  trajectory_csv, trajectory_json, trajectory_svg and
trajectory_summary take a whole series as the one block.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ContractViolationError
from .series import TrajectorySeries

SVG_WIDTH = 640.0
SVG_HEIGHT = 480.0
SVG_MARGIN = 50.0

# Series with vertical asymptotes get their drawn z range capped at
# Z = Z_DISPLAY_CAP (in moving-frame units) so one near-asymptote sample
# cannot flatten the rest of the path into a single pixel row.
Z_DISPLAY_CAP = 10.0


SAMPLE_COLUMNS = ("t", "x", "z", "X", "Z")

# A format written in one pass over the blocks, row by row: its head, the
# pieces of one block (given whether it is the first block) and its tail.
Layout = tuple[str, Callable[[TrajectorySeries, bool], Iterator[str]], str]


@dataclass(frozen=True)
class Survey:
    """A series given as blocks, and what the emitters need to know of it
    before its first byte, taken in one pass over the blocks (survey).

    blocks is a re-iterable of blocks which, joined, make the series:
    (series,) for a whole one, or a SampledPath's passes(), which
    evaluates its grid again on each pass or rebuilds it from the Z the
    survey kept.  The survey reads TrajectorySeries blocks; the outputs
    read the blocks once more, and only their t, x, z, X and Z columns.
    The metadata is that of the first block; z_plot_range is the z range
    the SVG frame draws.
    """

    blocks: Iterable[TrajectorySeries]
    case_tag: str
    k: float
    c: float
    period: float | None
    drift_per_period: float | None
    asymptote_times: tuple[float, ...] | None
    n_samples: int
    t_range: tuple[float, float]
    x_range: tuple[float, float]
    z_range: tuple[float, float]
    z_plot_range: tuple[float, float]


def survey(blocks: Iterable[TrajectorySeries]) -> Survey:
    """One pass over blocks, so every check their evaluation runs raises
    here: the sample count, time span and x and z ranges, and the range
    of the z at or below Z_DISPLAY_CAP on a path with asymptotes, which
    the SVG frame draws when it holds two samples or more."""
    n = n_capped = 0
    lows, highs = [], []
    for block in blocks:
        if not n:
            meta = (
                block.case_tag, block.k, block.c, block.period,
                block.drift_per_period, block.asymptote_times,
            )
            t_first = block.t[0]
        n += block.t.size
        t_last = block.t[-1]
        z = block.z
        capped = z[z <= Z_DISPLAY_CAP / block.k] if block.asymptote_times else z[:0]
        n_capped += capped.size
        lows.append((np.min(block.x), np.min(z), np.min(capped, initial=np.inf)))
        highs.append((np.max(block.x), np.max(z), np.max(capped, initial=-np.inf)))
    lo, hi = np.min(lows, axis=0).tolist(), np.max(highs, axis=0).tolist()
    plotted = 2 if n_capped >= 2 else 1
    return Survey(
        blocks, *meta, n, (float(t_first), float(t_last)), (lo[0], hi[0]),
        (lo[1], hi[1]), (lo[plotted], hi[plotted]),
    )


def _csv_rows(series: TrajectorySeries, first: bool) -> Iterator[str]:
    for piece in _slices(series.t.size, len(SAMPLE_COLUMNS)):
        block = np.stack(
            [getattr(series, name)[piece] for name in SAMPLE_COLUMNS], axis=1
        )
        yield _decimal_text(block, "%.17g", ",,,,\n")


CSV_LAYOUT: Layout = (",".join(SAMPLE_COLUMNS) + "\n", _csv_rows, "")


def trajectory_csv(series: TrajectorySeries) -> str:
    return "".join(_pieces((series,), CSV_LAYOUT))


def json_pieces(s: Survey) -> Iterator[str]:
    """The document json.dumps(indent=2) writes for metadata and samples.

    Only the metadata goes through json.dumps.  The sample arrays are
    laid out here, column by column, each a pass over the blocks: each
    slice of a column is written by _decimal_text in json's float text,
    one value per indented line.
    """
    meta = {
        "case": s.case_tag,
        "k": s.k,
        "c": s.c,
        "n_samples": s.n_samples,
        "t_start": s.t_range[0],
        "t_end": s.t_range[1],
        "period": s.period,
        "drift_per_period": s.drift_per_period,
        "asymptote_times": (
            None
            if s.asymptote_times is None
            else [float(v) for v in s.asymptote_times]
        ),
    }
    head = json.dumps({"metadata": meta}, indent=2)[: -len("\n}")]
    yield head + ',\n  "samples": {\n'
    sep = ",\n      "
    for i, name in enumerate(SAMPLE_COLUMNS):
        yield ("" if i == 0 else ",\n") + f'    "{name}": [\n      '
        lead = ""
        for series in s.blocks:
            column = getattr(series, name)
            for piece in _slices(column.size, 1):
                # Each value ends in the separator; the piece's last one is cut.
                text = _decimal_text(column[piece, None], "repr", (sep,))
                yield lead + text[: -len(sep)]
                lead = sep
        yield "\n    ]"
    yield "\n  }\n}\n"


def trajectory_json(series: TrajectorySeries) -> str:
    return "".join(json_pieces(survey((series,))))


def summary_text(s: Survey) -> str:
    """Human-readable metadata block printed alongside the sample file."""
    lines = [
        f"case: {s.case_tag}",
        f"samples: {s.n_samples}",
        "t: [%.10g, %.10g]" % s.t_range,
        "x: [%.10g, %.10g]" % s.x_range,
        "z: [%.10g, %.10g]" % s.z_range,
    ]
    if s.period is not None:
        lines.append(f"period: {s.period:.10g}")
    if s.drift_per_period is not None:
        lines.append(f"drift per period: {s.drift_per_period:.10g}")
    if s.asymptote_times:
        marks = ", ".join(f"{t:.10g}" for t in s.asymptote_times)
        lines.append(f"asymptote times: {marks}")
    return "\n".join(lines) + "\n"


def trajectory_summary(series: TrajectorySeries) -> str:
    return summary_text(survey((series,)))


def svg_layout(
    s: Survey,
    asymptote_x: Sequence[float] = (),
    title: str | None = None,
) -> Layout:
    """The standalone SVG document drawing the (x, z) path, as a layout.

    The ranges, ticks and frame come from the survey when this is called;
    the polyline points are mapped and formatted one slice at a time as
    each block is read.  A path whose plotted x or z range cannot be
    drawn (an infinite or NaN coordinate) raises ContractViolationError
    at the call; CSV and JSON still emit such a path.
    """
    x_lo, x_hi = _padded_range(
        min((s.x_range[0], *asymptote_x)), max((s.x_range[1], *asymptote_x))
    )
    z_lo, z_hi = _padded_range(*s.z_plot_range)

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

    def points(series: TrajectorySeries, first: bool) -> Iterator[str]:
        for j, piece in enumerate(_slices(series.x.size, 2)):
            # Each pair ends in a space; the piece's last one is cut, and
            # every piece but the path's first starts with one.
            pairs = np.stack([sx(series.x[piece]), sy(series.z[piece])], axis=1)
            lead = "" if first and j == 0 else " "
            yield lead + _decimal_text(pairs, "%.3f", ", ")[:-1]

    return "\n".join(out), points, "\n".join(tail) + "\n"


def trajectory_svg(
    series: TrajectorySeries,
    asymptote_x: Sequence[float] = (),
    title: str | None = None,
) -> str:
    layout = svg_layout(survey((series,)), asymptote_x, title)
    return "".join(_pieces((series,), layout))


def one_pass(
    blocks: Iterable[TrajectorySeries], *layouts: Layout
) -> Iterator[tuple[str, ...]]:
    """Rows of one piece per layout from one pass over blocks: the heads,
    then each block's pieces side by side ("" where a layout has no more
    for the block), then the tails."""
    yield tuple(head for head, _, _ in layouts)
    for i, series in enumerate(blocks):
        bodies = (body(series, i == 0) for _, body, _ in layouts)
        yield from itertools.zip_longest(*bodies, fillvalue="")
    yield tuple(tail for _, _, tail in layouts)


def _pieces(blocks: Iterable[TrajectorySeries], layout: Layout) -> Iterator[str]:
    return itertools.chain.from_iterable(one_pass(blocks, layout))


def trajectory_rows(
    s: Survey, fmt: str, svg: Layout | None = None
) -> Iterator[tuple[str, ...]]:
    """The sample file in format fmt ("csv" or "json") and, given its
    layout, the SVG, as rows of one piece per target for emit_rows.

    CSV and SVG share one pass over the blocks, so each block is read,
    and evaluated or assembled, once for both.  JSON reads the blocks
    once per column; its SVG takes one pass of its own alongside.
    """
    svgs = () if svg is None else (svg,)
    if fmt == "csv":
        return one_pass(s.blocks, CSV_LAYOUT, *svgs)
    extra = (_pieces(s.blocks, layout) for layout in svgs)
    return itertools.zip_longest(json_pieces(s), *extra, fillvalue="")


def emit_rows(paths: Sequence[str | None], rows: Iterable[Sequence[str]]) -> None:
    """Write rows of pieces, piece j of each row to paths[j]: a file with
    \\n newlines, or stdout for None or "-".

    The first row is made before any file is opened, so an emitter that
    rejects its input leaves no file behind.
    """
    rows = iter(rows)
    first = next(rows, ("",) * len(paths))
    with contextlib.ExitStack() as stack:
        sinks = [
            sys.stdout
            if path is None or path == "-"
            else stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
            for path in paths
        ]
        for row in itertools.chain((first,), rows):
            for sink, piece in zip(sinks, row):
                sink.write(piece)


def emit_text(path: str | None, text: str | Iterable[str]) -> None:
    """Write a text, or its pieces in turn, as emit_rows writes one target."""
    emit_rows((path,), zip((text,) if isinstance(text, str) else text))


def _slices(n: int, width: int) -> Iterator[slice]:
    """Consecutive slices covering range(n), each one writer block of rows
    of width values."""
    step = _BLOCK_VALUES // width
    return (slice(i, i + step) for i in range(0, n, step))


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
# integers.  json's shortest round-trip digits are picked among such
# roundings at 15, 16 and 17 digits (_repr_planes).  The text is laid out
# in a uint8 matrix, one plane per output column, with NUL bytes as
# padding that bytes.translate deletes.  A row holding a value whose
# rounding is in doubt, or whose text this layout does not cover, is
# written a value at a time by the % operator or json.dumps, so every
# byte is the one they write.

# Values per block, which is one output piece (_slices): the planes of
# 1024 CSV rows take about 1 MB.
_BLOCK_VALUES = 5120
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
# the %g exponent X in -5..16 (-5 only to be flagged), 3 for %.3f, and
# 15 - X or 16 - X with repr's X in -4..15.
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
    """The planes of "%.17g" % v for 1-d v, and the values they do not
    cover: zero, non-finite, the exponent notation %g uses outside
    X = -4..16, and roundings in doubt."""
    a = np.abs(v)
    with np.errstate(invalid="ignore"):
        ok = (a >= 1e-5) & (a < 1e17)
    a[~ok] = 1.0
    # log10 may misjudge X by one next to a power of ten, and the digits
    # may round up to one: D then falls outside 10^16..10^17.
    X = np.clip(np.floor(np.log10(a)), -5, 16).astype(np.int8)
    D, doubt = _round_scaled(a, 16 - X)
    bad = ~ok | doubt | (D < 10**16) | (D >= 10**17) | (X < -4)
    return _fixed_planes(v, D, X, bad, 0), bad


def _repr_planes(v):
    """The planes of json's float text for 1-d v: repr's shortest
    round-trip digits, in the fixed notation repr uses for X = -4..15,
    with ".0" on integral values.  Also the values they do not cover:
    zero, non-finite, exponent notation, and roundings in doubt.

    The digits are those of the first of the correctly rounded 15-, 16-
    and 17-digit candidates that reads back as v, trailing zeros cut
    (Steele & White 1990; Adams 2018).  A candidate C·10^-s with C below
    2^54, and even from 2^53 on, reads back as the one IEEE division
    C / 10^s (Clinger 1990).  Two facts spare the rest:

    * 15-digit candidates lie at least 4.5 ulp apart, so one reads back
      only within a ninth of their spacing from v.  Rounding the 16-digit
      candidate half up finds it, even where that rounding is in doubt.
    * A 16-digit candidate of 2^53 or more is within half an ulp of v
      unless its rounding is a tie.

    Taking the nearest candidate of each length, and the second fact,
    need v's rounding interval to be symmetric, which it is except at a
    power of two; but each power of two in 2^-13..2^53 is a decimal of at
    most 16 digits, which its 16-digit candidate then is.

    A 16- or 17-digit rounding in doubt may be a tie between two
    candidates that both read back, such as 757559187828183.2 and .3 for
    757559187828183.25; repr's pick is left to the fallback."""
    a = np.abs(v)
    with np.errstate(invalid="ignore"):
        ok = (a >= 1e-4) & (a < 1e16)
    a[~ok] = 1.0
    X = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.int8)
    D17, doubt17 = _round_scaled(a, 16 - X)
    s16 = 15 - X
    D16, doubt16 = _round_scaled(a, s16)
    # The 15-digit candidate, written with 16 digits.
    C15 = (D16 + 5) // 10 * 10
    scale = _POWERS.take(s16)
    short = C15 / scale == a
    reads16 = (D16 >= 2**53) | (D16 / scale == a)
    D = np.where(short, C15 * 10, np.where(reads16, D16 * 10, D17))
    # As in _g17_planes, a misjudged X leaves D17 outside 10^16..10^17.
    bad = ~ok | (D17 < 10**16) | (D17 >= 10**17)
    bad |= ~short & (doubt16 | ~reads16 & doubt17)
    return _fixed_planes(v, D, X, bad, 1), bad


def _fixed_planes(v, D, X, bad, fraction_min):
    """The planes of the fixed notation of 1-d v (sign, "0.000" lead, 17
    digits with the point among them) from its 17 digits D and decimal
    exponent X: the trailing zeros after the point are cut, but
    fraction_min digits stay after it.  D is overwritten where bad."""
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
    # 16 - X digits follow the point.
    keep = 17 - np.minimum(tz, 16 - fraction_min - X)
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
    return planes


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


# Each spec's planes and the per-value text of the values they do not
# cover: json.dumps of a float is float.__repr__, or NaN, Infinity or
# -Infinity.
_SPECS = {
    "%.17g": (_g17_planes, "%.17g".__mod__),
    "%.3f": (_f3_planes, "%.3f".__mod__),
    "repr": (_repr_planes, json.dumps),
}


def _decimal_text(block: np.ndarray, spec: str, seps: Sequence[str]) -> str:
    """The text of each value of a 2-d float block, value j of each row
    followed by the string seps[j]: "%.17g" or "%.3f" formatting, or
    "repr" for json's float text, byte for byte, without a call per
    value.  Its working memory grows with the block, so the emitters
    pass one _slices block (_BLOCK_VALUES values) at a time."""
    planes_of, text_of = _SPECS[spec]
    codes = [sep.encode() for sep in seps]
    width = max(map(len, codes))
    # Separators padded with NULs to one width, one row per column.
    sep_codes = np.frombuffer(b"".join(c.ljust(width, b"\0") for c in codes), np.uint8)
    sep_codes = sep_codes.reshape(len(codes), width)
    rows, cols = block.shape
    planes, bad = planes_of(block.ravel())
    matrix = np.empty((rows, cols, len(planes) + width), np.uint8)
    matrix[..., : len(planes)] = planes.T.reshape(rows, cols, -1)
    matrix[..., len(planes) :] = sep_codes
    out = []
    done = 0
    for r in np.flatnonzero(bad.reshape(rows, cols).any(axis=1)).tolist():
        if r > done:
            out.append(matrix[done:r].tobytes().translate(None, b"\0").decode())
        out.append("".join(text_of(v) + sep for v, sep in zip(block[r].tolist(), seps)))
        done = r + 1
    out.append(matrix[done:].tobytes().translate(None, b"\0").decode())
    return "".join(out)
