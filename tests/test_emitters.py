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
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepwave.cli import trajectory_series
from deepwave.emitters import (
    SAMPLE_COLUMNS,
    SVG_HEIGHT,
    SVG_MARGIN,
    SVG_WIDTH,
    Z_DISPLAY_CAP,
    _decimal_text,
    _escape,
    _g17_planes,
    _padded_range,
    _repr_planes,
    _ticks,
    csv_pieces,
    emit_text,
    json_pieces,
    survey,
    svg_pieces,
    trajectory_csv,
    trajectory_json,
    trajectory_svg,
)
from deepwave.errors import ContractViolationError, DeepwaveError
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
    out.extend(_ticks(x_lo, x_hi, sx, vertical=False))
    out.extend(_ticks(z_lo, z_hi, sy, vertical=True))
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
    return trajectory_series(sc)


def _asymptote_window(samples):
    """A k4 window centred on an asymptote: with an odd sample count its
    middle sample falls inside the guard band, so the case-2 series
    drops it."""
    probe, _ = _cli_series(k=4.0, beta=1.0, t_start=0.0, t_end=10.0, samples=11)
    t_a = probe.asymptote_times[1]
    return _cli_series(
        k=4.0, beta=1.0, t_start=t_a - 1.0, t_end=t_a + 1.0, samples=samples
    )


# Sample counts on both sides of each format's pieces: 1024 CSV rows,
# 2560 SVG points and 5120 JSON values (one writer block each).
PIECE_EDGES = (2, 1023, 1024, 1025, 2559, 2560, 2561, 5119, 5120, 5121, 10241)


@pytest.fixture(scope="module")
def cli_series():
    k1 = _cli_series(k=1.0, beta=1.0, t_start=0.4, t_end=10.4, samples=3001)
    k4 = _asymptote_window(3001)
    peakon = _cli_series(
        k=1.0, beta=1.0, t_start=0.0, t_end=10.0, samples=3001, solution="peakon"
    )
    # k2 runs into the Landen stall; the oracle path is RK45 output.
    k2 = _cli_series(k=2.0, beta=-1.0, t_start=0.0, t_end=10.0, samples=3001)
    oracle = _cli_series(
        k=1.0, beta=1.0, t_start=0.4, t_end=10.4, samples=2000, solution="oracle"
    )
    cases = {"k1": k1, "k2": k2, "k4": k4, "peakon": peakon, "oracle": oracle}
    for n in PIECE_EDGES:
        cases[f"k1-n{n}"] = _cli_series(
            k=1.0, beta=1.0, t_start=0.4, t_end=10.4, samples=n
        )
    cases["k4-n8193"] = _asymptote_window(8193)
    return cases


def _edge_series(x_end: float) -> TrajectorySeries:
    # c = 0 makes X = x and Z = z exact at k = 1; at x = X = inf the frame
    # check reads X - k x = nan and passes, so the row can carry an inf.
    # Series times must be finite.
    t = [-0.0, 5e-324, 1e300, 1e308]
    x = [-0.0, 5e-324, 1.0, x_end]
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


@pytest.mark.parametrize(
    "name",
    ["k1", "k2", "k4", "peakon", "oracle", *(f"k1-n{n}" for n in PIECE_EDGES),
     "k4-n8193"],
)
def test_bytes_match_reference(cli_series, name):
    series, marks = cli_series[name]
    if name == "k4-n8193":
        assert 5120 < series.t.size < 8193 and marks
    assert_same_text(trajectory_csv(series), reference_csv(series))
    assert_same_text(trajectory_json(series), reference_json(series))
    title = f"{series.case_tag} path"
    assert_same_text(
        trajectory_svg(series, asymptote_x=marks, title=title),
        reference_svg(series, asymptote_x=marks, title=title),
    )


def test_edge_values_match_reference():
    series = _edge_series(math.inf)
    csv = trajectory_csv(series)
    assert_same_text(csv, reference_csv(series))
    assert "\n-0,-0,4.9406564584124654e-324," in csv and ",inf,1,inf,1\n" in csv
    js = trajectory_json(series)
    assert_same_text(js, reference_json(series))
    assert "Infinity" in js and "5e-324" in js and "-0.0" in js
    samples = json.loads(js)["samples"]
    assert samples["x"][-1] == samples["X"][-1] == math.inf
    # An infinite x cannot be drawn, so the SVG takes a finite last x.
    finite = _edge_series(1e300)
    assert_same_text(
        trajectory_svg(finite, title="a<b"), reference_svg(finite, title="a<b")
    )


@pytest.mark.parametrize(
    "x, z",
    [
        ([0.0, math.inf], [0.0, -0.5]),
        ([0.0, 1.0], [-math.inf, -0.5]),
        ([0.0, math.nan], [0.0, -0.5]),
        ([0.0, 5e-324], [0.0, -0.5]),
    ],
)
def test_svg_rejects_unplottable_range(x, z, tmp_path):
    with np.errstate(invalid="ignore"):
        series = TrajectorySeries(
            k=1.0, c=0.0, t=[0.0, 1.0], x=x, z=z, X=x, Z=z, case_tag="case1"
        )
    with pytest.raises(ContractViolationError):
        trajectory_svg(series)
    # Streamed to a file, the rejection comes before the file is opened.
    target = tmp_path / "path.svg"
    with pytest.raises(ContractViolationError):
        emit_text(str(target), svg_pieces(survey((series,))))
    assert not target.exists()
    # The data formats carry such a series unchanged.
    assert_same_text(trajectory_csv(series), reference_csv(series))
    assert_same_text(trajectory_json(series), reference_json(series))


@pytest.fixture(scope="module")
def k4_long():
    return _cli_series(k=4.0, beta=1.0, t_start=0.0, t_end=20.0, samples=100_000)


@pytest.mark.parametrize(
    "pieces",
    [
        lambda s, _: csv_pieces(s),
        lambda s, _: json_pieces(s),
        lambda s, marks: svg_pieces(s, marks, title="case2 path"),
    ],
    ids=["csv", "json", "svg"],
)
def test_emission_memory_is_bounded(k4_long, tmp_path, pieces):
    """Writing a 10^5-sample series holds about one piece (one writer
    block) at a time, never the whole document (30-37 MB for CSV and
    JSON)."""
    series, marks = k4_long
    target = tmp_path / "out"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        emit_text(str(target), pieces(survey((series,)), marks))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert target.stat().st_size > 10 * series.t.size
    assert peak <= 4e6, f"peak {peak / 1e6:.1f} MB"


def test_single_sample_json_matches_reference():
    series = TrajectorySeries(
        k=2.0, c=0.5, t=[1.5], x=[0.25], z=[-0.125], X=[-1.0], Z=[-0.25],
        case_tag="peakon",
    )
    assert_same_text(trajectory_json(series), reference_json(series))
    assert_same_text(trajectory_csv(series), reference_csv(series))


@settings(max_examples=80, deadline=None)
@given(
    k=st.floats(0.05, 50.0),
    steepness=st.floats(1e-3, 0.3),
    direction=st.sampled_from([1, -1]),
    Z_launch=st.floats(-1.5, 0.3),
    X_launch=st.floats(-math.pi, math.pi),
    solution=st.sampled_from(["elliptic", "peakon"]),
    const2=st.floats(-10.0, 10.0),
    t0=st.floats(-1e3, 1e3),
    t_start=st.floats(-1e3, 1e3),
    width=st.floats(1e-6, 100.0),
    samples=st.integers(2, 64),
)
def test_emitters_finite_or_deepwave_error(
    k, steepness, direction, Z_launch, X_launch, solution, const2, t0, t_start,
    width, samples,
):
    """On case-1, case-2 and peakon draws, the CSV, JSON and SVG of a
    trajectory carry finite numbers only, or the series raises a
    DeepwaveError.  beta comes from a launch state near the surface,
    which gives both elliptic cases in about equal shares."""
    a = steepness / k
    c = direction * math.sqrt(9.8 / k)
    beta = k * c * Z_launch - k * (a * c * k) * math.exp(Z_launch) * math.cos(X_launch)
    try:
        series, marks = _cli_series(
            k=k, a=a, direction=direction, beta=beta, solution=solution,
            const2=const2, t0=t0, t_start=t_start, t_end=t_start + width,
            samples=samples,
        )
        svg = trajectory_svg(series, asymptote_x=marks, title="fuzz")
    except DeepwaveError:
        return
    rows = trajectory_csv(series).splitlines()[1:]
    assert len(rows) == series.t.size
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
    doc = json.loads(trajectory_json(series))
    for name in ("t", "x", "z", "X", "Z"):
        assert all(math.isfinite(v) for v in doc["samples"][name])
    meta = doc["metadata"]
    for key in ("period", "drift_per_period"):
        assert meta[key] is None or math.isfinite(meta[key])
    assert all(math.isfinite(v) for v in meta["asymptote_times"] or ())
    assert "nan" not in svg and "inf" not in svg


# The array decimal writer against the % operator and json.dumps it
# replaces, on at least 10^6 seeded values per format, in chunks so
# neither text is held whole.
WRITER_VALUES = 1_000_000
_WRITER_CHUNK = 100_000


def _random_bits(rng, n):
    """Doubles from uniform random bit patterns: every exponent,
    subnormals, infinities and NaNs included."""
    return rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)


def _near_powers_of_ten(lo, hi):
    """Each power of ten 10^lo..10^hi, the four doubles below it and the
    one above, and the doubles nearest 9.999...95e(k-1) to 9.999...99e(k-1)
    (sixteen nines), whose 17 digits round up to 10^k or stay below it."""
    powers = np.array([float(f"1e{k}") for k in range(lo, hi + 1)])
    below = [powers]
    for _ in range(4):
        below.append(np.nextafter(below[-1], 0.0))
    nines = [
        float(f"9.999999999999999{d}e{k}") for k in range(lo - 1, hi) for d in (5, 8, 9)
    ]
    return np.concatenate([*below, np.nextafter(powers, np.inf), nines])


def _with_neighbours(values, count):
    """values and the count doubles on each side of each."""
    out = [values]
    for toward in (0.0, np.inf):
        step = values
        for _ in range(count):
            step = np.nextafter(step, toward)
            out.append(step)
    return np.concatenate(out)


def _signed(rng, values):
    return values * rng.choice([-1.0, 1.0], size=values.size)


def reference_text(spec, v):
    """What the writer must write for v: spec % v, or for "repr" the text
    json gives v in an array."""
    return json.dumps([v])[1:-1] if spec == "repr" else spec % v


def assert_writer_matches(values, spec):
    for i in range(0, values.size, _WRITER_CHUNK):
        chunk = values[i : i + _WRITER_CHUNK]
        got = _decimal_text(chunk.reshape(-1, 1), spec, "\n")
        want = "".join(reference_text(spec, v) + "\n" for v in chunk.tolist())
        assert_same_text(got, want)


def test_writer_matches_percent_17g():
    rng = np.random.default_rng(20240611)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
    # m/4 for odd m in [4e15, 9e15) ends in an exact 17-digit tie.
    ties = (2 * rng.integers(2 * 10**15, 45 * 10**14, size=2000) + 1) / 4.0
    values = np.concatenate([
        special,
        _signed(rng, _near_powers_of_ten(-300, 300)),
        _signed(rng, ties),
        rng.uniform(-20.0, 20.0, size=200_000),
        _signed(rng, 10.0 ** rng.uniform(-6.0, 18.0, size=300_000)),
        # About 250 draws at each binary exponent; all but the fixed
        # notation range -4..16 go through %.
        _random_bits(rng, WRITER_VALUES // 2),
    ])
    assert values.size >= WRITER_VALUES
    assert_writer_matches(values, "%.17g")


def test_writer_matches_percent_3f():
    rng = np.random.default_rng(20240612)
    bits = _random_bits(rng, 2 * WRITER_VALUES)
    with np.errstate(invalid="ignore"):
        # Up to 1e20, so the expected text stays small; every exponent
        # beyond it is covered by a thousand wider values.
        small = bits[~(np.abs(bits) >= 1e20)][: WRITER_VALUES // 2]
    wide = bits[np.isfinite(bits)][:1000]
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               99999.9995, -99999.9995, 99999.99949999999, 1e5, 1e15]
    # Odd multiples of 1/16 are exact ties at three decimals.
    ties = (2 * rng.integers(-40_000, 40_000, size=20_000) + 1) / 16.0
    values = np.concatenate([
        special,
        [0.0625, -0.0625, 2.0625, -2.0625, 0.1875, 0.9375],
        ties,
        wide,
        _signed(rng, _near_powers_of_ten(-30, 20)),
        rng.uniform(-SVG_HEIGHT, 2.0 * SVG_HEIGHT, size=300_000),
        _signed(rng, 10.0 ** rng.uniform(-5.0, 6.0, size=200_000)),
        small,
    ])
    assert values.size >= WRITER_VALUES
    assert_writer_matches(values, "%.3f")


def test_writer_matches_repr():
    rng = np.random.default_rng(20241020)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e-4, 1e16]
    # Every power of two and the three doubles on each side of it.
    powers = _with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)), 3)

    def odd(lo, hi, n):
        return 2 * rng.integers(lo // 2, hi // 2, size=n) + 1

    # Exact ties: odd m/4 in [1e14, 1e15) and odd m/8 in [1e13, 1e14) at
    # 16 digits, such as 757559187828183.25; odd m/8 in [1e14, 1e15) and
    # odd m/4 in [1e15, 2.25e15) at 17.
    ties = np.concatenate([
        [757559187828183.25],
        odd(4 * 10**14, 4 * 10**15, 20_000) / 4.0,
        odd(8 * 10**13, 8 * 10**14, 20_000) / 8.0,
        odd(8 * 10**14, 8 * 10**15, 20_000) / 8.0,
        odd(4 * 10**15, 9 * 10**15, 20_000) / 4.0,
    ])
    # Leading digits 9.1 to 10.5, whose 16-digit candidate is 2^53 or more.
    high16 = rng.uniform(9.1, 10.5, size=100_000) * 10.0 ** rng.integers(
        -5, 17, size=100_000
    )
    # Both sides of the fixed-notation range, 1e-4 and 1e16.
    edges = np.concatenate([
        _with_neighbours(np.array([1e-4, 1e16]), 40),
        10.0 ** rng.uniform(-4.3, -3.7, size=50_000),
        10.0 ** rng.uniform(15.7, 16.3, size=50_000),
    ])
    # Short decimals, whose 15-digit candidate reads back.
    short = np.rint(rng.uniform(-1e6, 1e6, size=100_000)) / 10.0 ** rng.integers(
        0, 9, size=100_000
    )
    values = np.concatenate([
        special,
        _signed(rng, powers),
        _signed(rng, ties),
        _signed(rng, high16),
        _signed(rng, edges),
        _signed(rng, _near_powers_of_ten(-10, 20)),
        short,
        rng.uniform(-20.0, 20.0, size=100_000),
        _signed(rng, 10.0 ** rng.uniform(-6.0, 18.0, size=100_000)),
        _random_bits(rng, WRITER_VALUES // 2),
    ])
    assert values.size >= WRITER_VALUES
    assert_writer_matches(values, "repr")


def test_writer_rows_and_separators():
    """Value j of each row is followed by seps[j], a string of any
    length; a row with a value that is written one at a time keeps its
    place among the others."""
    block = np.array(
        [[1.5, -0.0, math.nan], [0.3, 12.5, -3.0], [0.0625, 2.5e-7, 123.0], [-7.0, 1.0, 2.0]]
    )
    for spec, seps in (
        ("%.17g", ",;\n"), ("%.3f", ", \n"), ("repr", (", ", ",\n      ", "\n")),
    ):
        want = "".join(
            "".join(reference_text(spec, v) + sep for v, sep in zip(row, seps))
            for row in block.tolist()
        )
        assert _decimal_text(block, spec, seps) == want
    assert _decimal_text(block, "%.17g", ",;\n") == (
        "1.5,-0;nan\n0.29999999999999999,12.5;-3\n"
        "0.0625,2.4999999999999999e-07;123\n-7,1;2\n"
    )
    assert _decimal_text(block, "repr", (", ", ",\n      ", "\n")) == (
        "1.5, -0.0,\n      NaN\n0.3, 12.5,\n      -3.0\n"
        "0.0625, 2.5e-07,\n      123.0\n-7.0, 1.0,\n      2.0\n"
    )


@pytest.mark.parametrize(
    "ref",
    [dict(k=2.0, beta=-1.0), dict(k=1.0, beta=1.0), dict(k=4.0, beta=1.0),
     dict(k=1.0, beta=1.0, solution="peakon")],
    ids=["k2", "k1", "k4", "k1-peakon"],
)
def test_writer_fallback_is_rare_on_reference_series(ref):
    """On the 10^5-sample reference series, at most 0.1 % of the CSV and
    of the JSON values are written one at a time, so the array path is
    what emission runs."""
    series, _ = _cli_series(**ref, t_start=0.0, t_end=10.0, samples=100_000)
    values = np.concatenate([getattr(series, name) for name in SAMPLE_COLUMNS])
    for planes_of in (_g17_planes, _repr_planes):
        _, fallback = planes_of(values)
        assert fallback.sum() <= 1e-3 * values.size, planes_of.__name__
