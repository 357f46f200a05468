"""Contract fuzz of the command line.

Hypothesis draws flag sets for all five subcommands, with out-of-domain
numbers (+-inf, nan, +-1e308, 0, negatives), every --solution and
--format value plus an invalid one, and config files holding bad lines.
Each set runs in process through ``cli.main`` and must:

* exit 0, 2, 3 or 4, never with a traceback or a Python warning;
* on exit 3, print exactly one stderr line ``error:<code>: ...`` whose
  code is one the README documents;
* give byte-identical stdout, stderr and files when rerun;
* on an exit-0 ``trajectory``, write only finite samples.

Run time is capped, not the domain: --samples stays below 300 (every
sample is formatted twice per example), and ``validate``, whose battery
runs eleven integrations, gets the fewest examples.  The whole file
takes about 13 s on a 2-core host.  One more trajectory test draws only
finite flags and a valid wave, so most of its runs exit 0 and the
finite-samples assertion sees long and extreme windows.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepwave.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
_EXIT_CODES = README.read_text(encoding="utf-8").split("### Exit codes")[1]
DOCUMENTED_CODES = set(
    re.findall(r"`([a-z]+(?:-[a-z]+)*)`", _EXIT_CODES.split("\n## ")[0])
)

EXTREMES = (math.inf, -math.inf, math.nan, 1e308, -1e308, 0.0, -0.0, -1.0)
numbers = st.one_of(
    st.sampled_from(EXTREMES),
    st.floats(0.01, 20.0),
    st.floats(-20.0, 20.0),
    st.floats(1e-6, 1e300).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(allow_nan=True, allow_infinity=True),
).map(repr)

VALUES = {
    "k": numbers,
    "a": numbers,
    "g": numbers,
    "beta": numbers,
    "direction": st.sampled_from(["1", "-1"]),
    "p0": numbers,
    "t_start": numbers,
    "t_end": numbers,
    "samples": st.integers(-2, 299).map(str),
    "solution": st.sampled_from(["elliptic", "peakon", "oracle"]),
    "const1": numbers,
    "const2": numbers,
    "t0": numbers,
    "out": st.sampled_from(["-", "data.out"]),
    "format": st.sampled_from(["csv", "json"]),
    "svg": st.just("path.svg"),
    "z_min": numbers,
    "z_max": numbers,
    "grid": st.integers(-5, 5000).map(str),
    "x": numbers,
    "z": numbers,
    "t": numbers,
}

FLAGS = {
    "trajectory": (
        "k", "a", "g", "beta", "direction", "t_start", "t_end", "samples",
        "solution", "const1", "const2", "t0", "out", "format", "svg",
    ),
    "stagnation": ("k", "a", "g", "beta", "direction", "z_min", "z_max", "grid"),
    "validate": ("k", "a", "g", "beta", "direction"),
    "field": ("k", "a", "g", "direction", "p0", "x", "z", "t"),
}

# Flags click itself rejects (exit 2); a draw adds at most one of them.
USAGE_ERRORS = (
    ("--direction", "0"),
    ("--solution", "spline"),
    ("--format", "yaml"),
    ("--samples", "2.5"),
    ("--k", "frog"),
    ("--bogus", "1"),
)

BAD_LINES = (
    "direction = 2",
    "solution = spline",
    "format = yaml",
    "k 2.0",
    "frequency = 3",
    "k =",
    "k = frog",
    "samples = 2.5",
    "grid = 4096 = 4096",
    "= 1.0",
    "# only a comment",
    "",
)


@st.composite
def config_lines(draw, keys):
    """Config file lines: scenario keys with drawn values, and bad lines."""
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            key = draw(st.sampled_from(keys))
            lines.append(key.replace("_", "-") + " = " + draw(VALUES[key]))
        else:
            lines.append(draw(st.sampled_from(BAD_LINES)))
    return lines


@st.composite
def scenario_args(draw, command):
    """Flags of a scenario command, each left out about two times in
    three, one usage error about one time in four, and maybe a --config
    file."""
    args = []
    for name in FLAGS[command]:
        value = draw(st.one_of(st.none(), st.none(), VALUES[name]))
        if value is not None:
            args += ["--" + name.replace("_", "-"), value]
    none = st.just(())
    args += draw(st.one_of(none, none, none, st.sampled_from(USAGE_ERRORS)))
    lines = draw(st.one_of(st.none(), config_lines(FLAGS[command])))
    return args, lines


def run(argv, lines, workdir):
    """One in-process run inside a fresh directory, where the relative
    file names of the draws land: (exit code, stdout, stderr,
    {file name: bytes}, warning messages)."""
    workdir.mkdir()
    if lines is not None:
        (workdir / "scenario.cfg").write_text("\n".join(lines) + "\n")
        argv = [*argv, "--config", "scenario.cfg"]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(SystemExit) as excinfo:
                    main(argv)
    finally:
        os.chdir(cwd)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    code = excinfo.value.code or 0
    return code, out.getvalue(), err.getvalue(), files, [str(w.message) for w in caught]


def check_contract(command, argv, lines, tmp_path_factory):
    base = tmp_path_factory.mktemp(command)
    first = run(argv, lines, base / "first")
    code, out, err, files, caught = first
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in out + err
    assert caught == []
    if code == 3:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        match = re.match(r"error:([a-z-]+): ", err)
        assert match and match.group(1) in DOCUMENTED_CODES, err
    if command == "trajectory" and code == 0:
        assert_finite_samples(argv, out, files)
    assert run(argv, lines, base / "rerun") == first
    return code


def assert_finite_samples(argv, out, files):
    """Every sample of the data file (or of stdout) is a finite number."""
    text = files["data.out"].decode() if "data.out" in files else out
    if text.startswith("{"):
        columns = json.loads(text)["samples"].values()
        values = [v for column in columns for v in column]
    else:
        rows = text.splitlines()[1:]
        values = [float(v) for row in rows for v in row.split(",")]
    assert values and all(math.isfinite(v) for v in values), argv


@settings(max_examples=240, deadline=None)
@given(st.data())
def test_trajectory_contract(tmp_path_factory, data):
    args, lines = data.draw(scenario_args("trajectory"))
    check_contract("trajectory", ["trajectory", *args], lines, tmp_path_factory)


# Finite flags of every magnitude and a valid wave: most of these runs
# exit 0, so the finite-samples assertion sees long and extreme windows.
finite = st.one_of(
    st.floats(-20.0, 20.0),
    st.floats(1e-6, 1e300).flatmap(lambda v: st.sampled_from([v, -v])),
).map(repr)


@settings(max_examples=120, deadline=None)
@given(
    k=st.floats(0.05, 20.0).map(repr),
    beta=st.floats(-5.0, 5.0).map(repr),
    times=st.lists(
        st.tuples(
            st.sampled_from(["--t-start", "--t-end", "--t0", "--const1", "--const2"]),
            finite,
        ),
        max_size=3,
    ),
    solution=st.sampled_from(["elliptic", "peakon"]),
    tail=st.sampled_from([(), ("--format", "json"), ("--svg", "path.svg")]),
)
def test_trajectory_finite_flags_contract(
    tmp_path_factory, k, beta, times, solution, tail
):
    argv = ["trajectory", "--k", k, "--beta", beta, "--solution", solution,
            "--samples", "50", *(part for pair in times for part in pair), *tail]
    check_contract("trajectory", argv, None, tmp_path_factory)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_stagnation_contract(tmp_path_factory, data):
    args, lines = data.draw(scenario_args("stagnation"))
    check_contract("stagnation", ["stagnation", *args], lines, tmp_path_factory)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_field_contract(tmp_path_factory, data):
    args, lines = data.draw(scenario_args("field"))
    check_contract("field", ["field", *args], lines, tmp_path_factory)


@settings(max_examples=24, deadline=None)
@given(st.data())
def test_validate_contract(tmp_path_factory, data):
    args, lines = data.draw(scenario_args("validate"))
    check_contract("validate", ["validate", *args], lines, tmp_path_factory)


@settings(max_examples=120, deadline=None)
@given(
    k_list=st.lists(numbers, max_size=3).map(",".join) | st.just("a,b"),
    rest=st.lists(
        st.tuples(st.sampled_from(["--g", "--a"]), numbers)
        | st.tuples(st.just("--direction"), st.sampled_from(["1", "-1", "0"])),
        max_size=3,
    ),
)
def test_dispersion_contract(tmp_path_factory, k_list, rest):
    argv = ["dispersion", "--k", k_list, *(part for pair in rest for part in pair)]
    check_contract("dispersion", argv, None, tmp_path_factory)
