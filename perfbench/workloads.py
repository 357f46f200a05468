"""The three workloads: their seeded inputs, how each op runs, and its check.

traj-long and validate-ref run the CLI, one child process at a time;
lib-sweep runs library calls in one child process (lib_child.py).  All
load is a closed loop with one client: the next op starts only after the
previous one has finished.  Every op is checked outside its timed span.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import re
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import timing
from checks import Scenario

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# The reference scenarios of the README and the test suite.
REFERENCE = {
    "k1": Scenario(k=1.0, a=0.1, beta=1.0),  # case 1, m ~ 0.0039
    "k2": Scenario(k=2.0, a=0.1, beta=-1.0),  # case 1, m ~ 0.0184
    "k4": Scenario(k=4.0, a=0.1, beta=1.0),  # case 2, m ~ 0.953
}

BATTERY_LINE = "11/11 checks passed"
TRAJ_SAMPLES = 100_000  # per traj-long op
ORACLE_SAMPLES = 2000  # the one short oracle path of validate-ref

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DEEPWAVE_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def spawn(launcher, argv: list[str], stdout_path: Path,
          calibrate: bool = True) -> tuple[float, float, int]:
    """Run one child to completion: (latency s, peak RSS MB, exit code)."""
    return launcher.run(argv, str(stdout_path), str(stdout_path.with_suffix(".stderr")),
                        child_env(), str(ROOT), calibrate)


# --------------------------------------------------------------------------
# CLI ops


@dataclass(frozen=True)
class Op:
    label: str
    command: str  # trajectory | validate | stagnation
    params: dict  # scenario overrides, output paths excluded
    svg: bool = False

    def scenario(self) -> Scenario:
        p = self.params
        return Scenario(k=p["k"], a=p["a"], beta=p["beta"], direction=p["direction"])

    def paths(self, outdir: Path) -> dict:
        if self.command != "trajectory":
            return {}
        paths = {"out": outdir / f"{self.label}.{self.params['format']}"}
        if self.svg:
            paths["svg"] = outdir / f"{self.label}.svg"
        return paths

    def overrides(self, outdir: Path) -> dict:
        return {**self.params, **{k: str(v) for k, v in self.paths(outdir).items()}}

    def argv(self, outdir: Path) -> list[str]:
        args = [sys.executable, "-m", "deepwave", self.command]
        for key, value in self.overrides(outdir).items():
            text = repr(value) if isinstance(value, float) else str(value)
            args += ["--" + key.replace("_", "-"), text]
        return args


def _ref(name: str) -> dict:
    sc = REFERENCE[name]
    return {"k": sc.k, "a": sc.a, "g": sc.g, "beta": sc.beta, "direction": sc.direction}


def traj_long_ops(seed: int) -> list[Op]:
    """1e5-sample CLI trajectories; the seed moves each time window."""
    rng = random.Random(f"traj-long:{seed}")

    def traj(ref: str, fmt: str, **extra) -> dict:
        t_start = round(rng.uniform(0.0, 2.0), 6)
        return {**_ref(ref), "t_start": t_start, "t_end": t_start + 10.0,
                "samples": TRAJ_SAMPLES, "format": fmt, **extra}

    # Four ops cover k1, k2 and k4, CSV and JSON, SVG and peakon; a fifth
    # (k1 CSV) left each op too few runs for a steady op_p50_s on a noisy
    # host.  k2, over half of a pass and the op behind wall_s and
    # op_tail_s, runs first: the time left after the whole passes then
    # buys it a third run before the shorter ops get theirs.
    return [
        Op("k2-csv", "trajectory", traj("k2", "csv")),
        Op("k1-json", "trajectory", traj("k1", "json")),
        Op("k4-csv-svg", "trajectory", traj("k4", "csv"), svg=True),
        Op("k1-peakon-csv", "trajectory", traj("k1", "csv", solution="peakon")),
    ]


def validate_ref_ops(seed: int) -> list[Op]:
    """Battery and stagnation on each reference scenario, one oracle path.

    The seed widens each stagnation window and moves the oracle window.
    """
    rng = random.Random(f"validate-ref:{seed}")
    ops = [Op(f"validate-{n}", "validate", _ref(n)) for n in REFERENCE]
    for n in REFERENCE:
        window = {"z_min": -20.0 - round(rng.uniform(0.0, 1.0), 6),
                  "z_max": 5.0 + round(rng.uniform(0.0, 1.0), 6)}
        ops.append(Op(f"stagnation-{n}", "stagnation", {**_ref(n), **window}))
    t_start = round(rng.uniform(0.0, 2.0), 6)
    ops.append(Op("k1-oracle-csv", "trajectory", {
        **_ref("k1"), "t_start": t_start, "t_end": t_start + 10.0,
        "samples": ORACLE_SAMPLES, "format": "csv", "solution": "oracle"}))
    return ops


def cli_ops(workload: str, seed: int) -> list[Op]:
    return traj_long_ops(seed) if workload == "traj-long" else validate_ref_ops(seed)


@dataclass
class OpResult:
    label: str
    latency: float
    rss_mb: float
    samples: int
    problems: list[str]
    digests: dict = field(default_factory=dict)


def _subsample(n: int) -> np.ndarray:
    return np.unique(np.linspace(0, max(n - 1, 0), 97).astype(int))


def _read_rows(path: Path, fmt: str) -> tuple[int, dict, list[str]]:
    """(row count, columns at the fixed subsample, problems) of a data file."""
    text = path.read_text(encoding="utf-8")
    names = ("t", "x", "z", "X", "Z")
    if fmt == "csv":
        lines = text.split("\n")
        if lines[0] != "t,x,z,X,Z" or lines[-1] != "":
            return 0, {}, ["malformed CSV header or ending"]
        rows = lines[1:-1]
        idx = _subsample(len(rows))
        table = np.array([[float(v) for v in rows[i].split(",")] for i in idx])
        return len(rows), dict(zip(names, table.T)), []
    payload = json.loads(text)
    samples = payload["samples"]
    n = len(samples["t"])
    problems = [] if payload["metadata"]["n_samples"] == n else ["metadata n_samples mismatch"]
    idx = _subsample(n)
    return n, {name: np.asarray(samples[name])[idx] for name in names}, problems


def check_trajectory(op: Op, outdir: Path, stdout: str) -> tuple[int, list[str], dict]:
    """(rows emitted, problems, digests) of one trajectory op's outputs."""
    p = op.params
    paths = op.paths(outdir)
    sc = op.scenario()
    n, cols, problems = _read_rows(paths["out"], p["format"])
    if not cols:
        return n, problems, {}
    solution = p.get("solution", "elliptic")
    if solution == "elliptic":
        red = checks.reduction(sc)
        lo, hi = checks.expected_rows(red, p["t_start"], p["t_end"], p["samples"])
        if red.case == 1:
            grid = np.linspace(p["t_start"], p["t_end"], p["samples"])[_subsample(n)]
            if n == p["samples"] and np.any(cols["t"] != grid):
                problems.append("t column is not the requested grid")
        if not lo <= n <= hi:
            problems.append(f"{n} rows, expected {lo}..{hi}")
        problems += checks.check_elliptic_rows(sc, red, cols["t"], cols["X"], cols["Z"])
    else:
        if n != p["samples"]:
            problems.append(f"{n} rows, expected {p['samples']}")
        if solution == "peakon":
            problems += checks.check_peakon_rows(
                sc, math.pi / (2.0 * sc.k), 1.0, cols["t"], cols["x"], cols["X"], cols["Z"]
            )
        else:
            problems += checks.check_oracle_rows(sc, cols["X"], cols["Z"])
    if f"samples: {n}\n" not in stdout:
        problems.append("summary sample count does not match the data file")
    if "svg" in paths:
        svg = paths["svg"].read_text(encoding="utf-8")
        points = re.search(r'<polyline [^>]*points="([^"]*)"', svg)
        if not (svg.startswith("<svg ") and svg.endswith("</svg>\n") and points):
            problems.append("malformed SVG")
        elif len(points.group(1).split()) != n:
            problems.append("SVG polyline point count differs from the data rows")
    return n, problems, output_digests(op, outdir, stdout)


def output_digests(op: Op, outdir: Path, stdout: str) -> dict:
    """SHA-256 of an op's stdout and output files."""
    digests = {"stdout": sha256(stdout.encode())}
    for name, path in op.paths(outdir).items():
        digests[name] = sha256(path.read_bytes())
    return digests


_LEVEL = re.compile(r"Z\* =\s+(\S+)\s+branch=(\w+)\s+residual=(\S+)(  tangency)?$")


def check_text(op: Op, rc: int, stdout: str) -> list[str]:
    """Checks of the validate and stagnation reports."""
    if rc != 0:
        return [f"exit code {rc}"]
    lines = stdout.splitlines()
    if op.command == "validate":
        return [] if lines and lines[-1] == BATTERY_LINE else ["battery did not pass 11/11"]
    levels = []
    for line in lines[1:]:
        m = _LEVEL.search(line)
        if not m:
            return [f"unparsed stagnation line {line!r}"]
        levels.append((float(m.group(1)), float(m.group(3)), bool(m.group(4))))
    if not lines or f": {len(levels)} found" not in lines[0]:
        return ["stagnation header count differs from the listed levels"]
    p = op.params
    return checks.check_stagnation(op.scenario(), p["z_min"], p["z_max"], levels)


def run_cli_op(launcher, op: Op, outdir: Path, first: OpResult | None = None) -> OpResult:
    """Run and check one CLI op.  A repeat of an op whose first run passed
    is checked by comparing its outputs byte for byte with the first run's
    (deepwave is deterministic), which leaves more of the run for ops."""
    stdout_path = outdir / f"{op.label}.stdout"
    latency, rss, rc = spawn(launcher, op.argv(outdir), stdout_path)
    failed = rc not in (0, 4)  # 4: validate ran and reported a failing check
    text = stdout_path.with_suffix(".stderr" if failed else ".stdout").read_text(encoding="utf-8")
    if first is None or first.problems or failed:
        return finish_op(op, outdir, latency, rss, rc, text)
    digests = output_digests(op, outdir, text)
    problems = [] if digests == first.digests else ["output differs from the op's first run"]
    return OpResult(op.label, latency, rss, first.samples, problems, digests)


def finish_op(op, outdir, latency, rss, rc, stdout) -> OpResult:
    """Check one op's outputs.  An op that exited with an error passes its
    error text as stdout."""
    if rc not in (0, 4):
        return OpResult(op.label, latency, rss, 0, [f"exit code {rc}: {stdout.strip()[-300:]}"])
    if op.command == "trajectory":
        n, problems, digests = check_trajectory(op, outdir, stdout)
        return OpResult(op.label, latency, rss, n, problems, digests)
    return OpResult(op.label, latency, rss, 0, check_text(op, rc, stdout),
                    {"stdout": sha256(stdout.encode())})


def run_cli_workload(launcher, ops: list[Op], seconds: float) -> list[list[OpResult]]:
    """Runs of each op, in order, for about seconds: timing.MIN_PASSES
    whole passes, then op by op while the next op's mean latency so far
    still fits."""
    outdir = WORK / "cli"
    outdir.mkdir(parents=True, exist_ok=True)
    runs: list[list[OpResult]] = [[] for _ in ops]
    started = time.perf_counter()
    for n in itertools.count():
        i = n % len(ops)
        if n >= timing.MIN_PASSES * len(ops) and not timing.fits(
            time.perf_counter() - started, statistics.fmean(r.latency for r in runs[i]), seconds
        ):
            return runs
        runs[i].append(run_cli_op(launcher, ops[i], outdir, runs[i][0] if runs[i] else None))


def replay_cli_pass(ops: list[Op], tr, outdir: Path) -> tuple[float, list[OpResult]]:
    """One in-process pass of the CLI ops; returns (pass seconds, checked ops)."""
    import ops as bodies

    outdir.mkdir(parents=True, exist_ok=True)
    raw = []
    started = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        with tr.op(op.label):
            overrides = op.overrides(outdir)
            try:
                if op.command == "trajectory":
                    rc, stdout = 0, bodies.replay_trajectory(overrides, tr)
                elif op.command == "validate":
                    rc, stdout = bodies.replay_validate(overrides, tr)
                else:
                    rc, stdout = 0, bodies.replay_stagnation(overrides, tr)
            except Exception as exc:  # a raising op is a failed op, not a failed run
                rc, stdout = 3, f"{type(exc).__name__}: {exc}"
        raw.append((op, time.perf_counter() - t0, rc, stdout))
    elapsed = time.perf_counter() - started
    return elapsed, [finish_op(op, outdir, lat, 0.0, rc, out) for op, lat, rc, out in raw]


# --------------------------------------------------------------------------
# lib-sweep

LIB_SAMPLES = 512
LIB_WINDOW = (-20.0, 5.0)  # solve_stagnation's default search window
LIB_SCAN = 10_001  # dense-scan points per lib-sweep check, 2.5x the solver grid
DRAWS_PER_WAVE = 8
MIN_LEVEL_GAP = 0.05  # a 4096-point grid cannot separate closer levels of one branch


def _m_grid(sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """(discriminant ratio, squared modulus) of the cubic at each beta of the
    array sc.beta.  Only picks inputs; the checks use checks.reduction."""
    a3, a2, a1, a0 = checks.cubic(sc)
    shift = a2 / (3.0 * a3)
    p = (3.0 * a3 * a1 - a2 * a2) / (3.0 * a3 * a3)
    q = (2.0 * a2 ** 3 - 9.0 * a3 * a2 * a1 + 27.0 * a3 * a3 * a0) / (27.0 * a3 ** 3)
    ratio = checks.discriminant_ratio(sc)
    with np.errstate(invalid="ignore", divide="ignore"):
        # Three real roots (trigonometric form) where the ratio is positive.
        r = 2.0 * np.sqrt(-p / 3.0)
        theta = np.arccos(np.clip(3.0 * q / (p * r), -1.0, 1.0))
        roots = np.sort([r * np.cos(theta / 3.0 - 2.0 * np.pi * j / 3.0) for j in range(3)], axis=0)
        m1 = (roots[1] - roots[0]) / (roots[2] - roots[0])
        # One real root (Cardano) and the deflated quadratic elsewhere.
        s = np.sqrt(0.25 * q * q + p ** 3 / 27.0)
        Z0 = np.cbrt(-0.5 * q + s) + np.cbrt(-0.5 * q - s) - shift
        pp = a2 / a3 + Z0
        R = np.sqrt(Z0 * Z0 + pp * Z0 + a1 / a3 + pp * Z0)
        m2 = 0.5 * (1.0 - (Z0 + 0.5 * pp) / R)
    return ratio, np.where(ratio > 0.0, m1, m2)


def _stagnation_ok(sc: Scenario) -> bool:
    """At least one level, none near the window edges, and no branch with two
    levels closer than MIN_LEVEL_GAP or a near-tangency."""
    lo, hi = LIB_WINDOW
    count, branches = checks.stagnation_scan(sc, lo, hi, n=5_001)
    if count == 0:
        return False
    for levels in branches:
        if levels.size and (levels[0] < lo + 0.1 or levels[-1] > hi - 0.1):
            return False
        if levels.size > 1 and np.min(np.diff(levels)) < MIN_LEVEL_GAP:
            return False
    kA, kc = sc.k * abs(sc.A), sc.k * sc.c
    for sigma in (1.0, -1.0):
        if sigma * kc < 0.0:
            Zc = math.log(-sigma * kc / kA)
            f = kA * math.exp(Zc) + sigma * (kc * Zc - sc.beta)
            if lo <= Zc <= hi and abs(f) < 1e-3 * max(1.0, kA * math.exp(Zc)):
                return False
    return True


@dataclass(frozen=True)
class _Wave:
    k: float
    a: float
    direction: int
    betas: np.ndarray
    ratio: np.ndarray
    m: np.ndarray


def _wave(rng: random.Random) -> _Wave:
    """A wave with steepness ka in [0.15, 0.45] and its m(beta) on a grid."""
    k = math.exp(rng.uniform(math.log(0.5), math.log(4.0)))
    a = rng.uniform(0.15, 0.45) / k
    direction = rng.choice((1, -1))
    betas = k * abs(Scenario(k=k, a=a, beta=0.0, direction=direction).A) * np.linspace(
        -30.0, 30.0, 601
    )
    return _Wave(k, a, direction, betas, *_m_grid(Scenario(k, a, betas, direction)))


def _place(rng: random.Random, w: _Wave, case: int, target: float) -> dict | None:
    """A draw on wave w of the given case with m near target, or None when w
    cannot reach target clear of the degenerate band."""
    usable = ((w.ratio > 1e-6) if case == 1 else (w.ratio < -1e-6)) & (w.m > 0.0) & (w.m < 1.0)
    pair = usable[:-1] & usable[1:] & ((w.m[:-1] - target) * (w.m[1:] - target) <= 0.0)
    hits = np.flatnonzero(pair)
    if hits.size == 0:
        return None
    i = int(hits[rng.randrange(hits.size)])
    frac = (target - w.m[i]) / (w.m[i + 1] - w.m[i]) if w.m[i + 1] != w.m[i] else 0.5
    beta = float(w.betas[i] + frac * (w.betas[i + 1] - w.betas[i]))
    sc = Scenario(k=w.k, a=w.a, beta=beta, direction=w.direction)
    red = checks.reduction(sc)
    if red.case != case or abs(checks.discriminant_ratio(sc)) < 1e-6 or not _stagnation_ok(sc):
        return None
    period = (2.0 if case == 1 else 4.0) * red.quarter / red.C
    t_start = rng.uniform(0.0, period)
    points = [
        (rng.uniform(0.0, 2.0 * math.pi / w.k), rng.uniform(-3.0 / w.k, 0.0), rng.uniform(0.0, 10.0))
        for _ in range(4)
    ]
    return {"k": w.k, "a": w.a, "beta": beta, "direction": w.direction, "case": case,
            "m": red.m, "t_start": t_start,
            "t_end": t_start + (2.0 if case == 1 else 2.5) * period,
            "samples": LIB_SAMPLES, "points": points}


def lib_draws(seed: int, count: int) -> list[dict]:
    """count scenarios alternating case 1 and case 2, m stratified over (0, 1).

    Each wave serves up to DRAWS_PER_WAVE of the lowest unfilled slots.  A
    slot that many waves cannot reach gives way to a uniform m, so
    generation always ends.
    """
    rng = random.Random(f"lib-sweep:{seed}")
    strata = (count + 1) // 2
    draws: list[dict | None] = [None] * count
    misses = [0] * count
    open_slots = list(range(count))
    while open_slots:
        wave = _wave(rng)
        for i in open_slots[:DRAWS_PER_WAVE]:
            if misses[i] < 20:
                target = (i // 2 + rng.random()) / strata
            else:
                target = rng.random()
            draws[i] = _place(rng, wave, 1 + i % 2, target)
            misses[i] += draws[i] is None
        open_slots = [i for i in open_slots if draws[i] is None]
    return draws


def check_lib(draw: dict, summary: dict) -> list[str]:
    if "error" in summary:
        return [f"raised {summary['error']}"]
    sc = Scenario(k=draw["k"], a=draw["a"], beta=draw["beta"], direction=draw["direction"])
    red = checks.reduction(sc)
    lo, hi = checks.expected_rows(red, draw["t_start"], draw["t_end"], draw["samples"])
    problems = [] if lo <= summary["n"] <= hi else [f"{summary['n']} rows, expected {lo}..{hi}"]
    rows = summary["rows"]
    problems += checks.check_elliptic_rows(sc, red, rows["t"], rows["X"], rows["Z"])
    problems += checks.check_stagnation(sc, *LIB_WINDOW, summary["levels"], LIB_SCAN)
    for point, values in zip(draw["points"], summary["fields"]):
        problems += checks.check_field(sc, point, values)
    return problems


def run_lib_workload(launcher, draws: list[dict], seconds: float) -> list[list[OpResult]]:
    """Runs of each draw's op: whole passes in one child process, for about
    seconds.  Every op of the first pass is checked against the reference,
    later passes against the first pass."""
    spec, out = WORK / "lib-sweep-spec.json", WORK / "lib-sweep-out.json"
    spec.write_text(json.dumps({"seconds": seconds, "draws": draws}), encoding="utf-8")
    out.unlink(missing_ok=True)
    child = [sys.executable, str(Path(__file__).with_name("lib_child.py")), str(spec), str(out)]
    latency, rss, rc = spawn(launcher, child, WORK / "lib-sweep.stdout", calibrate=False)
    if rc != 0:
        return [[OpResult("lib-sweep", latency, rss, 0, [f"child exit code {rc}"])]]
    result = json.loads(out.read_text(encoding="utf-8"))
    for loop, block_s in result["loops"]:
        launcher.calibration.add(loop, block_s)
    first = [json.loads(text) for text in result["summaries"]]
    problems = [check_lib(d, s) for d, s in zip(draws, first)]
    return [
        [
            OpResult(f"lib-{i}", p["latencies"][i], rss, first[i]["n"],
                     problems[i] + ([] if p["digests"][i] == first[i]["digest"]
                                    else ["output changed between passes"]),
                     {"out": p["digests"][i]})
            for p in result["passes"]
        ]
        for i in range(len(draws))
    ]


def replay_lib_pass(draws: list[dict], tr) -> tuple[float, list[OpResult]]:
    """One in-process lib-sweep pass: (pass seconds, checked ops)."""
    from ops import guarded, lib_op, lib_summary

    raws, latencies = [], []
    started = time.perf_counter()
    for i, draw in enumerate(draws):
        t0 = time.perf_counter()
        with tr.op(f"lib-{i}"):
            raws.append(guarded(lib_op, draw, tr))
        latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - started
    results = []
    for i, (draw, raw, latency) in enumerate(zip(draws, raws, latencies)):
        summary = lib_summary(raw)
        results.append(OpResult(f"lib-{i}", latency, 0.0, summary["n"],
                                check_lib(draw, summary), {"out": summary["digest"]}))
    return elapsed, results
