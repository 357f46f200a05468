"""deepwave benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it runs the workload's
ops for about S seconds and prints the end-to-end metrics, in calibrated
seconds (timing.py);
with --trace 1 it times every layer directly, replays one pass of the
workload in process with and without spans, and prints the per-layer
metrics.  The last stdout line is the result object; the lines before it
carry the run record (environment, op tail, digests, failures).  The
full record, and with --trace 1 the spans, are written under
.perfbench-work/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import timing
from launcher import Launcher

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("traj-long", "validate-ref", "lib-sweep")
LIB_OPS = 1500  # lib-sweep draws; the Landen stall hits ~13.5% of them
SETUP_RUNS = 9
TAIL_BEYOND = 10


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD read straight from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_s(launcher, workloads) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing deepwave.cli, and
    the calibration factor of those runs alone (they run before the ops,
    possibly in another stretch of host speed)."""
    argv = [sys.executable, "-c", "import deepwave.cli"]
    out = workloads.WORK / "setup.stdout"
    wall = statistics.median(
        workloads.spawn(launcher, argv, out)[0] for _ in range(SETUP_RUNS)
    )
    factor = launcher.calibration.factor()
    launcher.calibration = timing.Calibration()
    return wall, factor


def tail(latencies: list[float]) -> tuple[float, dict]:
    """Latency at the highest percentile with at least TAIL_BEYOND ops beyond
    it (nearest rank), or the slowest op when a run has too few ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1) if n > TAIL_BEYOND else n
    return ordered[rank - 1], {"percentile": 100.0 * rank / n, "ops": n, "beyond": n - rank}


def end_to_end(runs) -> tuple[dict, dict]:
    """End-to-end metric values (raw seconds) and the op_tail_s detail from
    the checked runs of each op.

    An op's latency is the mean of its runs (a CLI op runs only two to
    eight times in a run, too few for a steady median), and a pass's wall
    time is the sum of its ops' latencies.
    """
    per_op = [statistics.fmean(r.latency for r in op_runs) for op_runs in runs]
    wall = sum(per_op)
    value, detail = tail(per_op)
    return {
        "wall_s": wall,
        "samples_per_s": sum(op_runs[0].samples for op_runs in runs) / wall,
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": value,
        "peak_rss_mb": max(r.rss_mb for op_runs in runs for r in op_runs),
    }, detail


def jacobi_record(draws: list[dict] | None) -> dict:
    """m and measured us per jacobi_sn_cn_dn call of each scenario a workload
    runs (lib draws, else the reference scenarios), so a change aimed at the
    Landen stall can report the share of each workload it touches."""
    import checks
    import layers
    import workloads

    if draws:
        ms, calls = {f"lib-{i}": d["m"] for i, d in enumerate(draws)}, 16
    else:
        ms = {name: checks.reduction(sc).m for name, sc in workloads.REFERENCE.items()}
        calls = 400
    return {name: {"m": m, "jacobi_us": layers.jacobi_us(m, calls)} for name, m in ms.items()}


def untraced(launcher, workload: str, seed: int, seconds: float, record: dict):
    import workloads

    setup_wall, setup_factor = setup_s(launcher, workloads)
    values = {"setup_s": setup_wall}
    draws = None
    if workload == "lib-sweep":
        draws = workloads.lib_draws(seed, LIB_OPS)
        runs = workloads.run_lib_workload(launcher, draws, seconds)
    else:
        ops = workloads.cli_ops(workload, seed)
        runs = workloads.run_cli_workload(launcher, ops, seconds)
        record["ops_s"] = {op.label: [r.latency for r in op_runs] for op, op_runs in zip(ops, runs)}
    metrics, record["op_tail"] = end_to_end(runs)
    values.update(metrics)
    record["raw"] = dict(values)
    record["loops_s"] = launcher.calibration.samples
    factor = launcher.calibration.factor()
    record["calibration_scale"] = {"setup": setup_factor, "ops": factor}
    values["setup_s"] *= setup_factor
    for name in ("wall_s", "op_p50_s", "op_tail_s"):
        values[name] *= factor
    values["samples_per_s"] /= factor
    results = [r for op_runs in runs for r in op_runs]
    record["runs_per_op"] = [len(op_runs) for op_runs in runs]
    record["digests"] = {op_runs[0].label: op_runs[0].digests for op_runs in runs}
    record["problems"] = {r.label: r.problems for r in results if r.problems}
    record["scenarios"] = jacobi_record(draws)
    return values, len(results), sum(1 for r in results if r.problems)


def traced(launcher, workload: str, seed: int, record: dict):
    import layers
    import workloads
    from tracing import NullTracer, Tracer

    draws = workloads.lib_draws(seed, LIB_OPS)
    values = layers.measure(launcher, draws)
    tracer = Tracer()
    if workload == "lib-sweep":
        plain_s, plain = workloads.replay_lib_pass(draws, NullTracer())
        traced_s, spanned = workloads.replay_lib_pass(draws, tracer)
    else:
        ops = workloads.cli_ops(workload, seed)
        plain_s, plain = workloads.replay_cli_pass(ops, NullTracer(), workloads.WORK / "untraced")
        traced_s, spanned = workloads.replay_cli_pass(ops, tracer, workloads.WORK / "traced")
    for a, b in zip(plain, spanned):
        if a.digests != b.digests:
            b.problems.append("traced and untraced replays emitted different outputs")
    values["trace.traced_pass_s"] = traced_s
    values["trace.overhead_s"] = traced_s - plain_s
    record["untraced_pass_s"] = plain_s
    record["self_time_s"] = tracer.self_time_by_layer()
    trace_path = workloads.WORK / f"trace-{workload}-seed{seed}.json"
    trace_path.write_text(
        json.dumps({"workload": workload, "seed": seed, "spans": tracer.spans,
                    "self_time_s": record["self_time_s"]}),
        encoding="utf-8",
    )
    record["trace_file"] = str(trace_path.relative_to(ROOT))
    results = plain + spanned
    record["digests"] = {r.label: r.digests for r in spanned}
    record["problems"] = {r.label: r.problems for r in results if r.problems}
    return values, len(results), sum(1 for r in results if r.problems)


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="deepwave benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "deepwave" / "__init__.py").is_file():
        print(f"perfbench: no deepwave package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("DEEPWAVE_CONFIG", None)
    record = {"workload": args.workload, "trace": args.trace, "env": environment(args.seed)}
    started = time.perf_counter()
    # Started before numpy and scipy load; see launcher.py.
    with Launcher() as launcher:
        import workloads

        workloads.WORK.mkdir(parents=True, exist_ok=True)
        if args.trace:
            values, attempted, failed = traced(launcher, args.workload, args.seed, record)
        else:
            values, attempted, failed = untraced(
                launcher, args.workload, args.seed, args.seconds, record
            )
    record["run_s"] = time.perf_counter() - started
    units = declared("per_layer" if args.trace else "end_to_end")
    record["failed_ratio"] = failed / attempted
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["metrics"] = metrics
    path = workloads.WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("env " + json.dumps(record["env"]))
    if "op_tail" in record:
        t = record["op_tail"]
        print(f"op_tail_s at p{t['percentile']:.2f} of {t['ops']} ops ({t['beyond']} beyond)")
    if "self_time_s" in record:
        print("self_time_s " + json.dumps(record["self_time_s"]))
        print(f"trace written to {record['trace_file']}")
    digests = record["digests"]
    if len(digests) > 16:
        joined = "".join(d["out"] for d in digests.values())
        digests = {"all-ops": workloads.sha256(joined.encode())}
    print("digests " + json.dumps(digests))
    if "scenarios" in record and len(record["scenarios"]) <= 16:
        print("scenarios " + json.dumps(record["scenarios"]))
    print(f"failed_ratio {record['failed_ratio']:.6g} ({failed}/{attempted})")
    for label, problems in record["problems"].items():
        print(f"FAILED {label}: {'; '.join(problems)}")
    print(f"record written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
