"""Smoke tests of the benchmark at tiny sizes (about a minute on 2 cores).

    python3 perfbench/smoke.py          (or: python3 -m pytest perfbench/smoke.py)

Run from the root of a checkout.  For every workload it runs run.py once
untraced and once traced, with 2000-sample trajectories and 24 lib draws,
and checks that

1. the metric names and units printed are exactly those BENCHMARK.json
   declares for that mode;
2. every op passes its correctness check at this commit;
3. the traced in-process replay emits byte-identical outputs to the
   untraced run (the CLI for traj-long and validate-ref, the child
   process for lib-sweep).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 7


def _shrink() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import layers
    import workloads

    workloads.TRAJ_SAMPLES = 2000
    workloads.ORACLE_SAMPLES = 200
    layers.LONG = 2000
    run.LIB_OPS = 24


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    """(result object, run record) of one tiny run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", workload, "--seed", str(SEED),
                         "--seconds", "1", "--trace", str(trace)]) == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    import workloads

    record_path = workloads.WORK / f"{workload}-seed{SEED}-trace{trace}.json"
    return result, json.loads(record_path.read_text(encoding="utf-8"))


def _check_workload(workload: str) -> None:
    _shrink()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    plain, plain_record = _run(workload, 0)
    spanned, spanned_record = _run(workload, 1)
    for result, kind in ((plain, "end_to_end"), (spanned, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared, f"{workload} {kind}: {printed} != {declared}"
        assert result["correct"] and result["failed"] == 0, (workload, result)
        assert result["attempted"] >= 1
    assert plain_record["digests"] == spanned_record["digests"], workload


def test_traj_long() -> None:
    _check_workload("traj-long")


def test_validate_ref() -> None:
    _check_workload("validate-ref")


def test_lib_sweep() -> None:
    _check_workload("lib-sweep")


if __name__ == "__main__":
    for test in (test_traj_long, test_validate_ref, test_lib_sweep):
        test()
        print(f"ok {test.__name__}")
