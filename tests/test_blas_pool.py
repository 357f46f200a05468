"""The command line's one-thread OpenBLAS pool.

`cli.main()` sets OPENBLAS_NUM_THREADS=1 unless the caller already set
it, before any command imports numpy.  In-process `main()` calls
elsewhere in the suite set it in this process too, so each check runs a
fresh interpreter whose environment drops the variable or names its
value.  The thread counts assume numpy's BLAS is OpenBLAS, as in numpy's
Linux wheels.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from conftest import cli_env


def run_child(args: list[str], threads: str | None) -> subprocess.CompletedProcess:
    """Run `python *args` with OPENBLAS_NUM_THREADS unset or set to threads."""
    env = cli_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run(
        [sys.executable, *args], capture_output=True, timeout=120, env=env
    )


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Runs one trajectory command through main(), then prints the process's
# thread count and the variable main() left on the last line.
_THREADS = """\
import os, sys
from deepwave.cli import main
try:
    main(["trajectory", "--samples", "3", "--out", sys.argv[1]])
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
"""


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or _usable_cpus() < 2,
    reason="needs /proc and at least two CPUs",
)
@pytest.mark.parametrize(
    ("threads", "expected"), [(None, "1 1"), ("2", "2 2")], ids=["unset", "caller-set"]
)
def test_command_runs_with_the_callers_pool_or_one_thread(tmp_path, threads, expected):
    proc = run_child(["-c", _THREADS, str(tmp_path / "out.csv")], threads)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines()[-1] == expected


def test_import_leaves_the_environment_alone():
    proc = run_child(
        [
            "-c",
            "import os; before = dict(os.environ); import deepwave, deepwave.cli; "
            "assert dict(os.environ) == before; "
            "assert 'OPENBLAS_NUM_THREADS' not in os.environ",
        ],
        None,
    )
    assert proc.returncode == 0, proc.stderr


def test_validate_output_does_not_depend_on_the_thread_count():
    """The blow-up time's quadrature nodes come from an eigenvalue solve,
    the one BLAS call deepwave makes: its bits must not follow the pool."""
    args = ["-m", "deepwave", "validate", "--k", "4", "--beta", "1"]
    one, two = run_child(args, "1"), run_child(args, "2")
    assert one.returncode == two.returncode == 0, (one.stderr, two.stderr)
    assert one.stdout == two.stdout
