"""What each entry point loads.

`import deepwave` loads no submodule: every public name imports its
module on first use.  The CLI imports each command's modules inside the
command, so `--help`, `dispersion`, `stagnation` and `field` run
without numpy.  Each import-surface check runs in a fresh interpreter.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

import deepwave
from conftest import cli_env

# Runs one snippet, which may end in SystemExit(0), then prints the
# loaded module names on the last line of stdout.
_PROBE = """\
import sys
try:
    {code}
except SystemExit as exc:
    assert exc.code in (None, 0), exc.code
sys.stdout.write("\\n" + " ".join(sorted(sys.modules)))
"""


def modules_after(code: str) -> set[str]:
    """Names in sys.modules after a fresh interpreter runs code."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(code=code)],
        capture_output=True,
        text=True,
        timeout=60,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def run_main(*argv: str) -> str:
    return f"from deepwave.cli import main; main({list(argv)!r})"


@pytest.mark.parametrize(
    "code",
    [
        "import deepwave",
        "import deepwave.cli",
        run_main("--help"),
        run_main("dispersion", "--k", "1,2,4"),
        run_main("stagnation", "--k", "4", "--beta", "1"),
        run_main("field", "--k", "1", "--x", "0.3", "--z", "-0.5", "--t", "1.0"),
    ],
)
def test_runs_without_numpy(code):
    loaded = modules_after(code)
    assert "deepwave" in loaded
    assert "numpy" not in loaded


def test_bare_import_loads_no_submodule():
    loaded = modules_after("import deepwave")
    assert not [name for name in loaded if name.startswith("deepwave.")]


def test_library_paths_load_no_config_module():
    """The time-window rule lives in trajectories, so the series and the
    oracles run without the scenario module that resolves config keys."""
    loaded = modules_after("import deepwave.trajectories, deepwave.ode_oracle")
    assert {"deepwave.trajectories", "deepwave.ode_oracle"} <= loaded
    assert "deepwave.scenario" not in loaded


def test_elliptic_trajectory_loads_only_what_it_runs(tmp_path):
    """Also with --svg: the decimal writer behind CSV and SVG numbers
    builds its powers of ten from ints, so neither fractions nor decimal
    is imported."""
    svg = tmp_path / "path.svg"
    runs = [
        ["trajectory", "--k", "4", "--samples", "20"],
        ["trajectory", "--k", "4", "--samples", "20",
         "--out", str(tmp_path / "path.csv"), "--svg", str(svg)],
    ]
    for argv in runs:
        loaded = modules_after(run_main(*argv))
        assert {"numpy", "deepwave.trajectories", "deepwave.emitters"} <= loaded
        for name in ("deepwave.validation", "deepwave.ode_oracle", "deepwave.stagnation",
                     "fractions", "decimal"):
            assert name not in loaded, name
    assert svg.read_text().endswith("</svg>\n")


def test_submodule_import_through_the_package():
    loaded = modules_after(
        "from deepwave import ode_oracle, case1_Z; "
        "assert ode_oracle.__name__ == 'deepwave.ode_oracle'; "
        "assert case1_Z.__module__ == 'deepwave.trajectories'"
    )
    assert {"deepwave.ode_oracle", "deepwave.trajectories"} <= loaded


def test_every_public_name_resolves():
    for name in deepwave.__all__:
        getattr(deepwave, name)
    assert set(deepwave.__all__) <= set(dir(deepwave))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from deepwave import *", namespace)
    for name in deepwave.__all__:
        assert namespace[name] is getattr(deepwave, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        deepwave.no_such_name
