"""End-to-end exercise of the command line surface.

Covers config-file resolution (defaults, file, environment, flags), the
byte formats of the CSV/JSON/SVG emitters, metadata routing between
stdout and stderr, and the exit-code contract: 0 success, 2 usage,
3 domain/contract error, 4 validation failure.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from conftest import cli_env
from deepwave import errors
from deepwave.cli import main
from deepwave.cubic_analysis import Case1Reduction, build_cubic, classify_roots
from deepwave.errors import DegenerateRootsError, ParameterDomainError
from deepwave.scenario import ENV_CONFIG, build_scenario, load_config_file
from deepwave.stagnation import solve_stagnation
from deepwave.trajectories import case1_series
from deepwave.wave_field import WaveParams, evaluate_field

SVG_NS = {"s": "http://www.w3.org/2000/svg"}
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args: list[str], capsys) -> tuple[int, str, str]:
    """Invoke the CLI in process; return (exit_code, stdout, stderr)."""
    with pytest.raises(SystemExit) as excinfo:
        main(args)
    out, err = capsys.readouterr()
    code = excinfo.value.code
    return (0 if code is None else int(code)), out, err


class TestConfigResolution:
    def test_comments_blank_lines_and_key_normalisation(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            "# full-line comment\n"
            "\n"
            "k = 2.0      # trailing comment\n"
            "z-min = -12.5\n"
            "T_END = 3.5\n"
            "samples= 7\n"
            "format =json\n"
        )
        raw = load_config_file(str(cfg))
        assert raw == {
            "k": "2.0",
            "z_min": "-12.5",
            "t_end": "3.5",
            "samples": "7",
            "format": "json",
        }
        sc = build_scenario(str(cfg), {})
        assert sc.k == 2.0
        assert sc.z_min == -12.5
        assert sc.t_end == 3.5
        assert sc.samples == 7
        assert sc.format == "json"
        # the const1 default tracks the resolved k, not the built-in one
        assert sc.const1 == math.pi / (2.0 * 2.0)

    def test_readme_example_config_runs_as_written(self, tmp_path, capsys):
        text = README.read_text(encoding="utf-8")
        block = re.search(r"```ini\n(.*?)```", text, re.DOTALL).group(1)
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(block)
        assert load_config_file(str(cfg)) == {
            "k": "2.0",
            "beta": "-1.0",
            "t_end": "4.0",
            "samples": "800",
            "format": "json",
        }
        out_file = tmp_path / "samples.json"
        code, _, err = run_cli(
            ["trajectory", "--config", str(cfg), "--out", str(out_file)], capsys
        )
        assert code == 0, err
        assert json.loads(out_file.read_text())["metadata"]["n_samples"] == 800

    def test_readme_lists_every_error_code(self):
        text = README.read_text(encoding="utf-8")
        codes = {
            cls.code
            for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.DeepwaveError)
        }
        assert "empty-report" in codes
        assert [code for code in sorted(codes) if f"`{code}`" not in text] == []

    def test_unknown_key_reports_file_and_line(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("k = 1.0\nfrequency = 3\n")
        with pytest.raises(ParameterDomainError) as excinfo:
            load_config_file(str(cfg))
        msg = str(excinfo.value)
        assert "unknown key 'frequency'" in msg
        assert f"{cfg}:2:" in msg

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("k 2.0\n")
        with pytest.raises(ParameterDomainError, match="expected 'key = value'"):
            load_config_file(str(cfg))

    def test_empty_value_rejected(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("k =\n")
        with pytest.raises(ParameterDomainError, match="empty value for 'k'"):
            load_config_file(str(cfg))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ParameterDomainError, match="cannot read config file"):
            load_config_file(str(tmp_path / "nope.cfg"))

    def test_unparseable_value_rejected(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("k = frog\n")
        with pytest.raises(ParameterDomainError, match="cannot parse 'frog'"):
            build_scenario(str(cfg), {})

    def test_flag_beats_file_beats_default(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("k = 2.0\nbeta = -1.0\n")
        sc = build_scenario(str(cfg), {"k": 3.0})
        assert sc.k == 3.0
        assert sc.beta == -1.0
        assert sc.t_end == 10.0

    def test_env_fallback_and_config_flag_priority(self, tmp_path, monkeypatch):
        env_cfg = tmp_path / "env.cfg"
        env_cfg.write_text("k = 2.0\n")
        flag_cfg = tmp_path / "flag.cfg"
        flag_cfg.write_text("k = 4.0\n")
        monkeypatch.setenv(ENV_CONFIG, str(env_cfg))
        assert build_scenario(None, {}).k == 2.0
        assert build_scenario(str(flag_cfg), {}).k == 4.0
        monkeypatch.delenv(ENV_CONFIG)
        assert build_scenario(None, {}).k == 1.0

    @pytest.mark.parametrize(
        "line",
        [
            "k = 0",
            "k = -1",
            "samples = 1",
            "solution = spline",
            "format = yaml",
            "t_end = -5",
        ],
    )
    def test_domain_validation_after_merge(self, tmp_path, line):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(ParameterDomainError):
            build_scenario(str(cfg), {})


class TestDispersionCommand:
    def test_table_rows_match_wave_parameters(self, capsys):
        code, out, err = run_cli(["dispersion", "--k", "1,2,4"], capsys)
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == f"{'k':>14} {'wavelength':>14} {'c':>14} {'A':>14}"
        assert len(lines) == 4
        for line, kv in zip(lines[1:], (1.0, 2.0, 4.0)):
            p = WaveParams(k=kv, a=0.1, g=9.8)
            expected = (
                f"{p.k:>14.8g} {p.wavelength:>14.8g} {p.c:>14.8g} {p.A:>14.8g}"
            )
            assert line == expected

    def test_left_going_speed_is_negative(self, capsys):
        code, out, _ = run_cli(
            ["dispersion", "--k", "1", "--direction", "-1"], capsys
        )
        assert code == 0
        row = out.splitlines()[1].split()
        assert float(row[2]) < 0.0
        assert float(row[3]) < 0.0


class TestTrajectoryCommand:
    def test_csv_to_stdout_summary_to_stderr(self, capsys, scenario_k1):
        params, beta = scenario_k1
        code, out, err = run_cli(
            ["trajectory", "--k", "1", "--beta", "1", "--t-end", "2",
             "--samples", "5"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,x,z,X,Z"
        assert len(lines) == 6
        assert out.endswith("\n")
        assert "case: case1" in err
        assert "period:" in err
        assert "drift per period:" in err

        red = classify_roots(build_cubic(params, beta))
        series = case1_series(params, red, beta, 0.0, 2.0, 5, t0=0.0)
        for i, line in enumerate(lines[1:]):
            row = tuple(float(s) for s in line.split(","))
            expected = (
                float(series.t[i]),
                float(series.x[i]),
                float(series.z[i]),
                float(series.X[i]),
                float(series.Z[i]),
            )
            # %.17g round-trips doubles, so equality is exact
            assert row == expected

    def test_out_file_matches_stdout_bytes(self, tmp_path, capsys):
        target = tmp_path / "path.csv"
        base = ["trajectory", "--k", "1", "--beta", "1", "--t-end", "2",
                "--samples", "5"]
        code, out, err = run_cli(base + ["--out", str(target)], capsys)
        assert code == 0
        assert "case: case1" in out  # summary moves to stdout
        assert err == ""
        text = target.read_text()
        assert text.endswith("\n")

        code2, out2, _ = run_cli(base + ["--out", "-"], capsys)
        assert code2 == 0
        assert out2 == text

    def test_json_payload_structure(self, capsys, scenario_k1):
        params, beta = scenario_k1
        code, out, _ = run_cli(
            ["trajectory", "--k", "1", "--beta", "1", "--t-end", "1",
             "--samples", "4", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        meta = payload["metadata"]
        assert meta["case"] == "case1"
        assert meta["k"] == params.k
        assert meta["c"] == params.c
        assert meta["n_samples"] == 4
        assert meta["t_start"] == 0.0
        assert meta["t_end"] == 1.0
        assert meta["asymptote_times"] is None

        red = classify_roots(build_cubic(params, beta))
        series = case1_series(params, red, beta, 0.0, 1.0, 4, t0=0.0)
        assert meta["period"] == series.period
        assert meta["drift_per_period"] == series.drift_per_period
        for name in ("t", "x", "z", "X", "Z"):
            assert payload["samples"][name] == [
                float(v) for v in getattr(series, name)
            ]

    def test_svg_has_polyline_and_dashed_asymptotes(self, tmp_path, capsys):
        svg_path = tmp_path / "path.svg"
        csv_path = tmp_path / "path.csv"
        code, _, _ = run_cli(
            ["trajectory", "--k", "4", "--beta", "1", "--t-end", "4",
             "--samples", "600", "--out", str(csv_path), "--svg", str(svg_path)],
            capsys,
        )
        assert code == 0
        root = ET.fromstring(svg_path.read_text())
        assert root.tag.endswith("svg")

        polylines = root.findall(".//s:polyline", SVG_NS)
        assert len(polylines) == 1
        n_rows = len(csv_path.read_text().splitlines()) - 1
        assert len(polylines[0].attrib["points"].split()) == n_rows

        dashed = [
            el
            for el in root.findall(".//s:line", SVG_NS)
            if el.attrib.get("stroke-dasharray") == "6,4"
        ]
        assert dashed, "vertical asymptotes must be drawn dashed"
        titles = [el.text for el in root.findall(".//s:text", SVG_NS)]
        assert "case2 path" in titles

    def test_oracle_solution_anchored_at_start(self, capsys):
        code, out, err = run_cli(
            ["trajectory", "--solution", "oracle", "--k", "1", "--beta", "1",
             "--t-end", "2", "--samples", "9"],
            capsys,
        )
        assert code == 0
        assert "case: oracle-full" in err
        lines = out.splitlines()
        assert len(lines) == 10
        first = [float(s) for s in lines[1].split(",")]
        last = [float(s) for s in lines[-1].split(",")]
        assert first[0] == 0.0
        assert last[0] == 2.0
        assert all(math.isfinite(v) for v in last)

    def test_peakon_path_constant_phase(self, capsys):
        # const2 = 5 puts the asymptote at negative t, outside the window
        code, out, err = run_cli(
            ["trajectory", "--solution", "peakon", "--k", "1", "--t-end", "2",
             "--samples", "5", "--const2", "5"],
            capsys,
        )
        assert code == 0
        assert "case: peakon" in err
        assert "asymptote times:" in err
        lines = out.splitlines()
        assert len(lines) == 6
        params = WaveParams(k=1.0, a=0.1, g=9.8)
        phases = set()
        for line in lines[1:]:
            t, x, z, X, Z = (float(s) for s in line.split(","))
            gap = abs(X - params.k * (x - params.c * t))
            assert gap <= 1e-12 * max(1.0, abs(params.k * params.c * t))
            phases.add(X)
        assert len(phases) == 1  # x - ct is frozen on a peakon path

    def test_env_config_drives_trajectory(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("k = 2.0\nbeta = -1.0\nt_end = 1.0\nsamples = 3\n")
        monkeypatch.setenv(ENV_CONFIG, str(cfg))
        code, out, err = run_cli(["trajectory"], capsys)
        assert code == 0
        assert "case: case1" in err
        lines = out.splitlines()
        assert len(lines) == 4
        assert float(lines[1].split(",")[0]) == 0.0
        assert float(lines[-1].split(",")[0]) == 1.0


class TestFieldCommand:
    def test_json_matches_library_values(self, capsys):
        code, out, err = run_cli(
            ["field", "--k", "2", "--a", "0.15", "--p0", "1.5",
             "--x", "0.3", "--z", "-0.2", "--t", "0.7"],
            capsys,
        )
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        params = WaveParams(k=2.0, a=0.15, g=9.8, p0=1.5)
        sample = evaluate_field(params, 0.3, -0.2, 0.7)
        assert payload["u"] == sample.u
        assert payload["v"] == sample.v
        assert payload["p"] == sample.p
        assert payload["eta"] == sample.eta
        assert payload["above_surface"] == bool(sample.above_surface)
        assert (payload["x"], payload["z"], payload["t"]) == (0.3, -0.2, 0.7)


class TestStagnationCommand:
    def test_report_lines_match_solver(self, capsys):
        code, out, _ = run_cli(["stagnation", "--k", "1", "--beta", "1"], capsys)
        assert code == 0
        report = solve_stagnation(WaveParams(k=1.0, a=0.1, g=9.8), 1.0)
        lo, hi = report.search_interval
        lines = out.splitlines()
        assert lines[0] == (
            f"stagnation levels in [{lo:.10g}, {hi:.10g}]: "
            f"{len(report.solutions)} found (grid {report.grid_size})"
        )
        assert len(lines) == 1 + len(report.solutions)
        for line, sol in zip(lines[1:], report.solutions):
            assert f"branch={sol.branch:<5}" in line
            z_text = line.split("Z* =")[1].split("branch")[0].strip()
            assert math.isclose(
                float(z_text), sol.Z_star, rel_tol=1e-10, abs_tol=1e-10
            )


class TestValidateCommand:
    def test_full_battery_passes(self, capsys):
        code, out, _ = run_cli(["validate", "--k", "1", "--beta", "1"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "11/11 checks passed"
        assert sum(" PASS " in ln for ln in lines[:-1]) == 11

    def test_degenerate_beta_exits_4(self, capsys):
        params = WaveParams(k=1.0, a=0.1, g=9.8)
        beta = _degenerate_beta(params, 33.0, 34.0)
        code, out, _ = run_cli(
            ["validate", "--k", "1", "--beta", repr(beta)], capsys
        )
        assert code == 4
        assert "FAIL" in out
        assert "DegenerateRootsError" in out
        tail = out.splitlines()[-1]
        assert tail.endswith("checks passed")
        assert not tail.startswith("11/")


class TestExitCodes:
    @pytest.mark.parametrize(
        "args",
        [
            ["dispersion", "--k", "frog"],
            ["dispersion", "--k", ","],
            ["dispersion"],
            ["frobnicate"],
            ["trajectory", "--direction", "0"],
            ["trajectory", "--solution", "spline"],
        ],
    )
    def test_usage_errors_exit_2(self, args, capsys):
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert err

    @pytest.mark.parametrize(
        "args",
        [
            ["trajectory", "--k", "0"],
            ["trajectory", "--t-start", "5", "--t-end", "1"],
            ["trajectory", "--samples", "1"],
            ["stagnation", "--grid", "10"],
            ["stagnation", "--z-min", "3", "--z-max", "-3"],
            ["field", "--k", "-2"],
        ],
    )
    def test_domain_errors_exit_3_single_line(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 3
        assert out == ""
        assert re.fullmatch(r"error:[a-z-]+: .+\n", err)

    def test_missing_config_file_exits_3(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["trajectory", "--config", str(tmp_path / "nope.cfg")], capsys
        )
        assert code == 3
        assert err.startswith("error:parameter-domain: cannot read config file")

    def test_bad_solution_in_config_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("solution = spline\n")
        code, _, err = run_cli(["trajectory", "--config", str(cfg)], capsys)
        assert code == 3
        assert err.startswith("error:parameter-domain:")

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(["--help"], capsys)
        assert code == 0
        assert "Usage" in out


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "deepwave", "dispersion", "--k", "2"],
        capture_output=True,
        text=True,
        timeout=60,
        env=cli_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].split()[0] == "2"


def _degenerate_beta(params: WaveParams, lo: float, hi: float) -> float:
    """Bisect across the case boundary until the classifier rejects the
    cubic as numerically degenerate."""

    def tag_is_case1(b: float) -> bool:
        return isinstance(classify_roots(build_cubic(params, b)), Case1Reduction)

    assert tag_is_case1(lo) and not tag_is_case1(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        try:
            if tag_is_case1(mid):
                lo = mid
            else:
                hi = mid
        except DegenerateRootsError:
            return mid
    pytest.fail("no degenerate discriminant window between the two cases")
