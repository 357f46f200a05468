"""End-to-end exercise of the command line surface.

Covers config-file resolution (defaults, file, environment, flags), the
byte formats of the CSV/JSON/SVG emitters, metadata routing between
stdout and stderr, and the exit-code contract: 0 success, 2 usage,
3 domain/contract error, 4 validation failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import cli_env
from deepwave import errors
from deepwave.cli import (
    cli,
    main,
    stagnation_report,
    trajectory_output,
    trajectory_series,
    validate_report,
)
from deepwave.cubic_analysis import Case1Reduction, build_cubic, classify_roots
from deepwave.emitters import (
    emit_rows,
    trajectory_csv,
    trajectory_json,
    trajectory_summary,
    trajectory_svg,
)
from deepwave.errors import DegenerateRootsError, ParameterDomainError
from deepwave.scenario import (
    ENV_CONFIG,
    SOLUTIONS,
    ScenarioConfig,
    build_scenario,
    load_config_file,
)
from deepwave.stagnation import solve_stagnation
from deepwave.sampled_path import STREAM_BLOCK
from deepwave.trajectories import TrajectorySeries, asymptote_times, case1_series
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

    def test_readme_library_example_runs_as_written(self):
        text = README.read_text(encoding="utf-8")
        block = re.search(r"```python\n(.*?)```", text, re.DOTALL).group(1)
        namespace: dict = {}
        exec(block, namespace)
        series = namespace["series"]
        assert series.t.size == 801
        assert namespace["Z"].tobytes() == series.Z.tobytes()

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
            "solution = spline",
            "format = yaml",
        ],
    )
    def test_domain_validation_after_merge(self, tmp_path, line):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(ParameterDomainError):
            build_scenario(str(cfg), {})

    @pytest.mark.parametrize("line", ["samples = 1", "t_end = -5"])
    def test_window_keys_are_checked_by_trajectory_only(self, tmp_path, capsys, line):
        """Only trajectory reads the window and sample count, so only it
        rejects them, with one message for every path family."""
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(line + "\n")
        for command in ("stagnation", "field", "validate"):
            code, _, err = run_cli([command, "--config", str(cfg)], capsys)
            assert code == 0, (command, err)
        errors_by_solution = set()
        for solution in SOLUTIONS:
            argv = ["trajectory", "--config", str(cfg), "--solution", solution]
            code, _, err = run_cli(argv, capsys)
            assert code == 3, solution
            assert err.count("\n") == 1 and err.startswith("error:parameter-domain:")
            errors_by_solution.add(err)
        assert len(errors_by_solution) == 1


class TestDocumentedSurface:
    def test_readme_cli_examples_run_as_written(self, tmp_path, monkeypatch, capsys):
        text = README.read_text(encoding="utf-8")
        section = text[text.index("## Command line") :]
        block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
        lines = [line.split("#")[0].strip() for line in block.splitlines()]
        monkeypatch.chdir(tmp_path)
        assert len(lines) == 6
        for line in lines:
            args = shlex.split(line)
            assert args[0] == "deepwave"
            code, _, err = run_cli(args[1:], capsys)
            assert code == 0, (line, err)
        assert (tmp_path / "path.svg").stat().st_size > 0
        assert (tmp_path / "samples.csv").stat().st_size > 0

    def test_readme_defaults_table_matches_scenario_config(self):
        text = README.read_text(encoding="utf-8")
        table = text[text.index("the offending file and line number.  Defaults:") :]
        rows = [line for line in table.splitlines()[2:] if line.startswith("| `")]
        listed: dict[str, object] = {}
        for row in rows:
            cells = [cell.strip() for cell in row.split("|")[1:-1]]
            for key_cell, value_cell in (cells[0:2], cells[3:5]):
                keys = re.findall(r"`(\w+)`", key_cell)
                value_text = re.sub(r" \(.*\)$", "", value_cell.replace("`", ""))
                values = value_text.split(", ")
                if len(values) == 1:  # one default shared by every key listed
                    values *= len(keys)
                listed.update(zip(keys, values))
        rows_by_name = {f.name: f for f in dataclasses.fields(ScenarioConfig)}
        assert sorted(listed) == sorted(rows_by_name)
        for name, text_value in listed.items():
            row = rows_by_name[name]
            if text_value in ("none", "pi/(2k)"):
                value = None
            else:
                value = row.metadata["convert"](text_value)
            assert value == row.default, name

    @pytest.mark.parametrize(
        ("command", "options"),
        [
            ("dispersion", ["--k", "--g", "--a", "--direction"]),
            (
                "trajectory",
                [
                    "--config", "--k", "--a", "--g", "--beta", "--direction",
                    "--t-start", "--t-end", "--samples", "--solution",
                    "--const1", "--const2", "--t0", "--out", "--format", "--svg",
                ],
            ),
            (
                "stagnation",
                [
                    "--config", "--k", "--a", "--g", "--beta", "--direction",
                    "--z-min", "--z-max", "--grid",
                ],
            ),
            ("validate", ["--config", "--k", "--a", "--g", "--beta", "--direction"]),
            (
                "field",
                [
                    "--config", "--k", "--a", "--g", "--direction", "--p0",
                    "--x", "--z", "--t",
                ],
            ),
        ],
    )
    def test_subcommand_options_pinned(self, command, options):
        assert [param.opts[0] for param in cli.commands[command].params] == options


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
        # 9000 samples span 9 CSV pieces (1024 rows) and 2 JSON pieces per
        # column (5120 values).
        for samples, fmt in (("5", "csv"), ("9000", "csv"), ("9000", "json")):
            target = tmp_path / f"path-{samples}.{fmt}"
            base = ["trajectory", "--k", "1", "--beta", "1", "--t-end", "2",
                    "--samples", samples, "--format", fmt]
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
            ["trajectory", "--format", "xml"],
            ["trajectory", "--p0", "5"],  # the pressure offset is field's only
            ["dispersion", "--direction", "0"],
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


class TestCommandFunctions:
    """The plain functions behind the click commands return exactly what
    the commands print and write."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(k=1.0, beta=1.0, samples=300),
            dict(k=4.0, beta=1.0, samples=5000, format="json"),
            dict(k=4.0, beta=-1.0, direction=-1, samples=700),
            dict(k=1.0, solution="peakon", t_start=-10.0, samples=301),
            dict(k=1.0, beta=1.0, solution="oracle", t_end=2.0, samples=50),
        ],
    )
    def test_trajectory_output_is_what_the_command_writes(
        self, overrides, tmp_path, capsys
    ):
        data_path, svg_path = tmp_path / "data", tmp_path / "path.svg"
        args = ["trajectory"]
        for key, value in overrides.items():
            args += ["--" + key.replace("_", "-"), str(value)]
        args += ["--out", str(data_path), "--svg", str(svg_path)]
        code, out, err = run_cli(args, capsys)
        assert code == 0 and err == ""
        sc = build_scenario(None, {**overrides, "svg": "unused.svg"})
        rows, summary = trajectory_output(sc)
        assert _texts(rows) == [data_path.read_text(), svg_path.read_text()]
        assert summary == out

    def test_no_svg_pieces_without_svg(self):
        rows, _ = trajectory_output(build_scenario(None, dict(samples=3)))
        assert all(len(row) == 1 for row in rows)

    def test_one_asymptote_line_rule(self):
        # Case 2: x = c t_a + sign(A) pi/(2k) at every asymptote time.
        for direction in (1, -1):
            sc = build_scenario(None, dict(k=4.0, beta=direction, direction=direction))
            series, marks = trajectory_series(sc)
            p = sc.params()
            offset = math.copysign(math.pi / (2.0 * p.k), p.A)
            assert len(series.asymptote_times) >= 2
            assert marks == tuple(p.c * ta + offset for ta in series.asymptote_times)
        # Peakon: x = c t* + const1, only while t* lies in the window.
        inside = build_scenario(None, dict(solution="peakon", t_start=-10.0))
        series, marks = trajectory_series(inside)
        (t_star,) = series.asymptote_times
        assert marks == (inside.params().c * t_star + inside.const1,)
        outside = build_scenario(None, dict(solution="peakon"))
        assert trajectory_series(outside)[1] == ()
        # Case 1 has no asymptote.
        assert trajectory_series(build_scenario(None, dict(samples=10)))[1] == ()

    def test_stagnation_report_is_the_command_stdout(self, capsys):
        code, out, _ = run_cli(["stagnation", "--k", "4", "--beta", "1"], capsys)
        assert code == 0
        assert stagnation_report(build_scenario(None, dict(k=4.0))) == out

    def test_validate_report_is_the_command_stdout(self, capsys):
        code, out, _ = run_cli(["validate", "--k", "4", "--beta", "1"], capsys)
        assert code == 0
        assert validate_report(build_scenario(None, dict(k=4.0))) == (0, out)

    def test_stagnation_report_loads_no_numpy(self):
        code = (
            "import sys; from deepwave.cli import build_scenario, stagnation_report; "
            "text = stagnation_report(build_scenario(None, {'k': 4.0})); "
            "assert text.startswith('stagnation levels'), text; "
            "assert 'numpy' not in sys.modules"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=60, env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr


B = STREAM_BLOCK
# Sample counts around the stream block: one block short, exact, one
# over, and three blocks and seven times.
STREAM_COUNTS = (2, B - 1, B, B + 1, 3 * B + 7)


def _k4_asymptote() -> float:
    """The first asymptote time of k4 (beta = 1) after t = 0."""
    sc = build_scenario(None, dict(k=4.0))
    return asymptote_times(classify_roots(build_cubic(sc.params(), sc.beta)), 0.0, (0,))[0]


def _around_k4_asymptote(half_width: float, samples: int) -> dict:
    t_a = _k4_asymptote()
    return dict(
        k=4.0, beta=1.0, t_start=t_a - half_width, t_end=t_a + half_width,
        samples=samples,
    )


def _texts(rows) -> list[str]:
    """The text of each target in trajectory_output's rows."""
    return ["".join(pieces) for pieces in zip(*rows)]


def _whole_texts(sc: ScenarioConfig) -> tuple[str, str, str]:
    """The data (in sc's format), the SVG and the summary that the
    emitters write for the series built whole."""
    series, marks = trajectory_series(sc)
    data = (trajectory_csv if sc.format == "csv" else trajectory_json)(series)
    svg = trajectory_svg(series, marks, title=f"{series.case_tag} path")
    return data, svg, trajectory_summary(series)


def _streamed_equals_whole(overrides: dict):
    """Assert that trajectory_output writes, for CSV and JSON, each with
    and without the SVG, the bytes and the summary the emitters write for
    the whole series; return that series and its grid."""
    sc = build_scenario(None, overrides)
    for fmt in ("csv", "json"):
        data, svg, summary = _whole_texts(dataclasses.replace(sc, format=fmt))
        for targets in ([data], [data, svg]):
            fmt_sc = dataclasses.replace(
                sc, format=fmt, svg="unused.svg" if len(targets) == 2 else None
            )
            rows, summary_out = trajectory_output(fmt_sc)
            assert _texts(rows) == targets
            assert summary_out == summary
    series, _ = trajectory_series(sc)
    return series, np.linspace(sc.t_start, sc.t_end, sc.samples)


def _patch_budget(monkeypatch, samples: int) -> None:
    """Keep Z only for JSON: the budget falls below the sample count."""
    import deepwave.sampled_path

    monkeypatch.setattr(deepwave.sampled_path, "Z_BUDGET", samples - 1)


class TestStreamedOutput:
    """The command evaluates a closed form STREAM_BLOCK grid times at a
    time, in passes; what it writes is what the emitters write for the
    series built whole."""

    @pytest.mark.parametrize("budget", ["default", "below"])
    @pytest.mark.parametrize("samples", STREAM_COUNTS)
    @pytest.mark.parametrize(
        "family",
        [
            dict(k=1.0, beta=1.0),
            # The first time sits on an asymptote and is dropped.
            dict(k=4.0, beta=1.0, t_start=1.416601938),
            # t* = -3.194 lies inside a block.
            dict(solution="peakon", t_start=-10.0),
        ],
        ids=["case1", "case2", "peakon"],
    )
    def test_bytes_equal_the_whole_series(self, family, samples, budget, monkeypatch):
        if budget == "below":
            _patch_budget(monkeypatch, samples)
        series, _ = _streamed_equals_whole({**family, "samples": samples})
        if family.get("k") == 4.0:
            assert series.t.size == samples - 1

    def test_guarded_times_straddle_a_block_edge(self):
        # About 17 times each side of the asymptote, the middle one at B.
        series, grid = _streamed_equals_whole(_around_k4_asymptote(B * 2e-8, 2 * B + 1))
        kept = np.isin(grid, series.t)
        assert not kept[B - 1] and not kept[B]
        assert kept[B - 40] and kept[B + 40]

    def test_a_block_with_no_kept_time(self):
        # The middle block lies within 2e-7 of the asymptote, inside the
        # guard band (3.4e-7 in t).
        series, grid = _streamed_equals_whole(_around_k4_asymptote(6e-7, 3 * B))
        kept = np.isin(grid, series.t)
        assert not kept[B : 2 * B].any()
        assert kept[:B].any() and kept[2 * B :].any()

    def test_peakon_asymptote_dropped_inside_a_block(self):
        sc = build_scenario(None, dict(solution="peakon"))
        t_star = -sc.const2 / (sc.params().k * sc.params().A)
        n = 3 * B + 7
        # Sample 6000 falls on t*, within rounding, and the guard drops it.
        window = dict(t_start=t_star - 6.0, t_end=t_star + (n - 6001) * 1e-3)
        series, grid = _streamed_equals_whole(
            dict(solution="peakon", samples=n, **window)
        )
        assert series.t.size == n - 1
        assert not np.isin(grid, series.t)[6000]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        ("args", "error"),
        [
            # Every time of three blocks lies inside the guard band.
            (
                ["--k", "4", "--t-start", repr(1.416601938 - 1e-8),
                 "--t-end", repr(1.416601938 + 1e-8)],
                "asymptote-proximity",
            ),
            # x = c t + 1e308 rounds to one value, too large for a +-1 margin.
            (["--solution", "peakon", "--const1", "1e308"], "contract-violation"),
        ],
        ids=["all-guarded", "unplottable-svg"],
    )
    def test_first_pass_failure_writes_nothing(self, tmp_path, capsys, fmt, args, error):
        out_path, svg_path = tmp_path / "samples", tmp_path / "path.svg"
        code, out, err = run_cli(
            ["trajectory", *args, "--samples", str(3 * B + 7), "--format", fmt,
             "--out", str(out_path), "--svg", str(svg_path)],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert re.fullmatch(f"error:{error}: .+\n", err)
        assert not out_path.exists() and not svg_path.exists()

    @pytest.mark.parametrize(
        ("overrides", "budget", "passes"),
        [
            (dict(k=1.0, beta=1.0), "default", 1),
            (dict(k=4.0, beta=1.0, svg="svg"), "default", 1),
            (dict(k=4.0, beta=1.0, format="json", svg="svg"), "default", 1),
            (dict(solution="peakon", t_start=-10.0), "default", 1),
            # Above the budget CSV and SVG evaluate the path again in one
            # shared pass; JSON keeps Z whatever the budget.
            (dict(k=4.0, beta=1.0, svg="svg"), "below", 2),
            (dict(k=4.0, beta=1.0, format="json", svg="svg"), "below", 1),
        ],
        ids=[
            "case1-csv", "case2-csv-svg", "case2-json-svg", "peakon-csv",
            "case2-csv-svg-above-budget", "case2-json-svg-above-budget",
        ],
    )
    def test_kernel_evaluations_per_grid_time(
        self, tmp_path, monkeypatch, overrides, budget, passes
    ):
        from deepwave.sampled_path import SampledPath

        samples = 3 * B + 7
        if budget == "below":
            _patch_budget(monkeypatch, samples)
        windows, evaluated = [], []
        init = SampledPath.__init__

        def counting_init(self, window, params, kernel, *args, **kwargs):
            def counted(t):
                evaluated.append(t.copy())
                return kernel(t)

            windows.append(window)
            init(self, window, params, counted, *args, **kwargs)

        monkeypatch.setattr(SampledPath, "__init__", counting_init)
        sc = build_scenario(None, {**overrides, "samples": samples})
        sc = dataclasses.replace(
            sc, out=str(tmp_path / "data"), svg=sc.svg and str(tmp_path / "path.svg")
        )
        rows, _ = trajectory_output(sc)
        emit_rows((sc.out, sc.svg) if sc.svg else (sc.out,), rows)
        (window,) = windows
        times = np.sort(np.concatenate(evaluated))
        assert times.tolist() == np.repeat(np.linspace(*window), passes).tolist()

    @pytest.mark.parametrize("budget", ["default", "below"])
    @pytest.mark.parametrize(
        ("overrides", "passes_below"),
        [
            (dict(k=1.0, beta=1.0), 2),
            (dict(k=4.0, beta=1.0, svg="svg"), 2),
            (dict(k=1.0, beta=1.0, format="json"), 1),
            (dict(k=4.0, beta=1.0, format="json", svg="svg"), 1),
            (dict(solution="peakon", t_start=-10.0), 2),
        ],
        ids=["csv", "csv-svg", "json", "json-svg", "peakon-csv"],
    )
    def test_one_checked_series_per_kernel_pass(
        self, tmp_path, monkeypatch, overrides, passes_below, budget
    ):
        """Each block the kernel evaluates is built, and checked, as one
        TrajectorySeries; a block rebuilt from the kept Z is not."""
        samples = 3 * B + 7  # four blocks, each keeping a time
        passes = 1
        if budget == "below":
            _patch_budget(monkeypatch, samples)
            passes = passes_below
        built = []
        post_init = TrajectorySeries.__post_init__

        def counting_post_init(series):
            built.append(series)
            post_init(series)

        monkeypatch.setattr(TrajectorySeries, "__post_init__", counting_post_init)
        sc = build_scenario(None, {**overrides, "samples": samples})
        sc = dataclasses.replace(
            sc, out=str(tmp_path / "data"), svg=sc.svg and str(tmp_path / "path.svg")
        )
        rows, _ = trajectory_output(sc)
        emit_rows((sc.out, sc.svg) if sc.svg else (sc.out,), rows)
        assert len(built) == 4 * passes

    @pytest.mark.parametrize(
        ("overrides", "budget", "bound"),
        [
            # Above the budget CSV and SVG hold one block at a time.
            (dict(k=4.0, beta=1.0, format="csv", svg="svg"), "below", 1e6),
            # Within it, and for JSON, the first pass keeps Z: 8 B per sample.
            (dict(k=4.0, beta=1.0, format="csv", svg="svg"), "default", 10.0 * 180_000),
            (dict(k=1.0, beta=1.0, format="json"), "default", 10.0 * 180_000),
        ],
        ids=["csv-svg", "csv-svg-kept", "json"],
    )
    def test_memory_does_not_grow_with_the_sample_count(
        self, tmp_path, monkeypatch, overrides, budget, bound
    ):
        """The traced peak of the command functions at 2e5 samples against
        2e4: under 1 MB more for CSV and SVG above the Z budget, at most
        10 B per added sample where Z is kept.  The heap primer, 4 MiB
        never written, would be the traced peak at both counts and hide
        the growth."""
        import deepwave.sampled_path

        monkeypatch.setattr(deepwave.sampled_path, "HEAP_PRIMER", 0)
        if budget == "below":
            _patch_budget(monkeypatch, 20_000)

        def peak(samples: int) -> int:
            sc = build_scenario(None, {**overrides, "samples": samples})
            sc = dataclasses.replace(
                sc, out=str(tmp_path / "data"), svg=sc.svg and str(tmp_path / "path.svg")
            )
            tracemalloc.start()
            try:
                rows, _ = trajectory_output(sc)
                emit_rows((sc.out, sc.svg) if sc.svg else (sc.out,), rows)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        growth = peak(200_000) - peak(20_000)
        assert growth < bound, f"traced peak grew by {growth / 1e6:.2f} MB"


class TestOutputTargets:
    """The sample data and the SVG go to two places; the summary goes to
    stderr whenever the data or the SVG occupies stdout."""

    @pytest.mark.parametrize(
        "targets",
        [
            ["--svg", "-"],
            ["--out", "-", "--svg", "-"],
            ["--out", "same.txt", "--svg", "same.txt"],
            ["--out", "same.txt", "--svg", "sub/../same.txt"],
        ],
    )
    def test_one_target_exits_3_and_writes_nothing(
        self, targets, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(["trajectory", "--samples", "3", *targets], capsys)
        assert code == 3 and out == ""
        assert re.fullmatch(r"error:parameter-domain: .+\n", err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("link", [os.link, os.symlink])
    def test_a_linked_path_is_one_target(self, link, tmp_path, capsys):
        data, svg = tmp_path / "data.csv", tmp_path / "path.svg"
        data.write_text("kept\n")
        link(data, svg)
        code, out, err = run_cli(
            ["trajectory", "--samples", "3", "--out", str(data), "--svg", str(svg)],
            capsys,
        )
        assert code == 3 and out == ""
        assert re.fullmatch(r"error:parameter-domain: .+\n", err)
        assert data.read_text() == "kept\n"

    def test_svg_on_stdout_sends_the_summary_to_stderr(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        args = ["trajectory", "--samples", "3", "--out", str(data), "--svg", "-"]
        code, out, err = run_cli(args, capsys)
        assert code == 0
        sc = build_scenario(None, dict(samples=3, out=str(data), svg="-"))
        rows, summary = trajectory_output(sc)
        assert [data.read_text(), out] == _texts(rows) and err == summary

    @pytest.mark.parametrize("budget", ["default", "below"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("on_stdout", ["data", "svg"])
    def test_one_target_on_stdout_gets_the_whole_series_bytes(
        self, on_stdout, fmt, budget, tmp_path, monkeypatch, capsys
    ):
        samples = 3 * B + 7
        if budget == "below":
            _patch_budget(monkeypatch, samples)
        overrides = dict(k=4.0, beta=1.0, t_start=1.416601938, samples=samples)
        path = tmp_path / ("path.svg" if on_stdout == "data" else "data")
        targets = ["-", str(path)] if on_stdout == "data" else [str(path), "-"]
        args = ["trajectory", "--k", "4", "--beta", "1", "--t-start", "1.416601938",
                "--samples", str(samples), "--format", fmt,
                "--out", targets[0], "--svg", targets[1]]
        code, out, err = run_cli(args, capsys)
        assert code == 0
        data, svg, summary = _whole_texts(build_scenario(None, {**overrides, "format": fmt}))
        written = [out, path.read_text()] if on_stdout == "data" else [path.read_text(), out]
        assert written == [data, svg]
        assert err == summary


class TestOutOfRangeInput:
    """Finite flags whose arithmetic overflows, and non-finite ones, exit 3
    with one stderr line and no Python warning."""

    @pytest.mark.parametrize(
        "args",
        [
            ["trajectory", "--solution", "peakon", "--t-end", "1e308"],
            ["trajectory", "--t-start", "-1e308", "--t-end", "1e308"],
            ["trajectory", "--solution", "peakon", "--t-start", "-1e308",
             "--t-end", "1e308"],
            ["trajectory", "--solution", "oracle", "--t-start", "-1e308",
             "--t-end", "1e308"],
            ["trajectory", "--t-end", "inf"],
            ["trajectory", "--t-start", "1e308", "--t-end", "1.7e308"],
            ["trajectory", "--solution", "peakon", "--const2", "1e308"],
            ["trajectory", "--k", "2", "--solution", "peakon", "--const1", "1e308"],
            # The phase beyond 2^52 quarter periods, and a case-2 window
            # over more than MAX_ASYMPTOTES asymptotes.
            ["trajectory", "--t-end", "1e20"],
            ["trajectory", "--t0", "1e308"],
            ["trajectory", "--k", "4", "--t-end", "1e12"],
            ["trajectory", "--solution", "oracle", "--t-end", "1e9"],
            ["trajectory", "--beta", "1e39"],
            # The discriminant overflows to -inf and NaN.
            ["trajectory", "--beta", "1e80"],
            ["trajectory", "--beta", "1e150"],
            ["trajectory", "--a", "1e-200"],  # (4/3) k^2 A^2 underflows
            # a0 = k^2 A^2 - beta^2 overflows to -inf
            ["trajectory", "--k", "1e100", "--a", "1e-101", "--beta", "1e200"],
            ["field", "--k", "1", "--z", "1000"],
            ["field", "--k", "10", "--x", "1e308"],
            ["field", "--t", "nan"],
            ["field", "--z", "-1e308"],
            ["stagnation", "--k", "1e-200", "--a", "1e-200", "--g", "1"],
            ["validate", "--k", "6.26e-145", "--g", "1.06e-281"],
        ],
    )
    def test_exit_3_with_one_line(self, args, capsys):
        if args[0] == "trajectory":
            args = [*args, "--samples", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(args, capsys)
        assert code == 3
        assert out == ""
        assert re.fullmatch(r"error:parameter-domain: .+\n", err)

    def test_unplottable_svg_writes_nothing(self, tmp_path, capsys):
        # x = c t + 1e308 rounds to one value, too large for a +-1 margin.
        svg_path = tmp_path / "path.svg"
        args = ["trajectory", "--solution", "peakon", "--const1", "1e308",
                "--samples", "3", "--svg", str(svg_path)]
        code, out, err = run_cli(args, capsys)
        assert code == 3
        assert out == ""
        assert re.fullmatch(r"error:contract-violation: .+\n", err)
        assert not svg_path.exists()

    def test_validate_reports_an_underflowing_amplitude(self, capsys):
        code, out, _ = run_cli(["validate", "--a", "1e-200"], capsys)
        assert code == 4
        line = next(line for line in out.splitlines() if "classification" in line)
        assert "FAIL  raised ParameterDomainError: leading coefficient a3" in line
        assert "ContractViolationError" not in out
        # t* is about -3.2e199 here: probes offset by 0.1 ... 5 would round onto it
        assert re.search(r"peakon-residual +PASS", out)
        # the two levels sit within a grid step of the kink Z = beta/(kc)
        assert re.search(r"stagnation-oracle +PASS  2 level\(s\)", out)

    def test_out_of_memory_exits_3_with_one_line(self, tmp_path, monkeypatch, capsys):
        """An allocation numpy cannot make, simulated by a kernel call of the
        first pass that raises as numpy does: one error:internal: line, no
        file."""
        import deepwave.trajectories

        def kernel(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(deepwave.trajectories, "_sn_cn_dn", kernel)
        out_path = tmp_path / "samples.csv"
        code, out, err = run_cli(["trajectory", "--out", str(out_path)], capsys)
        assert code == 3
        assert out == ""
        assert err == (
            "error:internal: out of memory: Unable to allocate 745. GiB for an array\n"
        )
        assert not out_path.exists()

    def test_dispersion_rejects_overflowing_speed(self, capsys):
        code, _, err = run_cli(["dispersion", "--k", "1e-308"], capsys)
        assert code == 3
        assert re.fullmatch(r"error:parameter-domain: .+\n", err)

    def test_long_finite_window_gives_finite_rows(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run_cli(
                ["trajectory", "--t-end", "1e14", "--samples", "3"], capsys
            )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 3
        assert all(math.isfinite(float(v)) for row in rows for v in row)


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
