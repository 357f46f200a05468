"""Scenario resolution: defaults, config file, command-line overrides.

The config file is a flat ``key = value`` text format.  ``#`` and ``;``
start a comment (full line or trailing), blank lines are ignored, and
keys may use ``-`` or ``_`` interchangeably.  Command-line flags
override file values, which override the built-in defaults.  The
``DEEPWAVE_CONFIG`` environment variable names a fallback config file
used when no ``--config`` flag is given.  Each key is declared once, as
a field of ``ScenarioConfig``; the command-line flags are built from
the same fields.

Resolution checks only a key's allowed choices and k, which the const1
default divides by; the command that reads any other value checks it.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field, fields
from typing import Any, Callable

from .errors import ParameterDomainError
from .wave_field import WaveParams

ENV_CONFIG = "DEEPWAVE_CONFIG"

SOLUTIONS = ("peakon", "elliptic", "oracle")
FORMATS = ("csv", "json")


def _key(
    default: Any,
    convert: Callable[[str], Any],
    help: str | None = None,
    choices: tuple[Any, ...] | None = None,
) -> Any:
    """One scenario key: its built-in default, the converter of its config
    value, the help text of its ``--flag`` and, for a closed set, its
    allowed values."""
    return field(
        default=default,
        metadata={"convert": convert, "help": help, "choices": choices},
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully resolved scenario; every command reads the slice it needs.

    The fields are the one table of scenario keys: the config-file parser
    and the command-line flags are both built from it.
    """

    k: float = _key(1.0, float, "Wavenumber k > 0.")
    a: float = _key(0.1, float, "Amplitude a > 0.")
    g: float = _key(9.8, float, "Gravity g > 0.")
    beta: float = _key(1.0, float, "Vertical integration constant.")
    direction: int = _key(1, int, "Propagation direction of the wave.", (1, -1))
    p0: float = _key(0.0, float, "Surface pressure offset.")
    rho: float = _key(1.0, float)
    t_start: float = _key(0.0, float)
    t_end: float = _key(10.0, float)
    samples: int = _key(1000, int, "Number of output samples.")
    solution: str = _key(
        "elliptic", str, "Path family: closed forms or the numerical oracle.", SOLUTIONS
    )
    # None resolves to pi/(2k) at build time.
    const1: float = _key(
        None, float, "Peakon x offset (default pi/(2k), the crest-phase convention)."
    )
    const2: float = _key(1.0, float, "Peakon asymptote constant.")
    t0: float = _key(0.0, float, "Clock offset of the closed forms.")
    out: str | None = _key(None, str, "Sample file path ('-' or omitted: stdout).")
    format: str = _key("csv", str, "Sample file format.", FORMATS)
    svg: str | None = _key(None, str, "Also draw the path to SVG.")
    z_min: float = _key(-20.0, float, "Search window lower edge (Z).")
    z_max: float = _key(5.0, float, "Search window upper edge (Z).")
    grid: int = _key(4096, int, "Echoed only; must be >= 1000.")
    x: float = _key(0.0, float, "Evaluation x.")
    z: float = _key(0.0, float, "Evaluation z.")
    t: float = _key(0.0, float, "Evaluation time.")

    def params(self) -> WaveParams:
        return WaveParams(
            k=self.k,
            a=self.a,
            g=self.g,
            direction=self.direction,
            p0=self.p0,
            rho=self.rho,
        )


def load_config_file(path: str) -> dict[str, str]:
    """Parse a flat key = value config file into raw string values."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParameterDomainError(f"cannot read config file {path}: {exc}") from exc
    names = {f.name for f in fields(ScenarioConfig)}
    values: dict[str, str] = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        body = re.split("[#;]", line, maxsplit=1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ParameterDomainError(
                f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}"
            )
        key, value = body.split("=", 1)
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if key not in names:
            raise ParameterDomainError(f"{path}:{lineno}: unknown key {key!r}")
        if not value:
            raise ParameterDomainError(f"{path}:{lineno}: empty value for {key!r}")
        values[key] = value
    return values


def build_scenario(
    config_path: str | None, overrides: dict[str, Any]
) -> ScenarioConfig:
    """Resolve one scenario from defaults, optional file, and flag overrides.

    overrides maps field names to values already converted by the CLI
    layer; None entries mean "flag not given".
    """
    path = config_path or os.environ.get(ENV_CONFIG) or None
    file_values = load_config_file(path) if path else {}

    resolved: dict[str, Any] = {}
    for f in fields(ScenarioConfig):
        key, choices = f.name, f.metadata["choices"]
        if overrides.get(key) is not None:
            value = overrides[key]
        elif key in file_values:
            try:
                value = f.metadata["convert"](file_values[key])
            except ValueError as exc:
                raise ParameterDomainError(
                    f"config key {key!r}: cannot parse {file_values[key]!r}"
                ) from exc
        else:
            value = f.default
        if choices and value not in choices:
            raise ParameterDomainError(f"{key} must be one of {choices}, got {value!r}")
        resolved[key] = value

    if not (math.isfinite(resolved["k"]) and resolved["k"] > 0.0):
        raise ParameterDomainError(
            f"k must be positive and finite, got {resolved['k']!r}"
        )
    if resolved["const1"] is None:
        # Crest-phase convention: k * const1 = pi/2.
        resolved["const1"] = math.pi / (2.0 * resolved["k"])
    return ScenarioConfig(**resolved)
