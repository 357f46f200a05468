"""Scenario resolution: defaults, config file, command-line overrides.

The config file is a flat ``key = value`` text format.  ``#`` and ``;``
start a comment (full line or trailing), blank lines are ignored, and
keys may use ``-`` or ``_`` interchangeably.  Command-line flags
override file values, which override the built-in defaults.  The
``DEEPWAVE_CONFIG`` environment variable names a fallback config file
used when no ``--config`` flag is given.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from typing import Any, Callable

from .errors import ParameterDomainError
from .wave_field import WaveParams

ENV_CONFIG = "DEEPWAVE_CONFIG"

SOLUTIONS = ("peakon", "elliptic", "oracle")
FORMATS = ("csv", "json")

# key -> (converter, default); const1's None means "pi/(2k) at build time".
_FIELDS: dict[str, tuple[Callable[[str], Any], Any]] = {
    "k": (float, 1.0),
    "a": (float, 0.1),
    "g": (float, 9.8),
    "beta": (float, 1.0),
    "direction": (int, 1),
    "p0": (float, 0.0),
    "rho": (float, 1.0),
    "t_start": (float, 0.0),
    "t_end": (float, 10.0),
    "samples": (int, 1000),
    "solution": (str, "elliptic"),
    "const1": (float, None),
    "const2": (float, 1.0),
    "t0": (float, 0.0),
    "out": (str, None),
    "format": (str, "csv"),
    "svg": (str, None),
    "z_min": (float, -20.0),
    "z_max": (float, 5.0),
    "grid": (int, 4096),
    "x": (float, 0.0),
    "z": (float, 0.0),
    "t": (float, 0.0),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully resolved scenario; every command reads the slice it needs."""

    k: float
    a: float
    g: float
    beta: float
    direction: int
    p0: float
    rho: float
    t_start: float
    t_end: float
    samples: int
    solution: str
    const1: float
    const2: float
    t0: float
    out: str | None
    format: str
    svg: str | None
    z_min: float
    z_max: float
    grid: int
    x: float
    z: float
    t: float

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
        if key not in _FIELDS:
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
    for key, (convert, default) in _FIELDS.items():
        if overrides.get(key) is not None:
            resolved[key] = overrides[key]
        elif key in file_values:
            try:
                resolved[key] = convert(file_values[key])
            except ValueError as exc:
                raise ParameterDomainError(
                    f"config key {key!r}: cannot parse {file_values[key]!r}"
                ) from exc
        else:
            resolved[key] = default

    if not (math.isfinite(resolved["k"]) and resolved["k"] > 0.0):
        raise ParameterDomainError(
            f"k must be positive and finite, got {resolved['k']!r}"
        )
    if resolved["const1"] is None:
        # Crest-phase convention: k * const1 = pi/2.
        resolved["const1"] = math.pi / (2.0 * resolved["k"])
    if resolved["solution"] not in SOLUTIONS:
        raise ParameterDomainError(
            f"solution must be one of {SOLUTIONS}, got {resolved['solution']!r}"
        )
    if resolved["format"] not in FORMATS:
        raise ParameterDomainError(
            f"format must be one of {FORMATS}, got {resolved['format']!r}"
        )
    if resolved["samples"] < 2:
        raise ParameterDomainError(f"samples must be >= 2, got {resolved['samples']}")
    if not resolved["t_end"] > resolved["t_start"]:
        raise ParameterDomainError(
            f"need t_end > t_start, got [{resolved['t_start']}, {resolved['t_end']}]"
        )
    return ScenarioConfig(**resolved)
