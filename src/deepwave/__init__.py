"""Particle trajectories beneath small-amplitude deep-water gravity waves.

Closed-form paths (peakon-like and both Jacobi-elliptic cases), the
linear wave field they live in, stagnation-level analysis, and
independent ODE oracles for validating all of it.

Every public name is listed once below, under the module that defines
it, and that module is imported on the name's first use (PEP 562): a
bare ``import deepwave`` loads neither numpy nor any submodule.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "AsymptoteProximityError",
        "ContractViolationError",
        "DeepwaveError",
        "DegenerateRootsError",
        "EmptyReportError",
        "ParameterDomainError",
        "StiffnessError",
    ),
    "wave_field": ("FieldSample", "WaveParams", "evaluate_field", "phase"),
    "special_functions": ("complete_K", "jacobi_sn_cn_dn"),
    "cubic_analysis": (
        "Case1Reduction",
        "Case2Reduction",
        "CubicCoeffs",
        "build_cubic",
        "classify_roots",
        "discriminant",
    ),
    "trajectories": (
        "BetaCandidates",
        "PeakonParams",
        "TrajectorySeries",
        "ZSeries",
        "assemble_xz",
        "asymptote_times",
        "beta_from_initial",
        "case1_dZdt",
        "case1_series",
        "case1_Z",
        "case2_dZdt",
        "case2_series",
        "case2_Z",
        "peakon_path",
        "peakon_residuals",
        "peakon_series",
        "period_case1",
    ),
    "ode_oracle": (
        "IntegratorConfig",
        "ResidualReport",
        "integrate_full",
        "integrate_moving_frame",
        "integrate_truncated",
        "residual_full_Z_ode",
    ),
    "stagnation": ("StagnationReport", "StagnationSolution", "solve_stagnation"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
