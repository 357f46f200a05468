"""Particle trajectories beneath small-amplitude deep-water gravity waves.

Closed-form paths (peakon-like and both Jacobi-elliptic cases), the
linear wave field they live in, stagnation-level analysis, and
independent ODE oracles for validating all of it.
"""

from .errors import (
    AsymptoteProximityError,
    ContractViolationError,
    DeepwaveError,
    DegenerateRootsError,
    EmptyReportError,
    ParameterDomainError,
    StiffnessError,
)
from .wave_field import (
    FieldSample,
    WaveParams,
    evaluate_field,
    phase,
)
from .special_functions import complete_K, jacobi_sn_cn_dn
from .cubic_analysis import (
    Case1Reduction,
    Case2Reduction,
    CubicCoeffs,
    build_cubic,
    classify_roots,
    discriminant,
)
from .trajectories import (
    BetaCandidates,
    PeakonParams,
    TrajectorySeries,
    ZSeries,
    assemble_xz,
    asymptote_times,
    beta_from_initial,
    case1_dZdt,
    case1_series,
    case1_Z,
    case2_dZdt,
    case2_series,
    case2_Z,
    peakon_path,
    peakon_residuals,
    peakon_series,
    period_case1,
)
from .ode_oracle import (
    IntegratorConfig,
    ResidualReport,
    integrate_full,
    integrate_moving_frame,
    integrate_truncated,
    residual_full_Z_ode,
)
from .stagnation import (
    StagnationReport,
    StagnationSolution,
    solve_stagnation,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoteProximityError",
    "BetaCandidates",
    "Case1Reduction",
    "Case2Reduction",
    "ContractViolationError",
    "CubicCoeffs",
    "DeepwaveError",
    "DegenerateRootsError",
    "EmptyReportError",
    "FieldSample",
    "IntegratorConfig",
    "ParameterDomainError",
    "PeakonParams",
    "ResidualReport",
    "StagnationReport",
    "StagnationSolution",
    "StiffnessError",
    "TrajectorySeries",
    "WaveParams",
    "ZSeries",
    "assemble_xz",
    "asymptote_times",
    "beta_from_initial",
    "build_cubic",
    "case1_Z",
    "case1_dZdt",
    "case1_series",
    "case2_Z",
    "case2_dZdt",
    "case2_series",
    "classify_roots",
    "complete_K",
    "discriminant",
    "evaluate_field",
    "integrate_full",
    "integrate_moving_frame",
    "integrate_truncated",
    "jacobi_sn_cn_dn",
    "peakon_path",
    "peakon_residuals",
    "peakon_series",
    "period_case1",
    "phase",
    "residual_full_Z_ode",
    "solve_stagnation",
    "__version__",
]
