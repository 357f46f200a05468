"""Stagnation levels of the vertical motion below the wave.

A particle's vertical rate vanishes exactly where the squared envelope
meets the squared phase term,

    k^2 A^2 e^{2Z} = (k c Z - beta)^2,

which factors into two strictly convex branches

    f_plus(Z)  = k |A| e^Z + (k c Z - beta),
    f_minus(Z) = k |A| e^Z - (k c Z - beta).

A root of f_minus is a level where cos X = sign(A) (crest-aligned for
A > 0); a root of f_plus has the opposite alignment.  For c > 0 the
plus branch is strictly increasing, so it carries at most one root
while the minus branch carries at most two: never more than three
stagnation levels in total (the roles swap for direction = -1).

Convexity (f'' = k|A| e^Z > 0) brackets the roots: a branch's only
critical point, Z_c = log(-sigma c / |A|) when sigma c < 0, splits the
window into at most two monotone pieces holding at most one root each,
polished by a bisection-Newton hybrid.  |f(Z_c)| <= 1e-8 flags a
tangency: a double root (f(Z_c) = 0, reported only as the tangency) or
an unresolvable pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, EmptyReportError, ParameterDomainError
from .trajectories import TrajectorySeries
from .wave_field import WaveParams

# Windows extending beyond this would overflow exp().
Z_OVERFLOW = 700.0

RESIDUAL_RTOL = 1e-10
TANGENCY_TOL = 1e-8

# Placement of a stagnation level relative to a sampled trajectory.
ON_TRAJECTORY = "on-trajectory"
INSIDE_BAND = "inside-band"
OUTSIDE_BAND = "outside-band"


@dataclass(frozen=True)
class StagnationSolution:
    """One stagnation level Z_star.

    branch is "plus" or "minus" (see module docstring); residual is
    |k|A| e^{Z*} - |k c Z* - beta||.  tangency marks a branch minimum
    Z_c with |f(Z_c)| <= TANGENCY_TOL: a double root (f(Z_c) = 0, which
    is then not also a plain level), or a pair too close to resolve,
    reported at Z_c whether or not the pair's plain roots are also
    reported; the residual bound of plain roots does not apply to it.
    """

    Z_star: float
    branch: str
    residual: float
    tangency: bool = False


@dataclass(frozen=True)
class StagnationReport:
    solutions: tuple[StagnationSolution, ...]
    search_interval: tuple[float, float]
    grid_size: int


@dataclass(frozen=True)
class AnnotatedStagnation:
    """A stagnation level with its placement relative to one trajectory."""

    solution: StagnationSolution
    placement: str


def solve_stagnation(
    params: WaveParams,
    beta: float,
    Z_min: float = -20.0,
    Z_max: float = 5.0,
    grid: int = 4096,
) -> StagnationReport:
    """All stagnation levels in [Z_min, Z_max].

    grid is validated and echoed as StagnationReport.grid_size; the
    analytic bracketing does not use it.

    Raises
    ------
    ParameterDomainError
        For an empty or overflowing window, or grid < 1000.
    EmptyReportError
        When the window contains no stagnation level.
    """
    if not (math.isfinite(Z_min) and math.isfinite(Z_max) and Z_min < Z_max):
        raise ParameterDomainError(
            f"need finite Z_min < Z_max, got [{Z_min}, {Z_max}]"
        )
    if Z_max > Z_OVERFLOW:
        raise ParameterDomainError(
            f"Z_max={Z_max} reaches exp() overflow territory (limit {Z_OVERFLOW})"
        )
    if grid < 1000:
        raise ParameterDomainError(f"grid must be at least 1000, got {grid}")
    if not math.isfinite(beta):
        raise ParameterDomainError(f"beta must be finite, got {beta}")

    kA = params.k * abs(params.A)
    kc = params.k * params.c
    if kA == 0.0:
        raise ParameterDomainError(f"k|A| underflows to 0 for {params}")
    solutions = []
    for sigma in (1.0, -1.0):
        solutions.extend(_branch_roots(kA, kc, beta, sigma, Z_min, Z_max))
    if not solutions:
        raise EmptyReportError(
            f"no stagnation level in [{Z_min}, {Z_max}] for beta={beta}"
        )
    solutions.sort(key=lambda s: s.Z_star)
    return StagnationReport(
        solutions=tuple(solutions),
        search_interval=(Z_min, Z_max),
        grid_size=grid,
    )


def stagnation_on_trajectory(
    report: StagnationReport, series: TrajectorySeries
) -> tuple[AnnotatedStagnation, ...]:
    """Place each stagnation level relative to a sampled trajectory.

    "on-trajectory" means some Z sample lies within 1e-6 of the level;
    "inside-band" means the level lies in the sampled Z range (for the
    peakon the band is unbounded below, since Z covers every level below
    its sampled peak at some time outside any finite window);
    "outside-band" otherwise.
    """
    Z = series.Z
    z_lo = -math.inf if series.case_tag == "peakon" else float(np.min(Z))
    z_hi = float(np.max(Z))
    annotated = []
    for sol in report.solutions:
        gap = float(np.min(np.abs(Z - sol.Z_star)))
        if gap < 1e-6:
            placement = ON_TRAJECTORY
        elif z_lo <= sol.Z_star <= z_hi:
            placement = INSIDE_BAND
        else:
            placement = OUTSIDE_BAND
        annotated.append(AnnotatedStagnation(solution=sol, placement=placement))
    return tuple(annotated)


def _branch_roots(
    kA: float, kc: float, beta: float, sigma: float, Z_min: float, Z_max: float
) -> list[StagnationSolution]:
    branch = "plus" if sigma > 0.0 else "minus"

    def f(Z: float) -> float:
        return kA * math.exp(Z) + sigma * (kc * Z - beta)

    def fprime(Z: float) -> float:
        return kA * math.exp(Z) + sigma * kc

    # The monotone pieces of this convex branch, split at its critical point.
    ends = [Z_min, Z_max]
    Zc = math.log(-sigma * kc / kA) if sigma * kc < 0.0 else math.nan
    if Z_min <= Zc <= Z_max:
        ends.insert(1, Zc)
    values = [f(Z) for Z in ends]
    out = []
    if len(ends) == 3 and abs(values[1]) <= TANGENCY_TOL:
        out.append(StagnationSolution(Zc, branch, _residual(kA, kc, beta, Zc), True))
        if values[1] == 0.0:
            return out  # a double root: the convex branch touches 0 only there
    for i in range(len(ends) - 1):
        flo, fhi = values[i], values[i + 1]
        if min(flo, fhi) > 0.0 or max(flo, fhi) < 0.0:
            continue  # no sign change on this piece
        Z_star = _refine(f, fprime, ends[i], ends[i + 1])
        residual = _residual(kA, kc, beta, Z_star)
        if residual > RESIDUAL_RTOL * max(kA * math.exp(Z_star), 1.0):
            raise ContractViolationError(
                f"stagnation root at Z={Z_star} kept residual {residual:.3e}"
            )
        out.append(StagnationSolution(Z_star, branch, residual))
    return out


def _residual(kA: float, kc: float, beta: float, Z: float) -> float:
    return abs(kA * math.exp(Z) - abs(kc * Z - beta))


def _refine(f, fprime, lo: float, hi: float) -> float:
    """Bisection-Newton hybrid on a bracketing interval."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    x = 0.5 * (lo + hi)
    for _ in range(200):
        fx = f(x)
        if fx == 0.0:
            return x
        if flo * fx < 0.0:
            hi = x
        else:
            lo, flo = x, fx
        if hi - lo <= 1e-13 * max(1.0, abs(x)):
            break
        dfx = fprime(x)
        if dfx != 0.0:
            x_newton = x - fx / dfx
            if lo < x_newton < hi:
                x = x_newton
                continue
        x = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)
