"""Independent references for the benchmark's correctness checks.

Nothing here imports deepwave.  The cubic is rebuilt from the physics
(README conventions), its roots come from ``numpy.roots`` plus Newton
polish, and the elliptic functions come from ``scipy.special.ellipj``,
so a fast wrong answer in the package cannot also be the reference.
Every check returns a list of problem strings; an empty list is a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipj, ellipk

Z_TOL = 1e-8  # case 1: |Z - Z_ref| relative to max(1, |Z_ref|)
CN_TOL = 1e-8  # case 2: cn recovered from Z against scipy's cn
PHASE_TOL = 1e-8  # cos X against the conserved combination
# Oracle paths: drift of beta along the sampled rows.  Rows between RK45
# knots come from cubic Hermite dense output, which drifts by ~6e-6 on k1;
# the oracle exists to expose the ~1e-2 truncation gap, so 1e-4 suffices.
BETA_TOL = 1e-4
RESIDUAL_TOL = 1e-8  # stagnation levels
FIELD_RTOL = 1e-10

# Case-2 rows whose phase distance to an asymptote lies between these two
# may legitimately be kept or dropped by the package's guards.
SURE_KEEP = 1e-4
SURE_DROP = 1e-10


@dataclass(frozen=True)
class Scenario:
    k: float
    a: float
    beta: float
    direction: int = 1
    g: float = 9.8

    @property
    def c(self) -> float:
        return self.direction * math.sqrt(self.g / self.k)

    @property
    def A(self) -> float:
        return self.a * self.c * self.k


@dataclass(frozen=True)
class Reduction:
    """Legendre data of the truncated cubic: case 1 or 2, m, C and roots."""

    case: int
    m: float
    C: float
    Z1: float = 0.0
    Z2: float = 0.0
    Z0: float = 0.0
    R: float = 0.0

    @property
    def quarter(self) -> float:
        return float(ellipk(self.m))


def cubic(sc: Scenario) -> tuple[float, float, float, float]:
    """(a3, a2, a1, a0) of P(Z), the cubic truncation of the vertical law
    (a1 and a0 are arrays when sc.beta is)."""
    k, c, A, b = sc.k, sc.c, sc.A, sc.beta
    return (
        4.0 * k * k * A * A / 3.0,
        k * k * (2.0 * A * A - c * c),
        2.0 * k * (k * A * A + b * c),
        k * k * A * A - b * b,
    )


def discriminant_ratio(sc: Scenario):
    """Cubic discriminant over the fourth power of the coefficient scale
    (elementwise when sc.beta is an array)."""
    a, b, c, d = cubic(sc)
    delta = (
        18.0 * a * b * c * d
        - 4.0 * b ** 3 * d
        + b * b * c * c
        - 4.0 * a * c ** 3
        - 27.0 * a * a * d * d
    )
    scale = np.maximum(np.maximum(abs(a), abs(b)), np.maximum(np.abs(c), np.abs(d)))
    return delta / scale ** 4


def _polish(coeffs, Z: float) -> float:
    a3, a2, a1, a0 = coeffs
    for _ in range(4):
        f = ((a3 * Z + a2) * Z + a1) * Z + a0
        fp = (3.0 * a3 * Z + 2.0 * a2) * Z + a1
        if fp == 0.0:
            break
        Z -= f / fp
    return Z


def reduction(sc: Scenario) -> Reduction:
    coeffs = cubic(sc)
    kA = sc.k * abs(sc.A)
    roots = np.roots(coeffs)
    if discriminant_ratio(sc) > 0.0:
        Z1, Z2, Z3 = sorted(_polish(coeffs, float(r.real)) for r in roots)
        return Reduction(
            case=1,
            m=(Z2 - Z1) / (Z3 - Z1),
            C=kA * math.sqrt(Z3 - Z1) / math.sqrt(3.0),
            Z1=Z1,
            Z2=Z2,
        )
    real = min(roots, key=lambda r: abs(r.imag))
    Z0 = _polish(coeffs, float(real.real))
    p = coeffs[1] / coeffs[0] + Z0
    q = coeffs[2] / coeffs[0] + p * Z0
    R = math.sqrt(Z0 * Z0 + p * Z0 + q)
    return Reduction(
        case=2,
        m=0.5 * (1.0 - (Z0 + 0.5 * p) / R),
        C=2.0 / math.sqrt(3.0) * kA * math.sqrt(R),
        Z0=Z0,
        R=R,
    )


def asymptote_distance(red: Reduction, t: np.ndarray) -> np.ndarray:
    """Phase distance |u - (2K mod 4K)| of each time to the nearest asymptote."""
    K = red.quarter
    d = np.remainder(red.C * np.asarray(t) - 2.0 * K, 4.0 * K)
    return np.minimum(d, 4.0 * K - d)


def expected_rows(red: Reduction, t_start: float, t_end: float, n: int):
    """(fewest, most) rows an elliptic series of n requested samples may emit."""
    if red.case == 1:
        return n, n
    dist = asymptote_distance(red, np.linspace(t_start, t_end, n))
    return int(np.count_nonzero(dist >= SURE_KEEP)), int(
        np.count_nonzero(dist > SURE_DROP)
    )


def check_elliptic_rows(sc: Scenario, red: Reduction, t, X, Z) -> list[str]:
    """Z against scipy's Jacobi functions, X against the conserved beta."""
    t, X, Z = (np.asarray(v, dtype=float) for v in (t, X, Z))
    sn, cn, _, _ = ellipj(red.C * t, red.m)
    problems = []
    if red.case == 1:
        ref = red.Z2 * sn * sn + red.Z1 * cn * cn
        err = np.abs(Z - ref) / np.maximum(1.0, np.abs(ref))
        if np.max(err) > Z_TOL:
            problems.append(f"case-1 Z off scipy reference by {np.max(err):.3e}")
    else:
        w = (Z - red.Z0) / red.R
        err = np.abs((1.0 - w) / (1.0 + w) - cn)
        if np.max(err) > CN_TOL:
            problems.append(f"case-2 cn(Z) off scipy reference by {np.max(err):.3e}")
    problems += _check_phase(sc, X, Z)
    return problems


def check_peakon_rows(sc: Scenario, const1: float, const2: float, t, x, X, Z):
    t, x, X, Z = (np.asarray(v, dtype=float) for v in (t, x, X, Z))
    ref = -np.log(np.abs(sc.k * sc.A * t + const2))
    problems = []
    if np.max(np.abs(Z - ref) / np.maximum(1.0, np.abs(ref))) > Z_TOL:
        problems.append("peakon Z off -log|kAt + const2|")
    if np.max(np.abs(x - (sc.c * t + const1))) > 1e-9 * max(1.0, np.max(np.abs(x))):
        problems.append("peakon x off ct + const1")
    if np.max(np.abs(X - sc.k * const1)) > 1e-12 * max(1.0, abs(sc.k * const1)):
        problems.append("peakon X not constant")
    return problems


def check_oracle_rows(sc: Scenario, X, Z) -> list[str]:
    """The untruncated system conserves beta = kcZ - kA e^Z cos X."""
    X, Z = np.asarray(X, dtype=float), np.asarray(Z, dtype=float)
    beta = sc.k * sc.c * Z - sc.k * sc.A * np.exp(Z) * np.cos(X)
    drift = float(np.max(np.abs(beta - sc.beta)))
    return [] if drift <= BETA_TOL else [f"oracle beta drifted by {drift:.3e}"]


def _check_phase(sc: Scenario, X: np.ndarray, Z: np.ndarray) -> list[str]:
    r = (sc.k * sc.c * Z - sc.beta) * np.exp(-Z) / (sc.k * sc.A)
    err = float(np.max(np.abs(np.cos(X) - r)))
    return [] if err <= PHASE_TOL else [f"cos X off the conserved beta by {err:.3e}"]


def stagnation_scan(sc: Scenario, z_min: float, z_max: float, n: int = 200_001):
    """Sign changes of each convex branch kA e^Z +- (kcZ - beta) on a dense
    grid: (total count, crossing locations per branch)."""
    Zg = np.linspace(z_min, z_max, n)
    env = sc.k * abs(sc.A) * np.exp(Zg)
    phase = sc.k * sc.c * Zg - sc.beta
    per_branch = []
    for sigma in (1.0, -1.0):
        f = env + sigma * phase
        per_branch.append(Zg[np.flatnonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0.0)])
    return sum(b.size for b in per_branch), per_branch


def check_stagnation(sc, z_min, z_max, levels, scan_points: int = 200_001) -> list[str]:
    """levels: (Z_star, reported residual, tangency) triples."""
    problems = []
    kA, kc = sc.k * abs(sc.A), sc.k * sc.c
    for Z_star, residual, _ in levels:
        recomputed = abs(kA * math.exp(Z_star) - abs(kc * Z_star - sc.beta))
        if residual > RESIDUAL_TOL or recomputed > RESIDUAL_TOL * max(
            1.0, kA * math.exp(Z_star)
        ):
            problems.append(f"level {Z_star} residual {max(residual, recomputed):.3e}")
    count, _ = stagnation_scan(sc, z_min, z_max, scan_points)
    found = sum(1 for lv in levels if not lv[2])
    if found != count:
        problems.append(f"{found} levels reported, dense scan finds {count}")
    return problems


def check_field(sc: Scenario, point, values) -> list[str]:
    """values: (u, v, p, eta) of the linear field at point (x, z, t)."""
    x, z, t = point
    th = sc.k * (x - sc.c * t)
    env = sc.A * math.exp(sc.k * z)
    ref = (
        env * math.cos(th),
        env * math.sin(th),
        -sc.g * z + sc.a * sc.g * math.exp(sc.k * z) * math.cos(th),
        sc.a * math.cos(th),
    )
    worst = max(abs(v - r) / max(1.0, abs(r)) for v, r in zip(values, ref))
    return [] if worst <= FIELD_RTOL else [f"field off reference by {worst:.3e}"]
