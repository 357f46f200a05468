"""Sampled series records: ZSeries (Z over t) and TrajectorySeries (a whole
particle path in both frames), each checked once, on construction.

Every path of the package ends in one of these records: the closed forms
through sampled_path.SampledPath, the oracles and assemble_xz directly.
The checks run on every construction, so they are written to cost few
numpy calls: each temporary is made once and then updated in place, and
each reduction is an array method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

CASE_TAGS = ("peakon", "case1", "case2", "oracle-full")


@dataclass(frozen=True)
class ZSeries:
    """Sampled vertical moving-frame coordinate Z(t).

    dZdt is optional; closed forms fill it analytically, integrators fill
    it from the right-hand side.  blowup_time is set by the truncated
    integrator when the sample window was cut short by an escape event.
    Arrays are treated as immutable once stored.
    """

    t: np.ndarray
    Z: np.ndarray
    dZdt: np.ndarray | None = None
    blowup_time: float | None = None

    def __post_init__(self):
        _store_samples(self, ("t", "Z"))


@dataclass(frozen=True)
class TrajectorySeries:
    """Sampled particle path with both physical and moving-frame samples.

    Invariants checked on construction: those of _store_samples, and the
    frame maps X = k(x - ct), Z = k z hold at every sample.
    """

    k: float
    c: float
    t: np.ndarray
    x: np.ndarray
    z: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    case_tag: str
    period: float | None = None
    drift_per_period: float | None = None
    asymptote_times: tuple[float, ...] | None = None
    dZdt: np.ndarray | None = None

    def __post_init__(self):
        if self.case_tag not in CASE_TAGS:
            raise ContractViolationError(f"unknown case tag {self.case_tag!r}")
        t = _store_samples(self, ("t", "x", "z", "X", "Z"))
        k = self.k
        # Frame consistency, with the tolerance scaled by the phases k c t
        # and X, whose rounding floors grow on long runs:
        # |X - k (x - c t)| <= 1e-12 max(1, |k c t|, |X|).
        bound = np.abs(k * self.c * t)
        np.maximum(bound, 1.0, out=bound)
        gap = np.abs(self.X)
        np.maximum(bound, gap, out=bound)
        bound *= 1e-12
        np.multiply(self.c, t, out=gap)
        np.subtract(self.x, gap, out=gap)
        gap *= k
        np.subtract(self.X, gap, out=gap)
        np.abs(gap, out=gap)
        if (gap > bound).any():
            raise ContractViolationError("X samples violate X = k(x - ct)")
        # |Z - k z| <= 1e-12 max(1, |Z|).
        np.abs(self.Z, out=bound)
        np.maximum(bound, 1.0, out=bound)
        bound *= 1e-12
        np.multiply(k, self.z, out=gap)
        np.subtract(self.Z, gap, out=gap)
        np.abs(gap, out=gap)
        if (gap > bound).any():
            raise ContractViolationError("Z samples violate Z = k z")


def _store_samples(series, names: tuple[str, ...]) -> np.ndarray:
    """Store the named sample fields of series, and dZdt when set, as float
    arrays of one non-empty 1-d shape with t finite and strictly
    increasing; returns t."""
    if series.dZdt is not None:
        names += ("dZdt",)
    arrays = [np.asarray(getattr(series, name), dtype=float) for name in names]
    t = arrays[0]
    if t.ndim != 1 or t.size == 0 or len({a.shape for a in arrays}) > 1:
        raise ContractViolationError("series arrays must share one non-empty 1-d shape")
    # Finite ends and strict increase make every time finite, NaN excluded:
    # a NaN or infinite time fails the comparison with a neighbour.
    if not (math.isfinite(t[0]) and math.isfinite(t[-1]) and (t[1:] > t[:-1]).all()):
        raise ContractViolationError("series times must be finite and increase strictly")
    for name, values in zip(names, arrays):
        object.__setattr__(series, name, values)
    return t
