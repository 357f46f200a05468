"""A closed-form path on a uniform time grid, evaluated whole or in blocks.

Every closed form of trajectories is pointwise in t, so its series over
np.linspace(t_start, t_end, n) can be evaluated STREAM_BLOCK times at a
time and give the same rows, bit for bit: linspace_block repeats
np.linspace's arithmetic for any run of points.  A SampledPath does so
from two steps the series builders supply: the kernel gives Z at the
times the asymptote rule keeps, and the assembly builds the series (x,
z, X and the checks) from those times and Z alone, so a pass that keeps
Z can build the rows again without the kernel.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from .errors import AsymptoteProximityError, ContractViolationError

if TYPE_CHECKING:
    from .trajectories import TrajectorySeries

# Grid times per block when a SampledPath is iterated: one block of the
# Jacobi kernel (special_functions._BLOCK), so each block's arrays stay at
# 32 kB whatever the sample count.
STREAM_BLOCK = 4096

# A streamed pass allocates and frees block-sized arrays, and so does the
# decimal writer after it.  glibc maps an allocation above its mmap
# threshold (128 KiB at start) to fresh pages and gives a free heap top
# above twice that back to the system, so every block would fault its
# pages in again.  Freeing one larger mapped allocation raises both
# thresholds to its size (mallopt(3)); a whole-series build does so with
# its own arrays.  A path's first streamed pass allocates and frees this
# many float64 values first (4 MiB), never written, so never resident;
# doing so again on later passes left some runs 2 MB larger.
HEAP_PRIMER = 1 << 19


class SampledPath:
    """A closed-form path of wavenumber k on the grid np.linspace(*window)
    of a window whose checks have passed.

    kernel(t) evaluates the closed form at grid times t as (keep, Z, dZdt):
    keep marks the times the asymptote rule keeps (None: all of them), Z
    and dZdt hold the values at those times.  assemble(t, Z, dZdt) builds
    the series of the kept times t from Z alone; dZdt is attached and may
    be None.  A path whose rule keeps no time raises
    AsymptoteProximityError with nearest_time attached.

    series() evaluates the whole grid as one series.  Iterating the path
    evaluates it STREAM_BLOCK times at a time and yields each block that
    keeps a time; joined, the blocks are the rows of series(), bit for
    bit, and every check of series() raises during the iteration.
    """

    def __init__(
        self,
        window: tuple[float, float, int],
        k: float,
        kernel: Callable[[np.ndarray], tuple],
        assemble: Callable[..., TrajectorySeries],
        nearest_time: float | None = None,
    ):
        self.window = window
        self.k = k
        self._kernel = kernel
        self._assemble = assemble
        self._nearest_time = nearest_time
        self._primed = False

    def series(self) -> TrajectorySeries:
        (series,) = self._blocks(self.window[2])
        return series

    def __iter__(self) -> Iterator[TrajectorySeries]:
        return self._stream()

    def retaining_Z(self) -> Iterable[TrajectorySeries]:
        """The path's blocks, re-iterable, with the kernel run on the first
        pass only: that pass keeps each block's Z (and keep mask, where a
        time was dropped), about 8 B per sample, and later passes rebuild
        the blocks from them (_StoredRows)."""
        return _RetainedZ(self)

    def _stream(
        self, stored: list | None = None, record: list | None = None
    ) -> Iterator[TrajectorySeries]:
        """One streamed pass: _blocks of STREAM_BLOCK times, the first
        after the HEAP_PRIMER allocation."""
        if not self._primed:
            np.empty(HEAP_PRIMER)
            self._primed = True
        return self._blocks(STREAM_BLOCK, stored, record)

    def _blocks(
        self, size: int, stored: list | None = None, record: list | None = None
    ) -> Iterator[TrajectorySeries]:
        """The non-empty blocks of size grid times, from the kernel or from
        the (keep, Z) pairs stored by an earlier pass (as _StoredRows);
        record, when given, collects those pairs."""
        t_start, t_end, n = self.window
        last = None
        for i, first in enumerate(range(0, n, size)):
            t = linspace_block(t_start, t_end, n, first, min(first + size, n))
            keep, Z, dZdt = self._kernel(t) if stored is None else (*stored[i], None)
            if keep is not None:
                if keep.all():
                    keep = None
                else:
                    t = t[keep]
            if record is not None:
                record.append((keep, Z))
            if t.size == 0:
                continue
            # One series' strict increase, across the block edges too.
            if last is not None and not t[0] > last:
                raise ContractViolationError(
                    "series times must be finite and increase strictly"
                )
            last = t[-1]
            if stored is None:
                yield self._assemble(t, Z, dZdt)
            else:
                yield _StoredRows(t, Z, self)
        if last is None:
            raise AsymptoteProximityError(
                "every requested sample sits inside the asymptote guard band",
                nearest_time=self._nearest_time,
            )


class _RetainedZ:
    """SampledPath.retaining_Z: the first complete pass stores (keep, Z)
    per block, later passes rebuild the blocks from them."""

    def __init__(self, path: SampledPath):
        self._path = path
        self._stored: list | None = None

    def __iter__(self) -> Iterator[TrajectorySeries]:
        if self._stored is not None:
            yield from self._path._stream(self._stored)
            return
        record: list = []
        yield from self._path._stream(record=record)
        self._stored = record


class _StoredRows:
    """A block of path rebuilt from its kept times and stored Z: t, Z and
    z = Z/k at once, every other field from one assembly on first use, so
    a pass that reads only t, z or Z (a JSON column) assembles nothing."""

    def __init__(self, t: np.ndarray, Z: np.ndarray, path: SampledPath):
        self.t, self.Z, self._path = t, Z, path

    @property
    def z(self) -> np.ndarray:
        return self.Z / self._path.k

    @functools.cached_property
    def _series(self) -> TrajectorySeries:
        return self._path._assemble(self.t, self.Z, None)

    def __getattr__(self, name: str):
        return getattr(self._series, name)


def linspace_block(
    start: float, stop: float, num: int, first: int, end: int
) -> np.ndarray:
    """Points first .. end - 1 of np.linspace(start, stop, num), bit for
    bit: i * step + start (i / (num - 1) * (stop - start) where the step
    underflows to zero), with the last point pinned to stop, which are
    the operations np.linspace performs."""
    div = num - 1
    delta = stop - start
    step = delta / div
    t = np.arange(first, end, dtype=float)
    if step == 0.0:
        t /= div
        t *= delta
    else:
        t *= step
    t += start
    if end == num:
        t[-1] = stop
    return t
