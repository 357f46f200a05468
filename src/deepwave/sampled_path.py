"""A closed-form path on a uniform time grid, evaluated whole or in blocks.

Every closed form of trajectories is pointwise in t, so its series over
np.linspace(t_start, t_end, n) can be evaluated STREAM_BLOCK times at a
time and give the same rows, bit for bit: linspace_block repeats
np.linspace's arithmetic for any run of points.  A SampledPath does so
from what the family declares once: the kernel gives Z at the times the
asymptote rule keeps, the columns step x and X from those times and Z
alone, and the metadata is that of every block.

An output that reads the path in passes (SampledPath.passes) keeps Z
from its first pass, 8 B per grid time, when it reads the path column
by column or the grid fits Z_BUDGET: the kernel then runs once per
command, and later passes rebuild each block as plain columns from the
bits the first pass checked.  A larger grid read row by row is
evaluated, and checked, again on each pass, in memory that stays flat
whatever the sample count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from .errors import AsymptoteProximityError, ContractViolationError
from .special_functions import _BLOCK

if TYPE_CHECKING:
    from .trajectories import TrajectorySeries
    from .wave_field import WaveParams

# Grid times per block when a SampledPath is iterated: one block of the
# Jacobi kernel, so each block's arrays stay at 32 kB whatever the sample
# count.
STREAM_BLOCK = _BLOCK

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

# Grid times up to which SampledPath.passes keeps Z between passes for
# every output: 8 MiB of Z.
Z_BUDGET = 1 << 20


class SampledPath:
    """A closed-form path of the wave params on the grid np.linspace(*window)
    of a window whose checks have passed.

    kernel(t) evaluates the closed form at grid times t as (keep, Z, dZdt,
    ...): keep marks the times the asymptote rule keeps (None: all of
    them), Z and dZdt hold the values at those times, and the path reads
    no further value.  columns(t, Z) gives (x, X) at the kept times t from
    Z alone.  meta holds the series' case_tag, period, drift_per_period
    and asymptote_times, and asymptote_x the x of each asymptote line
    inside the window.  A path whose rule keeps no time raises
    AsymptoteProximityError with nearest_time attached.

    series() evaluates the whole grid as one series.  Iterating the path
    evaluates it STREAM_BLOCK times at a time and yields each block that
    keeps a time as a TrajectorySeries; joined, the blocks are the rows of
    series(), bit for bit, and every check of series() raises during the
    iteration.
    """

    def __init__(
        self,
        window: tuple[float, float, int],
        params: WaveParams,
        kernel: Callable[[np.ndarray], tuple],
        columns: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
        meta: dict,
        nearest_time: float | None = None,
        asymptote_x: tuple[float, ...] = (),
    ):
        self.window = window
        self.params = params
        self._kernel = kernel
        self._columns = columns
        self._meta = meta
        self._nearest_time = nearest_time
        self.asymptote_x = asymptote_x
        self._primed = False

    def series(self) -> TrajectorySeries:
        (series,) = self._blocks(self.window[2])
        return series

    def __iter__(self) -> Iterator[TrajectorySeries]:
        return self._stream()

    def passes(self, by_column: bool) -> Iterable[TrajectorySeries | _StoredRows]:
        """The path's blocks for an output that reads them in passes: when
        it reads them column by column, as JSON does, or the grid fits
        Z_BUDGET, the first pass keeps each block's Z (and keep mask), 8 B
        per sample, and later passes rebuild the blocks from it
        (_StoredRows); otherwise the path itself, which runs the kernel
        again on each pass and holds one block at a time."""
        if by_column or self.window[2] <= Z_BUDGET:
            return _RetainedZ(self)
        return self

    def _stream(
        self, stored: list | None = None, record: list | None = None
    ) -> Iterator[TrajectorySeries | _StoredRows]:
        """One streamed pass: _blocks of STREAM_BLOCK times, the first
        after the HEAP_PRIMER allocation."""
        if not self._primed:
            np.empty(HEAP_PRIMER)
            self._primed = True
        return self._blocks(STREAM_BLOCK, stored, record)

    def _blocks(
        self, size: int, stored: list | None = None, record: list | None = None
    ) -> Iterator[TrajectorySeries | _StoredRows]:
        """The non-empty blocks of size grid times: series from the kernel,
        or columns from the (keep, Z) pairs stored by an earlier pass
        (_StoredRows); record, when given, collects those pairs."""
        from .trajectories import TrajectorySeries

        t_start, t_end, n = self.window
        k, last = self.params.k, None
        for i, first in enumerate(range(0, n, size)):
            t = linspace_block(t_start, t_end, n, first, min(first + size, n))
            keep, Z, dZdt = self._kernel(t)[:3] if stored is None else (*stored[i], None)
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
                x, X = self._columns(t, Z)
                yield TrajectorySeries(
                    k=k, c=self.params.c, t=t, x=x, z=Z / k, X=X, Z=Z, dZdt=dZdt,
                    **self._meta,
                )
            else:
                yield _StoredRows(t, Z, self)
        if last is None:
            raise AsymptoteProximityError(
                "every requested sample sits inside the asymptote guard band",
                nearest_time=self._nearest_time,
            )


class _RetainedZ:
    """SampledPath.passes when Z is kept: the first complete pass stores
    (keep, Z) per block, later passes rebuild the blocks from them."""

    def __init__(self, path: SampledPath):
        self._path = path
        self._stored: list | None = None

    def __iter__(self) -> Iterator[TrajectorySeries | _StoredRows]:
        if self._stored is not None:
            yield from self._path._stream(self._stored)
            return
        record: list = []
        yield from self._path._stream(record=record)
        self._stored = record


class _StoredRows:
    """A block of path rebuilt from its kept times and stored Z, whose
    checks passed in the first pass: the sample columns only.  t and Z are
    as kept; z = Z/k and x and X (one columns call) are computed on first
    use, so a pass that reads only t, z or Z (a JSON column) calls no
    columns step, and the CSV and the SVG of one pass share one call."""

    def __init__(self, t: np.ndarray, Z: np.ndarray, path: SampledPath):
        self.t, self.Z, self._path = t, Z, path

    def __getattr__(self, name: str) -> np.ndarray:
        if name == "z":
            self.z = self.Z / self._path.params.k
        elif name in ("x", "X"):
            self.x, self.X = self._path._columns(self.t, self.Z)
        else:
            raise AttributeError(f"a rebuilt block has no {name!r}")
        return self.__dict__[name]


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
