"""How a run is timed: how many passes it makes, and the machine-speed
calibration of its end-to-end timings.

Passes.  A run repeats the workload's ops in passes: at least MIN_PASSES
whole passes, then more while the next one is expected to end within
--seconds.  The CLI workloads go on op by op, so the time left after the
last whole pass buys more runs of the ops that come first; lib-sweep,
with 1500 short ops, goes on by whole passes.  A run therefore lasts
about --seconds on any machine, and a faster commit runs its ops more
often.

Calibration.  The benchmark runs on a few cores of a shared host.  Other
tenants slow every instruction stream on it by up to about half, in
stretches that last from seconds to minutes, so a whole run can land in a
slow stretch and no estimator over that run's own ops removes it
(process CPU time drifts with wall time as well).  The benchmark
therefore times a fixed pure-Python loop, which imports nothing from
deepwave, right before and right after every timed child process and
after every block of lib-sweep ops, with nothing else running, and scales
the run's end-to-end timings by

    REFERENCE_S / (mean loop timing)

that is, to seconds of a machine on which the loop takes REFERENCE_S.
The ops of a run get one factor, and its set-up, which runs first,
another.  The mean weighs each loop timing by the op time it stands for
(half of the child it brackets; the block of lib-sweep ops before it).
It is a mean, not a median, because the host alternates between a fast
and a slow speed, and the ops see the mix of the two, not the majority.

REFERENCE_S is the loop's median time on the 2-core Xeon VM the benchmark
was defined on, so calibrated and raw seconds agree there in a typical
stretch.  No change to deepwave can change the loop, so a faster or
slower program moves the calibrated times one for one; only the host's
speed is divided out.  In steady stretches the factor adds a few percent
of noise, because deepwave's code slows by less than the loop does.  Raw
wall times stay in the run record.

This module imports only the standard library: the launcher and the
lib-sweep child use it.
"""

from __future__ import annotations

import math
import time

MIN_PASSES = 2
REFERENCE_S = 0.005  # loop median on the reference machine
REPEATS = 5


def fits(elapsed_s: float, expected_s: float, seconds: float) -> bool:
    """Whether work expected to take expected_s still ends within seconds."""
    return elapsed_s + expected_s <= seconds


def more_passes(done: int, elapsed_s: float, seconds: float) -> bool:
    """Whether a run that has made `done` whole passes in elapsed_s starts another."""
    return done < MIN_PASSES or fits(elapsed_s, elapsed_s / done, seconds)


def _loop() -> float:
    """Float arithmetic, math calls, branches and list appends, as in the
    interpreter-bound parts of deepwave (Landen chains, RK4 steps)."""
    x = 0.0
    kept = []
    for i in range(20_000):
        y = math.sqrt(i + 1.0)
        x += math.sin(y) * y - x * 1e-9
        if i & 7 == 0:
            kept.append(x)
    return x + len(kept)


def loop_s() -> float:
    """Median seconds of REPEATS runs of the calibration loop."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - started)
    return sorted(times)[REPEATS // 2]


class Calibration:
    """A run's loop timings, each with the op time it stands for."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (loop s, weight s)

    def add(self, loop: float, weight: float) -> None:
        self.samples.append((loop, weight))

    def factor(self) -> float:
        """Factor from the run's raw seconds to calibrated seconds."""
        total = sum(w for _, w in self.samples)
        return REFERENCE_S * total / sum(loop * w for loop, w in self.samples)
