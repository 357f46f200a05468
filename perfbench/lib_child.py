"""lib-sweep child process: python3 perfbench/lib_child.py SPEC.json OUT.json

Runs passes over the drawn scenarios for about spec["seconds"]
(timing.more_passes), one op at a time, timing only the library calls,
and times the calibration loop (timing.py) after every BLOCK ops.
Writes per-op latencies, the loop timings with the op time of the block
before each, the first pass's check data (one JSON string per op), every
op's output digest and this process's peak RSS to OUT.json.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import timing
from ops import guarded, lib_op, lib_summary
from tracing import NullTracer

BLOCK = 32  # ops between calibration loops, about 0.25 s


def main(spec_path: str, out_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    draws = spec["draws"]
    tr = NullTracer()
    passes = []
    loops = []
    summaries = None
    started = time.perf_counter()
    while timing.more_passes(len(passes), time.perf_counter() - started, spec["seconds"]):
        latencies, digests, texts = [], [], []
        for i, draw in enumerate(draws):
            t0 = time.perf_counter()
            raw = guarded(lib_op, draw, tr)
            latencies.append(time.perf_counter() - t0)
            summary = lib_summary(raw)
            digests.append(summary["digest"])
            # Kept as a string, which the cyclic GC does not traverse, so
            # the bookkeeping adds no collector pauses to later timed ops.
            texts.append(json.dumps(summary))
            if i % BLOCK == BLOCK - 1 or i == len(draws) - 1:
                loops.append((timing.loop_s(), sum(latencies[i - i % BLOCK:])))
        passes.append({"latencies": latencies, "digests": digests})
        summaries = summaries or texts
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {"passes": passes, "loops": loops, "summaries": summaries,
              "maxrss_kb": usage.ru_maxrss}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
