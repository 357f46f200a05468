"""Spans recorded in the benchmark's own code around calls into deepwave.

A span records its name, the layer (package module) it enters, start and
end on the perf_counter clock, its parent span and the op it belongs to.
Spans stay in memory until the run writes them out.  The package itself
is never patched or wrapped.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op: int | None = None

    @contextmanager
    def op(self, label: str):
        """Root span of one op; every span inside it shares its op id."""
        self._op = len(self.spans)
        with self.span(label, "op"):
            yield
        self._op = None

    @contextmanager
    def span(self, name: str, layer: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_time_by_layer(self) -> dict[str, float]:
        """Span duration minus the time its child spans cover, per layer."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_time[s["id"]]
            totals[s["layer"]] = totals.get(s["layer"], 0.0) + own
        return dict(sorted(totals.items()))


class NullTracer:
    """Same interface as Tracer, recording nothing."""

    def op(self, label: str):
        return nullcontext()

    def span(self, name: str, layer: str):
        return nullcontext()
