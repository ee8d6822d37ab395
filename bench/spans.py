"""In-memory span recording around calls into colorwalk.

A span is (name, start, end, parent, counts). ``Tracer.wrap`` replaces a
function on the module its caller looks it up from, so calls the program
makes internally are recorded too. Self time is a span's duration minus
the durations of its direct children (calls nest, so children never
overlap).
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

# counts that are maxima over calls, not sums
MAX_COUNTS = {"degeneracy"}


class Tracer:
    """Spans of one process, in the order they opened."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None, "counts": {}}
        self.spans.append(rec)
        self._open.append(index)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Record a span named ``name`` around every call of module.attr.

        ``count(args, kwargs, result)`` returns counts to attach to the span.
        """
        inner = getattr(module, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = inner(*args, **kwargs)
                if count is not None:
                    counts.update(count(args, kwargs, result))
            return result

        setattr(module, attr, traced)

    def durations(self) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans]

    def self_times(self) -> list[float]:
        durations = self.durations()
        out = list(durations)
        for s, d in zip(self.spans, durations):
            if s["parent"] is not None:
                out[s["parent"]] -= d
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total, self and summed counts (max for
        names listed in MAX_COUNTS)."""
        out: dict[str, dict] = {}
        for s, d, own in zip(self.spans, self.durations(), self.self_times()):
            agg = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0, "counts": {}})
            agg["calls"] += 1
            agg["total_s"] += d
            agg["self_s"] += own
            for key, value in s["counts"].items():
                prev = agg["counts"].get(key, 0)
                agg["counts"][key] = max(prev, value) if key in MAX_COUNTS else prev + value
        return out

    def top_level_between(self, t0: float, t1: float) -> float:
        """Summed duration of root spans that lie inside [t0, t1]."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] is None and s["start"] >= t0 and s["end"] <= t1)

