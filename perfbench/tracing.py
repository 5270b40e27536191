"""In-memory spans recorded around the calls the benchmark makes.

A span has a name, start and end (``time.perf_counter`` seconds), the
id of the span open when it began, and the run id shared by every span of
one benchmark run. Spans stay in a list until the run ends and writes
them out as JSON. Nothing inside the package is
instrumented: the benchmark wraps its own calls into the package.
"""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import contextmanager

LAYERS = ("mi", "selector", "evaluation", "models", "baselines", "methods", "dataset", "cli")


class Tracer:
    """Collects spans; ``span`` nests, so each span knows its parent."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # (id, parent id or None, name, start, end)
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, n, start, end in self.spans if n == name]

    def durations_ending(self, suffix: str) -> list[float]:
        return [end - start for _, _, n, start, end in self.spans if n.endswith(suffix)]

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span duration minus the time its children cover.

        Children of one span never overlap (calls are sequential), so the
        covered time is the sum of the children's durations.
        """
        child_time: dict[int, float] = {}
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out = {layer: 0.0 for layer in LAYERS}
        for sid, _, name, start, end in self.spans:
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += (end - start) - child_time.get(sid, 0.0)
        return out

    def records(self) -> list[dict]:
        """The spans as JSON-ready dicts, in start order."""
        return [
            {"id": sid, "parent": parent, "run": self.run_id, "name": name,
             "start": start, "end": end}
            for sid, parent, name, start, end in sorted(self.spans, key=lambda s: s[3])
        ]


class NullTracer:
    """Same interface as :class:`Tracer`, records nothing (untraced runs)."""

    @contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation; values non-empty."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
