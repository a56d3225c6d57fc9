"""In-memory spans recorded around the benchmark's own calls into ``repro``.

A span has a name (``<layer>.<call>``), start and end (``perf_counter``
seconds), the index of its parent span and a request id.  Spans stay in
memory and are written out once, when the run ends.  With tracing off,
:meth:`Tracer.span` returns a shared no-op context manager, so the
untraced run executes the same calls with (almost) nothing around them.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "request", "index")

    def __init__(self, tracer: "Tracer", name: str, request) -> None:
        self.tracer = tracer
        self.name = name
        self.request = request

    def __enter__(self) -> "_Span":
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent, self.request])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc_info) -> None:
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._stack.pop()


class Tracer:
    """Collects spans when ``enabled``; otherwise every span is a no-op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str, request=None):
        if not self.enabled:
            return _NULL
        return _Span(self, name, request)

    def self_times(self) -> Dict[str, float]:
        """Self time summed per layer: each span minus its children's time.

        Children never overlap (the benchmark is single-threaded), so the
        part of a span that its children cover is the sum of their lengths.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (end - start) - child_time[i]
        return totals

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path: Optional[str]) -> None:
        if not path:
            return
        keys = ("name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def span_cost(samples: int = 20_000) -> float:
    """Seconds one enter/exit pair of a nested span costs on this machine."""
    tracer = Tracer(True)
    with tracer.span("bench.calibrate"):
        start = time.perf_counter()
        for _ in range(samples):
            with tracer.span("bench.noop"):
                pass
        elapsed = time.perf_counter() - start
    return elapsed / samples
