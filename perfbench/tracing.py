"""In-memory spans around the benchmark's calls into ``repro``.

A :class:`Tracer` records one span per call the benchmark makes into a
layer: its name, start, end, the span that caused it, and the id of the
point or request it belongs to.  Spans stay in memory and are written
out once, when the run ends, as Chrome trace-event JSON -- the format
Perfetto and ``chrome://tracing`` open, and the one later in-program
spans are to use, so both land in the same file.

A disabled tracer hands out one shared no-op context manager, so the
untraced runs that give the end-to-end metrics pay one attribute load
and one method call per span site.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, List, Optional


class _Span:
    __slots__ = ("tracer", "name", "group", "span_id", "parent", "start",
                 "end")

    def __init__(self, tracer: "Tracer", name: str, group: Optional[str]):
        self.tracer = tracer
        self.name = name
        self.group = group

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        stack = tracer._stack
        self.parent = stack[-1].span_id if stack else None
        if self.group is None and stack:
            self.group = stack[-1].group
        self.span_id = len(tracer.spans)
        tracer.spans.append(self)
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        self.tracer._stack.pop()


_NO_SPAN = contextlib.nullcontext()


class Tracer:
    """Collects nested spans from one thread (the benchmark's own)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[_Span] = []
        self._stack: List[_Span] = []
        self.origin = time.perf_counter()

    def span(self, name: str, group: Optional[str] = None):
        """Context manager timing one call; ``group`` ties the spans of
        one point or request together (children inherit it)."""
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name, group)

    def covered_seconds(self, start: float, end: float) -> float:
        """Summed duration of root spans that began in ``[start, end)``."""
        return sum(s.end - s.start for s in self.spans
                   if s.parent is None and start <= s.start < end)

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the time its children cover.

        Children run nested inside their parent on the same thread, so
        subtracting their durations leaves the parent's own time.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = span.end - span.start - child_time[span.span_id]
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def write_chrome_trace(self, path: str, process_name: str) -> None:
        """Write every span as a complete ("X") trace event, in µs."""
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": process_name}}]
        for span in self.spans:
            args = {"span": span.span_id}
            if span.parent is not None:
                args["parent"] = span.parent
            if span.group is not None:
                args["id"] = span.group
            events.append({
                "name": span.name, "cat": span.name.split(".")[0],
                "ph": "X", "pid": 1, "tid": 1,
                "ts": round((span.start - self.origin) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "args": args,
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
