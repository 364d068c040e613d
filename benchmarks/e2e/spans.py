"""In-memory span recorder for the end-to-end benchmark's traced runs.

A span is one call into a layer: name, start, end, the span that caused
it (``parent``) and the unit (benchmark name or store digest) it worked
for.  Spans are kept in memory and written out once, as Chrome-trace
JSON, when the run ends.  A span's *self time* is its duration minus the
part of that interval its child spans cover, so the self times of a
tree add up to the root's duration and every second lands in one layer.

Nothing here imports ``repro``: the recorder is attached to the program
from outside (see ``layers.py``).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    unit: str | None
    tid: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Records nested spans, one stack of open spans per thread."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(self, name: str, unit: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if unit is None and parent is not None:
            unit = parent.unit
        span = Span(next(self._ids), name, self.clock(), None,
                    parent.id if parent is not None else None, unit,
                    threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span`` and any descendant an exception left open."""
        now = self.clock()
        stack = self._stack()
        while stack:
            top = stack.pop()
            top.end = now
            if top is span:
                return
        raise RuntimeError(f"span {span.name!r} is not open on this thread")

    def wrap(self, name: str, fn, unit_of=None):
        """``fn`` timed as a span; ``unit_of(*args, **kwargs)`` names the
        unit, otherwise the enclosing span's unit is inherited."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(
                name, unit_of(*args, **kwargs) if unit_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return traced


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span.id: span.duration
            - covered(span.start, span.end, children[span.id])
            for span in spans}


@dataclass
class Total:
    calls: int = 0
    self_s: float = 0.0
    inclusive_s: float = 0.0


def totals(spans) -> dict[str, Total]:
    """Per span name: call count, summed self time, summed duration."""
    own = self_times(spans)
    out: dict[str, Total] = defaultdict(Total)
    for span in spans:
        total = out[span.name]
        total.calls += 1
        total.self_s += own[span.id]
        total.inclusive_s += span.duration
    return out


def write_chrome_trace(spans, path: str) -> None:
    """Complete ("X") events, microseconds, loadable in chrome://tracing."""
    events = [{
        "name": span.name, "cat": span.name.split(".", 1)[0], "ph": "X",
        "ts": round(span.start * 1e6, 3),
        "dur": round(span.duration * 1e6, 3),
        "pid": os.getpid(), "tid": span.tid,
        "args": {"id": span.id, "parent": span.parent, "unit": span.unit},
    } for span in spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
