"""Spans recorded by the benchmark around its own calls into persinet.

A span has an id, a parent, a name, a start, an end and an optional work
count (calls made, states built, words searched).  Spans stay in memory
until the run ends; a layer's self time is its span time minus the time of
its child spans.  With tracing off, `span` hands back one shared no-op
context, so the untraced run pays one method call per boundary.
"""

from __future__ import annotations

import json
import time


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def add(self, count):
        pass

    id = None


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.record[3] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[4] = time.perf_counter()
        self.tracer._stack.pop()
        return False

    def add(self, count):
        self.record[5] += count

    @property
    def id(self):
        return self.record[0]


class Tracer:
    """Collects [id, parent, name, start, end, count, round] records."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.round = 0
        self._stack = []

    def span(self, name):
        """Context manager for one span; `.add(n)` on it records work done."""
        if not self.enabled:
            return _NO_SPAN
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), parent, name, 0.0, 0.0, 0, self.round]
        self.spans.append(record)
        self._stack.append(record[0])
        return _Span(self, record)

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named after the layer call."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self, scales):
        """Per round, per span name: [self seconds, count, spans].

        scales maps a span id to the factor its times are multiplied by;
        spans below it inherit the factor.
        """
        factor = [1.0] * len(self.spans)
        child = [0.0] * len(self.spans)
        for sid, parent, _, start, end, _, _ in self.spans:
            if sid in scales:
                factor[sid] = scales[sid]
            elif parent is not None:
                factor[sid] = factor[parent]
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, _, name, start, end, count, rnd in self.spans:
            acc = out.setdefault(rnd, {}).setdefault(name, [0.0, 0, 0])
            acc[0] += (end - start - child[sid]) * factor[sid]
            acc[1] += count
            acc[2] += 1
        return out

    def write(self, path, scales):
        """Spans as recorded (raw seconds) and the speed-probe factor of each
        decision span, from which self_times derives the layer metrics."""
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "count", "round"],
                       "spans": self.spans, "scales": scales}, fh)
            fh.write("\n")
