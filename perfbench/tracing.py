"""Spans recorded by the benchmark around its own calls into the library.

A span is (id, parent id, name, request id, start ns, end ns, error type).
The layer of a span is its name up to the first dot; spans the benchmark
opens for its own bookkeeping (rounds, requests, artifacts) use ``bench``.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class NoTracer:
    """Untraced runs: calls go straight through, nothing is recorded."""

    enabled = False

    def call(self, name, rid, fn, *args):
        return fn(*args)

    def span(self, name, rid):
        return _NULL


class Tracer:
    """Traced runs: every call and span becomes one in-memory record."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def call(self, name, rid, fn, *args):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args)
        except BaseException as exc:
            self.spans[sid] = (sid, parent, name, rid, t0, time.perf_counter_ns(),
                               type(exc).__name__)
            raise
        self.spans[sid] = (sid, parent, name, rid, t0, time.perf_counter_ns(), None)
        return result

    @contextlib.contextmanager
    def span(self, name, rid):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        error = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, rid, t0, time.perf_counter_ns(), error)

    def durations(self, name: str, ok_only: bool = False) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [
            (end - start) * 1e-9
            for _sid, _parent, span_name, _rid, start, end, error in self.spans
            if span_name == name and not (ok_only and error)
        ]

    def durations_prefix(self, prefix: str) -> list[float]:
        return [
            (end - start) * 1e-9
            for _sid, _parent, span_name, _rid, start, end, _error in self.spans
            if span_name.startswith(prefix)
        ]

    def self_time_by_layer(self) -> dict[str, float]:
        """Seconds per layer of span time not covered by child spans."""
        child_time = defaultdict(int)
        for _sid, parent, _name, _rid, start, end, _error in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for sid, _parent, name, _rid, start, end, _error in self.spans:
            layer = name.split(".", 1)[0]
            totals[layer] += (end - start - child_time[sid]) * 1e-9
        return dict(totals)

    def write(self, path) -> None:
        keys = ("id", "parent", "name", "request", "start_ns", "end_ns", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")
