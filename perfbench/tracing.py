"""Spans around the benchmark's calls into walletemu, and what they yield.

A span has a name (``<module>.<call>``), a start, an end, the span that
caused it and the id of the request it belongs to.  Spans stay in memory
until the run ends; they then give the per-layer metrics and a Chrome
trace-event file that opens offline in Perfetto or chrome://tracing.

The untraced runs use ``NULL_TRACER``, whose spans record nothing.

``quantile`` is the one percentile definition of the benchmark, used for
the end-to-end latencies and the per-layer call times alike.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter, defaultdict

ROOT = "client.request"


def rank_index(q: float, n: int) -> int:
    """1-based nearest rank of quantile q among n sorted values."""
    return max(1, math.ceil(round(q * n, 9)))


def quantile(ranked: list, q: float):
    """Mean of the order statistics within sqrt(n q (1 - q)) ranks, about
    one standard error, of the nearest rank of q among the sorted values
    ``ranked``; None when any of them is None (a failed request), and 0.0
    for an empty list.  Where the sorted values have a gap, such as between
    requests a garbage collection hit and requests it did not, a single
    order statistic jumps across the gap from run to run; the window mean
    moves by a fraction of it.
    """
    n = len(ranked)
    if n == 0:
        return 0.0
    rank = rank_index(q, n)
    half = math.ceil(math.sqrt(n * q * (1 - q)))
    window = ranked[max(1, rank - half) - 1:min(n, rank + half)]
    if None in window:
        return None
    return sum(window) / len(window)


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every span is the same no-op context manager."""

    def span(self, name: str):
        return _NULL_SPAN

    def request(self):
        return _NULL_SPAN

    def record(self, on: bool) -> None:
        pass


NULL_TRACER = NullTracer()


class _Span:
    __slots__ = ("tracer", "name", "start", "sid", "parent")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.sid = tracer._next_sid
        tracer._next_sid += 1
        self.parent = tracer._stack[-1] if tracer._stack else 0
        tracer._stack.append(self.sid)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter_ns()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans.append((self.name, self.start, end, self.sid,
                             self.parent, tracer.request_id))
        if exc_type is not None:
            tracer.failed[self.name] += 1
        return False


class _Request(_Span):
    """Root span of one client request; gives its hops a shared id."""

    __slots__ = ()

    def __init__(self, tracer: "Tracer"):
        super().__init__(tracer, ROOT)

    def __enter__(self):
        self.tracer._next_request += 1
        self.tracer.request_id = self.tracer._next_request
        return super().__enter__()

    def __exit__(self, exc_type, exc, tb):
        super().__exit__(exc_type, exc, tb)
        self.tracer.request_id = 0
        return False


class Tracer:
    """Tracing on: spans kept in memory as tuples
    (name, start_ns, end_ns, span id, parent span id, request id)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.failed: Counter = Counter()
        self.request_id = 0
        self._next_request = 0
        self._next_sid = 1
        self._stack: list[int] = []
        self.recording = True

    def record(self, on: bool) -> None:
        """Turn recording on or off; spans made while off record nothing."""
        self.recording = on

    def span(self, name: str):
        return _Span(self, name) if self.recording else _NULL_SPAN

    def request(self):
        return _Request(self) if self.recording else _NULL_SPAN

    def call_stats(self, names) -> dict:
        """``<name>.{count,busy_s,p50_ms,p99_ms,failed}`` for each name."""
        durations = defaultdict(list)
        for name, start, end, *_ in self.spans:
            durations[name].append(end - start)
        out = {}
        for name in names:
            ds = sorted(durations.get(name, ()))
            out[f"{name}.count"] = (len(ds), "count")
            out[f"{name}.busy_s"] = (sum(ds) / 1e9, "s")
            out[f"{name}.p50_ms"] = (quantile(ds, 0.50) / 1e6, "ms")
            out[f"{name}.p99_ms"] = (quantile(ds, 0.99) / 1e6, "ms")
            out[f"{name}.failed"] = (self.failed.get(name, 0), "count")
        return out

    def root_self_s(self) -> float:
        """Time inside client requests not covered by their child spans.

        Child spans of one request run one after another on one thread,
        so the part they cover is the sum of their durations.
        """
        root_total = 0
        covered = 0
        roots = set()
        for name, start, end, sid, _parent, _req in self.spans:
            if name == ROOT:
                root_total += end - start
                roots.add(sid)
        for _name, start, end, _sid, parent, _req in self.spans:
            if parent in roots:
                covered += end - start
        return (root_total - covered) / 1e9

    def write_chrome(self, path, metadata: dict) -> int:
        """Write the spans as Chrome trace-event JSON; returns the count."""
        t0 = min((s[1] for s in self.spans), default=0)
        events = [
            {"name": name, "cat": name.split(".", 1)[0], "ph": "X",
             "ts": (start - t0) / 1000.0, "dur": (end - start) / 1000.0,
             "pid": 1, "tid": 1,
             "args": {"span": sid, "parent": parent, "request": req}}
            for name, start, end, sid, parent, req in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, fh, separators=(",", ":"))
        return len(events)
