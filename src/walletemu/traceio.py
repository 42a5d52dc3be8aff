"""Invocation-trace ingestion, synthetic generation, and stats output.

Trace CSV format (UTF-8, header required):
    invocation_id,app_id,function_id,arrival_ms,duration_ms
with arrival/duration as finite decimals in milliseconds, arrivals
non-negative and durations positive.  In memory a trace is a
:class:`Trace` of five numpy columns.  Row views and CSV writers read the
columns through :func:`chunked_rows`, ``ROW_CHUNK`` rows at a time, so
no whole column ever exists as Python objects; :func:`derived_rows` does
the same for columns computed per chunk.

The synthetic generator stands in for production traces: Zipf-distributed
function popularity, Poisson arrivals, log-normal durations clipped to
>= 1 ms; deterministic for a fixed seed.  Function ids are drawn by
inverse CDF over the normalized Zipf weights: one uniform per invocation,
a bucket table giving each uniform a start index at or below its answer,
then forward steps to the first CDF entry above it.  The draw returns the
same ids as ``Generator.choice(n_functions, p=weights)`` and leaves the
generator at the same stream position.
"""

from __future__ import annotations

import csv
import io
import json
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import InvariantError, ParseError

TRACE_HEADER = ["invocation_id", "app_id", "function_id",
                "arrival_ms", "duration_ms"]
ROW_CHUNK = 4096


def chunked_rows(make: Callable, columns: Sequence[np.ndarray],
                 start: int = 0, stop: int | None = None) -> Iterator:
    """``make(*values)`` for each of rows ``start:stop`` of equal-length
    numpy columns.  Values become Python objects ``ROW_CHUNK`` rows at a
    time, and a chunk is dropped before the next is built."""
    if stop is None:
        stop = len(columns[0])
    return derived_rows(make, lambda lo, hi: [c[lo:hi] for c in columns],
                        start, stop)


def derived_rows(make: Callable, columns_of: Callable, start: int,
                 stop: int) -> Iterator:
    """``make(*values)`` for each of rows ``start:stop``, where
    ``columns_of(lo, hi)`` gives the numpy columns of rows ``lo:hi``; it is
    called once per chunk of ``ROW_CHUNK`` rows."""
    for lo in range(start, stop, ROW_CHUNK):
        columns = columns_of(lo, min(lo + ROW_CHUNK, stop))
        yield from map(make, *[c.tolist() for c in columns])


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One invocation; iterating or indexing a :class:`Trace` yields these."""

    invocation_id: int
    app_id: int
    function_id: int
    arrival_ms: float
    duration_ms: float


class Trace:
    """An invocation trace as five equal-length numpy columns.

    ``invocation_id``, ``app_id`` and ``function_id`` are int64;
    ``arrival_ms`` and ``duration_ms`` are float64, finite, with arrivals
    non-negative and durations positive (else :class:`InvariantError`).
    Iterating or indexing yields :class:`TraceEvent` row views, built on
    each access; iteration builds them a chunk at a time.  The simulator
    reads these columns in place and its results read them on every
    access, so a trace must not be written while a run over it or that
    run's results are in use.
    """

    __slots__ = tuple(TRACE_HEADER)

    def __init__(self, invocation_id, app_id, function_id, arrival_ms,
                 duration_ms):
        self.invocation_id = np.asarray(invocation_id, dtype=np.int64)
        self.app_id = np.asarray(app_id, dtype=np.int64)
        self.function_id = np.asarray(function_id, dtype=np.int64)
        self.arrival_ms = np.asarray(arrival_ms, dtype=np.float64)
        self.duration_ms = np.asarray(duration_ms, dtype=np.float64)
        shape = self.invocation_id.shape
        if len(shape) != 1 or any(c.shape != shape for c in self.columns()):
            raise InvariantError(
                "trace columns must be one-dimensional and equally long")
        arrival, duration = self.arrival_ms, self.duration_ms
        for bad, what in ((~(np.isfinite(arrival) & np.isfinite(duration)),
                           "non-finite time"),
                          (arrival < 0, "negative arrival"),
                          (duration <= 0, "duration must be positive")):
            if bad.any():
                i = int(np.argmax(bad))
                raise InvariantError(
                    f"invocation {self.invocation_id[i]}: {what}")

    def columns(self) -> tuple[np.ndarray, ...]:
        """The five columns, in ``TRACE_HEADER`` order."""
        return (self.invocation_id, self.app_id, self.function_id,
                self.arrival_ms, self.duration_ms)

    def __len__(self) -> int:
        return len(self.invocation_id)

    def __iter__(self) -> Iterator[TraceEvent]:
        return chunked_rows(TraceEvent, self.columns())

    def __getitem__(self, index: int) -> TraceEvent:
        return TraceEvent(*(c[index].item() for c in self.columns()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return all(np.array_equal(a, b)
                   for a, b in zip(self.columns(), other.columns()))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Trace({len(self)} invocations)"


def as_trace(events: Trace | Iterable[TraceEvent]) -> Trace:
    """A ``Trace`` as is, or the columns of a sequence of events."""
    if isinstance(events, Trace):
        return events
    rows = list(events)
    return Trace(*([getattr(e, name) for e in rows] for name in TRACE_HEADER))


@dataclass
class GeneratorSpec:
    """Synthetic-trace parameters; counts positive integers, seed a
    non-negative integer, sigma >= 0, every real parameter finite, and
    Zipf weights ``rank ** -popularity_zipf_s`` whose sum is finite."""

    n_functions: int = 4000
    n_apps: int = 200
    duration_minutes: float = 30.0
    arrival_rate_per_s: float = 60.0
    popularity_zipf_s: float = 1.1
    duration_lognormal_mu: float = math.log(300.0)  # ln of median ms
    duration_lognormal_sigma: float = 1.8
    seed: int = 0

    def validate(self) -> None:
        reals = (self.duration_minutes, self.arrival_rate_per_s,
                 self.popularity_zipf_s, self.duration_lognormal_mu,
                 self.duration_lognormal_sigma)
        if not all(math.isfinite(v) for v in reals):
            raise InvariantError("generator parameters must be finite")
        ints = (self.n_functions, self.n_apps, self.seed)
        if any(isinstance(v, bool) or not isinstance(v, int) for v in ints):
            raise InvariantError("counts and seed must be integers")
        if self.n_functions <= 0 or self.n_apps <= 0:
            raise InvariantError("function and app counts must be positive")
        if self.seed < 0:
            raise InvariantError("seed must be non-negative")
        if self.duration_minutes <= 0 or self.arrival_rate_per_s <= 0:
            raise InvariantError("duration and arrival rate must be positive")
        if self.duration_lognormal_sigma < 0:
            raise InvariantError("duration sigma must be non-negative")
        with np.errstate(over="ignore"):
            total = self._zipf_weights().sum()
        if not np.isfinite(total):
            raise InvariantError("Zipf weights overflow: popularity_zipf_s "
                                 "too negative for n_functions")

    def _zipf_weights(self) -> np.ndarray:
        """Unnormalized weights ``rank ** -s`` of ranks 1..n_functions."""
        ranks = np.arange(1, self.n_functions + 1, dtype=np.float64)
        return ranks ** (-self.popularity_zipf_s)

    @staticmethod
    def from_json(text: str) -> "GeneratorSpec":
        try:
            doc = json.loads(text)
            spec = GeneratorSpec(**doc)
            spec.validate()
        except (json.JSONDecodeError, TypeError, InvariantError) as exc:
            raise ParseError(f"bad generator spec: {exc}") from exc
        return spec


_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


def load_trace(path) -> Trace:
    """Parse and validate a trace CSV; rows sorted by (arrival, id).

    A failure names the first bad line: a malformed field, a non-finite
    time, an id outside 64 bits or a duplicate id is a ``ParseError``; a
    negative arrival or a non-positive duration an ``InvariantError``.
    Duplicate ids are looked for on the id column, once parsing ends or
    when a line fails for another reason; a line whose id repeats an
    earlier one fails before its times are checked.
    """
    columns = ids, apps, fns, arrivals, durations = (
        array("q"), array("q"), array("q"), array("d"), array("d"))
    blank_lines = array("q")
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if header != TRACE_HEADER:
            raise ParseError(f"{path}:1: bad header {header!r}")
        try:
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    blank_lines.append(lineno)
                    continue
                if len(row) != 5:
                    raise ParseError(f"{path}:{lineno}: expected 5 columns")
                try:
                    inv, app, fn = int(row[0]), int(row[1]), int(row[2])
                    arrival, duration = float(row[3]), float(row[4])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from None
                if not (math.isfinite(arrival) and math.isfinite(duration)):
                    raise ParseError(f"{path}:{lineno}: non-finite time")
                if not (_INT64_MIN <= inv <= _INT64_MAX
                        and _INT64_MIN <= app <= _INT64_MAX
                        and _INT64_MIN <= fn <= _INT64_MAX):
                    raise ParseError(f"{path}:{lineno}: id outside 64 bits")
                ids.append(inv)
                apps.append(app)
                fns.append(fn)
                arrivals.append(arrival)
                durations.append(duration)
                if arrival < 0:
                    raise InvariantError(f"{path}:{lineno}: invocation {inv}: "
                                         "negative arrival")
                if duration <= 0:
                    raise InvariantError(f"{path}:{lineno}: invocation {inv}: "
                                         "duration must be positive")
        except (ParseError, InvariantError):
            _refuse_duplicate(path, ids, blank_lines)
            raise
    _refuse_duplicate(path, ids, blank_lines)
    del ids, apps, fns, arrivals, durations
    order = np.lexsort((np.frombuffer(columns[0], dtype=np.int64),
                        np.frombuffer(columns[3], dtype=np.float64)))
    # Each typed column is dropped as soon as its sorted copy exists.
    columns = list(columns)
    for i, column in enumerate(columns):
        columns[i] = np.frombuffer(column, dtype=column.typecode)[order]
    del column
    return Trace(*columns)


def _refuse_duplicate(path, ids: array, blank_lines: array) -> None:
    """Raise for the first row, in file order, whose id repeats an earlier
    row's; ``blank_lines`` are the skipped lines, in order."""
    column = np.frombuffer(ids, dtype=np.int64)
    by_id = np.argsort(column, kind="stable")
    ordered = column[by_id]
    repeats = by_id[1:][ordered[1:] == ordered[:-1]]
    if not repeats.size:
        return
    row = int(repeats.min())
    lineno = row + 2
    for blank in blank_lines:
        if blank > lineno:
            break
        lineno += 1
    raise ParseError(
        f"{path}:{lineno}: duplicate invocation_id {ids[row]}") from None


def write_trace(trace: Trace | Iterable[TraceEvent], path) -> None:
    trace = as_trace(trace)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        writer.writerows(chunked_rows(_csv_row, trace.columns()))


def _csv_row(inv: int, app: int, fn: int, arrival: float,
             duration: float) -> tuple:
    """One trace CSV row; ``repr`` writes each float exactly."""
    return inv, app, fn, repr(arrival), repr(duration)


def _draw_ranks(rng: np.random.Generator, probs: np.ndarray,
                count: int) -> np.ndarray:
    """``count`` int64 indices drawn by ``probs``, equal to
    ``rng.choice(len(probs), size=count, p=probs)`` and using the same
    ``rng.random(count)``.

    Each uniform ``u`` starts at ``table[floor(u * k)]``, the index of the
    first CDF entry above ``floor(u * k) / k``; with ``k`` a power of two
    both products are exact, so no start lies past the answer, and the
    indices still at or below their ``u`` step forward together.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    k = 1 << max(12, (len(probs) - 1).bit_length())  # >= max(4096, n)
    table = cdf.searchsorted(np.arange(k) / k, side="right")
    u = rng.random(count)
    idx = table[(u * k).astype(np.intp)]
    behind = np.flatnonzero(cdf[idx] <= u)
    while behind.size:
        idx[behind] += 1
        behind = behind[cdf[idx[behind]] <= u[behind]]
    return idx.astype(np.int64, copy=False)


def generate_trace(spec: GeneratorSpec) -> Trace:
    """Seeded synthetic trace; see module docstring for the model."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    horizon_ms = spec.duration_minutes * 60_000.0
    rate_per_ms = spec.arrival_rate_per_s / 1000.0
    expected = int(horizon_ms * rate_per_ms)

    arrivals: list[np.ndarray] = []
    total = 0.0
    count = 0
    while True:
        batch = rng.exponential(1.0 / rate_per_ms,
                                size=max(1024, expected // 4 + 1))
        cum = total + np.cumsum(batch)
        if cum[-1] >= horizon_ms:
            keep = cum[cum < horizon_ms]
            arrivals.append(keep)
            count += len(keep)
            break
        arrivals.append(cum)
        total = float(cum[-1])
        count += len(cum)
    arrival_ms = np.concatenate(arrivals) if arrivals else np.empty(0)

    probs = spec._zipf_weights()
    probs /= probs.sum()
    functions = _draw_ranks(rng, probs, count)
    durations = rng.lognormal(spec.duration_lognormal_mu,
                              spec.duration_lognormal_sigma, size=count)
    durations = np.maximum(durations, 1.0)
    return Trace(np.arange(count), functions % spec.n_apps, functions,
                 arrival_ms, durations)


def write_stats(stats: Sequence[dict], path, fmt: str = "json") -> None:
    """Write per-variant stats rows; bit-stable for identical inputs."""
    rows = sorted(stats, key=lambda s: s["variant"])
    if fmt == "json":
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        columns = ["variant", "p50_delay_ms", "p99_delay_ms", "p50_slowdown",
                   "p99_slowdown", "cold", "lukewarm", "warm", "makespan_ms"]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown stats format {fmt!r}")
    Path(path).write_text(text, encoding="utf-8")
