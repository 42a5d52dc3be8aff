"""Event-driven scale-out simulator.

Nodes have fixed execution slots and an LRU cache of warm (app, function)
instances.  The scheduler prefers free-slot nodes already caching the
requested function, then (for variants with a lukewarm tier) nodes caching
a sibling function of the same application, then the lowest-id free node;
otherwise the request queues FIFO and re-runs node preference when a slot
frees.  Determinism: arrivals are processed in (arrival, invocation_id)
order, completions in (time, invocation_id) order, and completions precede
arrivals at equal times.  :func:`simulate` and :func:`make_run` refuse a
trace that is not sorted by (arrival_ms, invocation_id); ``load_trace``
and ``generate_trace`` produce that order.

Each variant runs as one event loop over locals (``_VariantRun._loop``),
with the node sets it intersects held as Python-int bitmasks.  Every
per-invocation value lives in typed storage: the loop reads the trace's
own columns in place, through ``memoryview``s, and writes each dispatch
into per-position typed arrays: node (the narrowest signed type that
holds every node id, 1 byte up to 128 nodes), boot code (1 byte) and
start (8 bytes), plus 8 for the boot time when boots are jittered.  A
run's :class:`SimStats` shares those arrays and derives its other
columns on each read; where no invocation waited, its start column is
the trace's arrivals, so an un-jittered run keeps 2 bytes per invocation
where nothing waited and 10 where something did.  Row objects
(:class:`InvocationOutcome`) are built only by the ``outcomes`` view, a
chunk of rows at a time.
"""

from __future__ import annotations

import heapq
import math
import operator
import random
from array import array
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..errors import EmptyTrace, InvariantError
from ..traceio import Trace, TraceEvent, as_trace, derived_rows
from .profiles import BootType, VariantProfile, default_profiles


@dataclass
class SimConfig:
    nodes: int = 100
    slots: int = 32
    cache_size: int = 32
    profiles: dict = field(default_factory=default_profiles)
    seed: int = 0
    jitter_sigma: float = 0.0


@dataclass(slots=True)
class InvocationOutcome:
    """One invocation's result; a row view of :class:`SimStats`."""

    invocation_id: int
    node_id: int
    boot_type: BootType
    delay_ms: float
    slowdown: float
    start_ms: float
    finish_ms: float


# A boot-tier code is an index into BOOT_TIERS.
BOOT_TIERS = (BootType.COLD, BootType.LUKEWARM, BootType.WARM)
COLD, LUKEWARM, WARM = range(3)


class SimStats:
    """Per-variant results, one row per dispatched invocation in
    invocation-id order.

    It keeps what the event loop wrote, per trace position: node (the
    run's narrowest signed integer type, int8 up to 128 nodes), boot code
    and start, plus the trace and, only when trace positions are not
    already in id order, the permutation that puts them there.  ``start``
    is the loop's float64 column where some dispatched invocation waited,
    and otherwise a read-only view of the trace's ``arrival_ms``, so an
    un-jittered run keeps 10 or 2 bytes per invocation; a trace must not
    be written while its results are in use.  ``boot`` is a per-position
    column (8 bytes more per invocation) when ``boot_per_position`` is
    true, as in a jittered run; otherwise it is the three tier means in
    :data:`BOOT_TIERS` order, read through the boot code.  The columns
    are read-only properties of the same names as the row fields; delay,
    slowdown and finish are derived on each read with the float
    operations the loop uses for the finish time it queues:
    delay = (start - arrival) + boot, adjusted = boot + duration,
    slowdown = (delay + adjusted) / duration, finish = adjusted + start.

    ``boot_code`` indexes :data:`BOOT_TIERS`.  ``outcomes`` is a fresh
    read-only row view (:class:`OutcomeRows`) on each access; it derives
    rows a chunk at a time, as they are read.
    """

    __slots__ = ("variant", "trace", "makespan_ms", "_node", "_code",
                 "_start", "_boot", "_boot_per_position", "_dispatched",
                 "_order")

    def __init__(self, variant: str, trace: Trace, node: np.ndarray,
                 code: np.ndarray, start: np.ndarray, boot: np.ndarray,
                 makespan_ms: float, boot_per_position: bool):
        self.variant, self.trace, self.makespan_ms = variant, trace, makespan_ms
        for column in (node, code, start, boot):
            column.flags.writeable = False
        self._node, self._code, self._start, self._boot = (node, code,
                                                           start, boot)
        self._boot_per_position = boot_per_position
        ids = trace.invocation_id
        done = node >= 0
        if done.all():
            # Positions to read, in position order; _order is None while
            # positions are already in id order.
            self._dispatched = slice(None)
            self._order = (None if (ids[1:] > ids[:-1]).all()
                           else np.argsort(ids, kind="stable"))
        else:
            pos = self._dispatched = np.flatnonzero(done)
            self._order = pos[np.argsort(ids[pos], kind="stable")]

    def __len__(self) -> int:
        return len(self.trace if self._order is None else self._order)

    def _positions(self, start: int = 0, stop: int | None = None):
        """The trace positions of id-order rows ``start:stop``."""
        if self._order is None:
            return slice(start, stop)
        return self._order[start:stop]

    def _boot_at(self, pos) -> np.ndarray:
        """The boot times of positions ``pos``."""
        if self._boot_per_position:
            return self._boot[pos]
        return self._boot[self._code[pos]]

    def _delay(self, pos) -> np.ndarray:
        delay = self._start[pos] - self.trace.arrival_ms[pos]
        delay += self._boot_at(pos)
        return delay

    def _adjusted(self, pos) -> np.ndarray:
        return self._boot_at(pos) + self.trace.duration_ms[pos]

    def _slowdown(self, pos, delay: np.ndarray) -> np.ndarray:
        slowdown = self._adjusted(pos)
        slowdown += delay  # delay + adjusted: the sum commutes exactly
        slowdown /= self.trace.duration_ms[pos]
        return slowdown

    def _finish(self, pos) -> np.ndarray:
        finish = self._adjusted(pos)
        finish += self._start[pos]
        return finish

    @property
    def invocation_id(self) -> np.ndarray:
        ids = self.trace.invocation_id[self._positions()]
        ids.flags.writeable = False
        return ids

    @property
    def node_id(self) -> np.ndarray:
        return self._node[self._positions()]

    @property
    def boot_code(self) -> np.ndarray:
        return self._code[self._positions()]

    @property
    def start_ms(self) -> np.ndarray:
        return self._start[self._positions()]

    @property
    def delay_ms(self) -> np.ndarray:
        return self._delay(self._positions())

    @property
    def slowdown(self) -> np.ndarray:
        pos = self._positions()
        return self._slowdown(pos, self._delay(pos))

    @property
    def finish_ms(self) -> np.ndarray:
        return self._finish(self._positions())

    @property
    def outcomes(self) -> "OutcomeRows":
        return OutcomeRows(self)

    def row_columns(self, start: int = 0,
                    stop: int | None = None) -> tuple[np.ndarray, ...]:
        """The columns of rows ``start:stop``, in :class:`InvocationOutcome`
        field order."""
        pos = self._positions(start, stop)
        delay = self._delay(pos)
        return (self.trace.invocation_id[pos], self._node[pos],
                self._code[pos], delay, self._slowdown(pos, delay),
                self._start[pos], self._finish(pos))

    def boot_counts(self) -> dict[str, int]:
        counts = np.bincount(self._code[self._dispatched],
                             minlength=len(BOOT_TIERS))
        return {tier.value: int(counts[code])
                for code, tier in enumerate(BOOT_TIERS)}

    def to_row(self) -> dict:
        pos = self._dispatched
        delays = self._delay(pos)
        slowdowns = self._slowdown(pos, delays)
        delays.sort()
        slowdowns.sort()
        counts = self.boot_counts()
        return {
            "variant": self.variant,
            "p50_delay_ms": nearest_rank(delays, 0.50),
            "p99_delay_ms": nearest_rank(delays, 0.99),
            "p50_slowdown": nearest_rank(slowdowns, 0.50),
            "p99_slowdown": nearest_rank(slowdowns, 0.99),
            "cold": counts["cold"],
            "lukewarm": counts["lukewarm"],
            "warm": counts["warm"],
            "makespan_ms": self.makespan_ms,
        }


def _outcome(invocation_id: int, node_id: int, boot_code: int,
             *floats: float) -> InvocationOutcome:
    """The row of one invocation's values, in ``row_columns`` order."""
    return InvocationOutcome(invocation_id, node_id, BOOT_TIERS[boot_code],
                             *floats)


class OutcomeRows(Sequence):
    """A read-only sequence of :class:`InvocationOutcome` rows over a
    :class:`SimStats`.

    ``len`` builds no row; iteration and slices derive and build them a
    chunk at a time (:func:`~walletemu.traceio.derived_rows`).  It equals
    any sequence of equal rows, a list included.
    """

    __slots__ = ("_stats",)

    def __init__(self, stats: SimStats):
        self._stats = stats

    def __len__(self) -> int:
        return len(self._stats)

    def _rows(self, start: int, stop: int) -> Iterator[InvocationOutcome]:
        return derived_rows(_outcome, self._stats.row_columns, start, stop)

    def __iter__(self) -> Iterator[InvocationOutcome]:
        return self._rows(0, len(self))

    def __getitem__(self, index):
        if isinstance(index, slice):
            span = range(len(self))[index]
            if span.step == 1:
                return list(self._rows(span.start, span.stop))
            return [self[i] for i in span]
        i = range(len(self))[operator.index(index)]
        return next(self._rows(i, i + 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"OutcomeRows({self._stats.variant}, {len(self)} invocations)"


def nearest_rank(sorted_values: Sequence[float] | np.ndarray,
                 q: float) -> float:
    """Nearest-rank percentile: the ceil(q*n)-th order statistic."""
    if len(sorted_values) == 0:
        return 0.0
    idx = max(1, math.ceil(q * len(sorted_values)))
    return float(sorted_values[idx - 1])


def _dense_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values, and each value's index among them: what
    ``np.unique(values, return_inverse=True)`` returns, with about 25
    bytes of scratch per value where it takes about 40."""
    order = np.argsort(values)
    ordered = values[order]
    first = np.empty(len(values), dtype=bool)  # first of its value
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    del ordered
    rank = np.cumsum(first, dtype=np.int64)
    rank -= 1
    del first
    codes = np.empty_like(rank)
    codes[order] = rank
    return distinct, codes


def _cells(column: np.ndarray, typecode: str) -> memoryview:
    """A view of a contiguous int64 (``'q'``) or float64 (``'d'``)
    column's own buffer, indexed to Python ints or floats."""
    return memoryview(np.ascontiguousarray(column)).cast("B").cast(typecode)


@dataclass(frozen=True)
class _LoopColumns:
    """A trace as the views the loop indexes, built once per
    :func:`simulate` call and shared by its variants.  Each is a
    ``memoryview`` of a numpy buffer (:func:`_cells`): the trace's own
    columns, read in place, and the two dense key columns.  Indexing one
    gives a Python int or float, as the loop needs.  The views share the
    trace's memory, so a trace must not be written while a run over it
    or that run's results are in use.

    ``key[pos]`` is a dense code for the (app, function) pair at trace
    position ``pos`` and ``key_app[key]`` a dense code for its app.
    """

    invocation_id: memoryview
    arrival_ms: memoryview
    duration_ms: memoryview
    key: memoryview
    key_app: memoryview
    n_apps: int

    @classmethod
    def of(cls, trace: Trace) -> "_LoopColumns":
        # At most two code columns are alive at once.
        apps, key = _dense_codes(trace.app_id)
        fns, fn_code = _dense_codes(trace.function_id)
        key *= len(fns)
        key += fn_code
        del fn_code
        pairs, key = _dense_codes(key)
        return cls(_cells(trace.invocation_id, "q"),
                   _cells(trace.arrival_ms, "d"),
                   _cells(trace.duration_ms, "d"), _cells(key, "q"),
                   _cells(pairs // len(fns), "q"), len(apps))


class _VariantRun:
    """One variant's simulation pass.

    The pass is one generator, ``_loop``, that applies one completion or
    arrival per iteration: :meth:`step` advances it by one event and
    :meth:`run` drains it, so stepwise and whole runs share every line.
    ``queue`` (trace positions), ``completions``, ``busy``, ``caches``
    and ``makespan`` stay current between steps, and so do the
    per-position outcome arrays: ``out_node`` (an ``array`` of the
    narrowest signed typecode that holds ``config.nodes - 1``, ``'b'`` up
    to 128 nodes; -1 until dispatch), ``out_code`` (a ``bytearray`` of
    boot-tier codes), ``out_start`` (``array('d')``) and, only when
    ``jittered`` (some boot tier is not a point mass), ``out_boot``
    (``array('d')``; None otherwise, as each tier's boot is its entry in
    ``boot_means``).  :meth:`stats` keeps ``out_start`` only when some
    dispatched invocation waited.
    """

    def __init__(self, trace: Trace, profile: VariantProfile,
                 config: SimConfig, columns: _LoopColumns):
        self.trace = trace
        self.columns = columns
        self.profile = profile
        self.config = config
        self.rng = random.Random(config.seed)
        self.busy = [0] * config.nodes
        # Each cache dict's insertion order encodes recency (touch =
        # delete + re-insert), so eviction is strictly by last use.
        self.caches: list[dict[int, bool]] = [{} for _ in range(config.nodes)]
        self.queue: deque[int] = deque()
        # (finish, invocation_id, node_id, key); ids break time ties
        self.completions: list[tuple[float, int, int, int]] = []
        # Jittered runs sample every dispatch in order, as the rng stream
        # requires; point masses are constants, each tier's mean (in
        # BOOT_TIERS order; 0.0 for an absent lukewarm tier).
        tiers = (profile.cold_boot, profile.lukewarm_boot, profile.warm_boot)
        self.jittered = not all(d.is_point_mass for d in tiers if d is not None)
        self.boot_means = tuple(d.mean_ms if d is not None else 0.0
                                for d in tiers)
        n = len(trace)
        # The narrowest signed type that holds every node id and the -1.
        node_type = next(t for t in "bhiq"
                         if config.nodes - 1 <= np.iinfo(t).max)
        self.out_node = array(node_type, [-1]) * n
        self.out_code = bytearray(n)
        self.out_start = array("d", [0.0]) * n
        self.out_boot = array("d", [0.0]) * n if self.jittered else None
        self.makespan = 0.0
        self._events = self._loop()

    def _loop(self) -> Iterator[bool]:
        """The event loop; yields once per applied event.

        Node sets are Python-int bitmasks (bit i is node i): ``eligible``,
        ``fn_nodes[key]`` (nodes caching the function) and
        ``app_nodes[app]`` (nodes caching any function of the app, kept
        for the lukewarm tier only).  A node choice is an AND of two masks
        and its lowest set bit.  The mask that supplied the node gives the
        tier: a node from ``fn_nodes`` caches the function (warm), one from
        ``app_nodes`` caches a sibling of the same app (lukewarm), and one
        from ``eligible`` alone caches neither (cold), because an eligible
        node that did would have come from an earlier mask.  A node is
        eligible while it has a free slot and, toward the per-node
        instance cap, fewer in-flight plus cached instances than the cap
        (conservative when a running function is also cached).
        """
        profile, config, columns = self.profile, self.config, self.columns
        ids, arrival = columns.invocation_id, columns.arrival_ms
        duration, keys, key_app = (columns.duration_ms, columns.key,
                                   columns.key_app)
        n_arrivals = len(ids)
        rng = self.rng
        slots, cache_size = config.slots, config.cache_size
        cap = profile.per_node_instance_cap
        busy_of, caches, queue = self.busy, self.caches, self.queue
        out_node, out_code = self.out_node, self.out_code
        out_start, out_boot = self.out_start, self.out_boot
        completions = self.completions
        heappush, heappop = heapq.heappush, heapq.heappop

        # A node holds at most slots + cache_size instances, so an absent
        # cap becomes one that never binds.
        if cap is None:
            cap = slots + cache_size + 1
        eligible = (1 << config.nodes) - 1 if slots > 0 and cap > 0 else 0
        cold_dist, warm_dist = profile.cold_boot, profile.warm_boot
        luke_dist = profile.lukewarm_boot
        lukewarm = luke_dist is not None
        jittered = self.jittered
        cold_ms, luke_ms, warm_ms = self.boot_means
        fn_nodes = [0] * len(key_app)
        app_nodes = [0] * columns.n_apps
        app_counts: list[dict[int, int]] = [{} for _ in busy_of]  # app -> fns

        ai = 0
        next_arrival = arrival[0] if n_arrivals else math.inf
        makespan = self.makespan
        while True:
            # Completions win ties against arrivals.
            if completions and completions[0][0] <= next_arrival:
                now, _, node_id, key = heappop(completions)
                delta = -1
                if now > makespan:
                    makespan = self.makespan = now
            elif ai < n_arrivals:
                pos = ai
                now = next_arrival
                ai += 1
                next_arrival = arrival[ai] if ai < n_arrivals else math.inf
                queue.append(pos)
                if len(queue) > 1:  # FIFO: it waits behind the queue
                    yield True
                    continue
                node_id = -1
            else:
                return
            # Settle the node the last completion or dispatch touched, then
            # place the queue head, until the queue empties or finds no node.
            while True:
                if node_id >= 0:
                    bit = 1 << node_id
                    busy = busy_of[node_id] = busy_of[node_id] + delta
                    cache = caches[node_id]
                    if key in cache:
                        del cache[key]
                        cache[key] = True  # refreshed recency
                    else:
                        cache[key] = True
                        fn_nodes[key] |= bit
                        if lukewarm:
                            counts = app_counts[node_id]
                            app = key_app[key]
                            n = counts.get(app, 0)
                            counts[app] = n + 1
                            if not n:
                                app_nodes[app] |= bit
                        # Warm instances are shed LRU-first when over the
                        # cache size or the per-node instance cap.
                        while (len(cache) > cache_size
                               or len(cache) + busy > cap):
                            victim = next(iter(cache))
                            del cache[victim]
                            fn_nodes[victim] ^= bit
                            if lukewarm:
                                app = key_app[victim]
                                n = counts[app] - 1
                                if n:
                                    counts[app] = n
                                else:
                                    del counts[app]
                                    app_nodes[app] ^= bit
                    if busy < slots and len(cache) + busy < cap:
                        eligible |= bit
                    else:
                        eligible &= ~bit
                if not queue:
                    break
                pos = queue[0]
                key = keys[pos]
                found = fn_nodes[key] & eligible
                if found:
                    code = WARM
                    boot = warm_dist.sample(rng) if jittered else warm_ms
                elif lukewarm and (found := app_nodes[key_app[key]]
                                   & eligible):
                    code = LUKEWARM
                    boot = luke_dist.sample(rng) if jittered else luke_ms
                elif eligible:
                    found = eligible
                    code = COLD
                    boot = cold_dist.sample(rng) if jittered else cold_ms
                else:
                    break
                queue.popleft()
                node_id = (found & -found).bit_length() - 1  # lowest id
                delta = 1
                heappush(completions, (now + (duration[pos] + boot),
                                       ids[pos], node_id, key))
                out_node[pos] = node_id
                out_code[pos] = code
                out_start[pos] = now
                if jittered:
                    out_boot[pos] = boot
            yield True

    def step(self) -> bool:
        """Apply the next event; False once none is left."""
        return next(self._events, False)

    def stats(self) -> SimStats:
        """The outcomes of the invocations dispatched so far.

        They share the loop's output arrays: the loop writes each position
        once, at its dispatch, and a stats reads only the positions
        dispatched when it was taken, so one taken mid-run stays a
        snapshot.  An un-jittered run passes the tier means in place of
        a boot column.  When every dispatched position started exactly at
        its arrival, as where nothing queued, the start column is a
        read-only view of the trace's arrivals and ``out_start`` is not
        kept.
        """
        node = np.frombuffer(self.out_node, dtype=self.out_node.typecode)
        start = np.frombuffer(self.out_start, dtype=np.float64)
        arrival = self.trace.arrival_ms
        waited = start != arrival
        waited &= node >= 0
        if not waited.any():
            start = arrival.view()  # its own flags: the trace stays writable
        boot = (np.frombuffer(self.out_boot, dtype=np.float64)
                if self.jittered else np.array(self.boot_means))
        return SimStats(self.profile.name, self.trace, node,
                        np.frombuffer(self.out_code, dtype=np.int8),
                        start, boot, self.makespan, self.jittered)

    @property
    def outcomes(self) -> "OutcomeRows":
        """Row view of the outcomes so far, on a fresh :meth:`stats`."""
        return self.stats().outcomes

    def run(self) -> SimStats:
        for _ in self._events:
            pass
        return self.stats()


def advance(run: _VariantRun) -> bool:
    """Apply the next completion or arrival of a stepwise run (test hook)."""
    return run.step()


def _require_sorted(trace: Trace) -> None:
    """Refuse a trace out of (arrival_ms, invocation_id) order."""
    arrival, ids = trace.arrival_ms, trace.invocation_id
    later, earlier = arrival[1:], arrival[:-1]
    if ((later < earlier)
            | ((later == earlier) & (ids[1:] < ids[:-1]))).any():
        raise InvariantError(
            "trace must be sorted by (arrival_ms, invocation_id)")


def make_run(trace: Trace | Sequence[TraceEvent], profile: VariantProfile,
             config: SimConfig) -> _VariantRun:
    """Construct a stepwise run for one variant (test hook)."""
    trace = as_trace(trace)
    _require_sorted(trace)
    return _VariantRun(trace, profile, config, _LoopColumns.of(trace))


def simulate(trace: Trace | Sequence[TraceEvent],
             config: SimConfig) -> dict[str, SimStats]:
    """Run every configured variant over the same trace with the same seed.

    A sequence of :class:`TraceEvent` is converted to a :class:`Trace`
    once, on entry.
    """
    trace = as_trace(trace)
    if not len(trace):
        raise EmptyTrace("simulate requires at least one trace event")
    if config.nodes < 1 or config.slots < 1:
        raise InvariantError("simulation needs at least one node and slot")
    if config.cache_size < 0:
        raise InvariantError("cache size must be non-negative")
    _require_sorted(trace)
    columns = _LoopColumns.of(trace)
    results = {}
    for name in sorted(config.profiles):
        profile = config.profiles[name]
        if config.jitter_sigma > 0:
            profile = profile.with_jitter(config.jitter_sigma)
        results[name] = _VariantRun(trace, profile, config, columns).run()
    return results
