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
with the node sets it intersects held as Python-int bitmasks.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator, Optional, Sequence

from ..errors import EmptyTrace, InvariantError
from ..traceio import TraceEvent
from .profiles import BootType, VariantProfile, default_profiles


@dataclass
class SimConfig:
    nodes: int = 100
    slots: int = 32
    cache_size: int = 32
    profiles: dict = field(default_factory=default_profiles)
    seed: int = 0
    jitter_sigma: float = 0.0
    record_occupancy: bool = False


class Node:
    """One worker node.

    The cache dict's insertion order encodes recency (touch = delete +
    re-insert), so eviction order is strictly by last use with insertion
    order breaking ties.  Toward the per-node instance cap, each in-flight
    invocation and each cached instance counts (conservative when a running
    function is also cached).
    """

    __slots__ = ("node_id", "slots", "cache_size", "busy", "cache")

    def __init__(self, node_id: int, slots: int, cache_size: int):
        self.node_id = node_id
        self.slots = slots
        self.cache_size = cache_size
        self.busy = 0
        self.cache: dict[tuple[int, int], bool] = {}

    def resident_instances(self) -> int:
        return len(self.cache) + self.busy

    def eligible(self, cap: Optional[int]) -> bool:
        if self.busy >= self.slots:
            return False
        return cap is None or self.resident_instances() < cap

    def memory_resident(self, per_function_memory: int) -> int:
        return self.resident_instances() * per_function_memory


@dataclass(slots=True)
class InvocationOutcome:
    invocation_id: int
    node_id: int
    boot_type: BootType
    delay_ms: float
    slowdown: float
    start_ms: float
    finish_ms: float


@dataclass
class SimStats:
    """Per-variant results; delay = queue wait + boot,
    slowdown = (delay + adjusted duration) / duration."""

    variant: str
    outcomes: list[InvocationOutcome]
    makespan_ms: float
    occupancy_log: list[tuple[float, int, int]]

    def boot_counts(self) -> dict[str, int]:
        types = [o.boot_type for o in self.outcomes]
        return {b.value: types.count(b) for b in BootType}

    def to_row(self) -> dict:
        delays = sorted([o.delay_ms for o in self.outcomes])
        slowdowns = sorted([o.slowdown for o in self.outcomes])
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


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ceil(q*n)-th order statistic."""
    if not sorted_values:
        return 0.0
    idx = max(1, math.ceil(q * len(sorted_values)))
    return float(sorted_values[idx - 1])


class _VariantRun:
    """One variant's simulation pass.

    The pass is one generator, ``_loop``, that applies one completion or
    arrival per iteration: :meth:`step` advances it by one event and
    :meth:`run` drains it, so stepwise and whole runs share every line.
    ``queue``, ``completions``, ``outcomes``, ``nodes`` and ``makespan``
    stay current between steps.
    """

    def __init__(self, trace: Sequence[TraceEvent], profile: VariantProfile,
                 config: SimConfig):
        self.trace = trace
        self.profile = profile
        self.config = config
        self.rng = random.Random(config.seed)
        self.nodes = [Node(i, config.slots, config.cache_size)
                      for i in range(config.nodes)]
        self.queue: deque[TraceEvent] = deque()
        # (finish, invocation_id, node_id, (app, fn)); ids break time ties
        self.completions: list[tuple[float, int, int, tuple[int, int]]] = []
        self.outcomes: list[InvocationOutcome] = []
        self.occupancy: list[tuple[float, int, int]] = []
        self.makespan = 0.0
        self._events = self._loop()

    def _loop(self) -> Iterator[bool]:
        """The event loop; yields once per applied event.

        Node sets are Python-int bitmasks (bit i is node i): ``eligible``,
        ``fn_nodes[(app, fn)]`` (nodes caching the function) and
        ``app_nodes[app]`` (nodes caching any function of the app, kept
        for the lukewarm tier only).  A node choice is an AND of two masks
        and its lowest set bit.  The mask that supplied the node gives the
        tier: a node from ``fn_nodes`` caches the function (warm), one from
        ``app_nodes`` caches a sibling of the same app (lukewarm), and one
        from ``eligible`` alone caches neither (cold), because an eligible
        node that did would have come from an earlier mask.  The eligibility
        test is :meth:`Node.eligible`, inlined.
        """
        trace, profile, config = self.trace, self.profile, self.config
        n_arrivals = len(trace)
        rng = self.rng
        record = config.record_occupancy
        slots, cache_size = config.slots, config.cache_size
        cap = profile.per_node_instance_cap
        nodes, queue, outcomes = self.nodes, self.queue, self.outcomes
        completions, occupancy = self.completions, self.occupancy
        heappush, heappop = heapq.heappush, heapq.heappop
        WARM, LUKEWARM, COLD = BootType.WARM, BootType.LUKEWARM, BootType.COLD

        eligible = 0
        for node in nodes:
            if node.eligible(cap):
                eligible |= 1 << node.node_id
        # A node holds at most slots + cache_size instances, so an absent
        # cap becomes one that never binds.
        if cap is None:
            cap = slots + cache_size + 1
        cold_dist, warm_dist = profile.cold_boot, profile.warm_boot
        luke_dist = profile.lukewarm_boot
        lukewarm = luke_dist is not None
        tiers = [d for d in (cold_dist, warm_dist, luke_dist) if d is not None]
        # Jittered runs sample every dispatch in order, as the rng stream
        # requires; point masses are constants.
        jittered = not all(d.is_point_mass for d in tiers)
        cold_ms, warm_ms = cold_dist.mean_ms, warm_dist.mean_ms
        luke_ms = luke_dist.mean_ms if lukewarm else 0.0
        fn_nodes: dict[tuple[int, int], int] = {}
        app_nodes: dict[int, int] = {}
        app_counts: list[dict[int, int]] = [{} for _ in nodes]  # app -> fns

        ai = 0
        next_arrival = trace[0].arrival_ms if n_arrivals else math.inf
        makespan = self.makespan
        while True:
            # Completions win ties against arrivals.
            if completions and completions[0][0] <= next_arrival:
                now, _, node_id, key = heappop(completions)
                delta = -1
                if now > makespan:
                    makespan = self.makespan = now
            elif ai < n_arrivals:
                event = trace[ai]
                ai += 1
                next_arrival = (trace[ai].arrival_ms if ai < n_arrivals
                                else math.inf)
                queue.append(event)
                if len(queue) > 1:  # FIFO: it waits behind the queue
                    yield True
                    continue
                now = event.arrival_ms
                node_id = -1
            else:
                return
            # Settle the node the last completion or dispatch touched, then
            # place the queue head, until the queue empties or finds no node.
            while True:
                if node_id >= 0:
                    node = nodes[node_id]
                    bit = 1 << node_id
                    busy = node.busy = node.busy + delta
                    cache = node.cache
                    if key in cache:
                        del cache[key]
                        cache[key] = True  # refreshed recency
                    else:
                        cache[key] = True
                        fn_nodes[key] = fn_nodes.get(key, 0) | bit
                        if lukewarm:
                            counts = app_counts[node_id]
                            app = key[0]
                            n = counts.get(app, 0)
                            counts[app] = n + 1
                            if not n:
                                app_nodes[app] = app_nodes.get(app, 0) | bit
                        # Warm instances are shed LRU-first when over the
                        # cache size or the per-node instance cap.
                        while (len(cache) > cache_size
                               or len(cache) + busy > cap):
                            victim = next(iter(cache))
                            del cache[victim]
                            fn_nodes[victim] ^= bit
                            if lukewarm:
                                app = victim[0]
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
                    if record:
                        occupancy.append((now, node_id, delta))
                if not queue:
                    break
                event = queue[0]
                key = (event.app_id, event.function_id)
                found = fn_nodes.get(key, 0) & eligible
                if found:
                    boot_type = WARM
                    boot = warm_dist.sample(rng) if jittered else warm_ms
                elif lukewarm and (found := app_nodes.get(key[0], 0)
                                   & eligible):
                    boot_type = LUKEWARM
                    boot = luke_dist.sample(rng) if jittered else luke_ms
                elif eligible:
                    found = eligible
                    boot_type = COLD
                    boot = cold_dist.sample(rng) if jittered else cold_ms
                else:
                    break
                queue.popleft()
                node_id = (found & -found).bit_length() - 1  # lowest id
                delta = 1
                duration = event.duration_ms
                delay = now - event.arrival_ms + boot
                adjusted = duration + boot
                finish = now + adjusted
                heappush(completions,
                         (finish, event.invocation_id, node_id, key))
                outcomes.append(InvocationOutcome(
                    event.invocation_id, node_id, boot_type, delay,
                    (delay + adjusted) / duration, now, finish))
            yield True

    def step(self) -> bool:
        """Apply the next event; False once none is left."""
        return next(self._events, False)

    def run(self) -> SimStats:
        for _ in self._events:
            pass
        self.outcomes.sort(key=attrgetter("invocation_id"))
        return SimStats(self.profile.name, self.outcomes, self.makespan,
                        self.occupancy)


def advance(run: _VariantRun) -> bool:
    """Apply the next completion or arrival of a stepwise run (test hook)."""
    return run.step()


def _require_sorted(trace: Sequence[TraceEvent]) -> None:
    """Refuse a trace out of (arrival_ms, invocation_id) order."""
    last_arrival, last_id = -math.inf, -math.inf
    for event in trace:
        arrival = event.arrival_ms
        if arrival < last_arrival or (arrival == last_arrival
                                      and event.invocation_id < last_id):
            raise InvariantError(
                "trace must be sorted by (arrival_ms, invocation_id)")
        last_arrival, last_id = arrival, event.invocation_id


def make_run(trace: Sequence[TraceEvent], profile: VariantProfile,
             config: SimConfig) -> _VariantRun:
    """Construct a stepwise run for one variant (test hook)."""
    _require_sorted(trace)
    return _VariantRun(trace, profile, config)


def simulate(trace: Sequence[TraceEvent],
             config: SimConfig) -> dict[str, SimStats]:
    """Run every configured variant over the same trace with the same seed."""
    if not trace:
        raise EmptyTrace("simulate requires at least one trace event")
    if config.nodes < 1 or config.slots < 1:
        raise InvariantError("simulation needs at least one node and slot")
    if config.cache_size < 0:
        raise InvariantError("cache size must be non-negative")
    _require_sorted(trace)
    results = {}
    for name in sorted(config.profiles):
        profile = config.profiles[name]
        if config.jitter_sigma > 0:
            profile = profile.with_jitter(config.jitter_sigma)
        results[name] = _VariantRun(trace, profile, config).run()
    return results
