"""Brute-force time-stepping reference simulator.

An independent re-implementation of the scheduling policies that walks
simulated time in 1 ms steps with plain lists and linear scans.  Used only
in tests to cross-check the event-driven engine: on traces with integral
arrival/duration/boot milliseconds the two agree exactly; fractional boots
are quantized to the grid, which per-invocation tolerances must absorb.

Intentionally shares no code with engine.py beyond the profile dataclass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import EmptyTrace
from ..traceio import TraceEvent
from .engine import InvocationOutcome, SimConfig
from .profiles import BootType, VariantProfile


@dataclass(frozen=True)
class OracleResult:
    """One variant's rows, in invocation-id order, and its makespan."""

    variant: str
    outcomes: list[InvocationOutcome]
    makespan_ms: float


class _OracleNode:
    def __init__(self, node_id: int, slots: int, cache_size: int):
        self.node_id = node_id
        self.slots = slots
        self.cache_size = cache_size
        self.running: list[tuple[int, int]] = []  # (finish_ms, invocation_id)
        self.cache: list[tuple[tuple[int, int], int]] = []  # (key, last_use)

    def busy(self) -> int:
        return len(self.running)

    def cached_keys(self) -> list[tuple[int, int]]:
        return [key for key, _ in self.cache]

    def eligible(self, cap: Optional[int]) -> bool:
        if len(self.running) >= self.slots:
            return False
        if cap is None:
            return True
        return len(self.cache) + len(self.running) < cap

    def touch(self, key: tuple[int, int], seq: int,
              cap: Optional[int]) -> None:
        for i, (k, _) in enumerate(self.cache):
            if k == key:
                self.cache[i] = (key, seq)
                return
        self.cache.append((key, seq))
        while len(self.cache) > self.cache_size or (
                cap is not None
                and len(self.cache) + len(self.running) > cap):
            oldest = min(range(len(self.cache)),
                         key=lambda i: self.cache[i][1])
            self.cache.pop(oldest)


def _classify(node: _OracleNode, event: TraceEvent,
              profile: VariantProfile) -> BootType:
    keys = node.cached_keys()
    if (event.app_id, event.function_id) in keys:
        return BootType.WARM
    if profile.lukewarm_boot is not None:
        if any(app == event.app_id for app, _ in keys):
            return BootType.LUKEWARM
    return BootType.COLD


def _pick(nodes: list[_OracleNode], event: TraceEvent,
          profile: VariantProfile, cap: Optional[int]) -> Optional[_OracleNode]:
    exact = [n for n in nodes if n.eligible(cap)
             and (event.app_id, event.function_id) in n.cached_keys()]
    if exact:
        return min(exact, key=lambda n: n.node_id)
    if profile.lukewarm_boot is not None:
        same_app = [n for n in nodes if n.eligible(cap)
                    and any(app == event.app_id
                            for app, _fn in n.cached_keys())]
        if same_app:
            return min(same_app, key=lambda n: n.node_id)
    free = [n for n in nodes if n.eligible(cap)]
    if free:
        return min(free, key=lambda n: n.node_id)
    return None


def _oracle_variant(trace: Sequence[TraceEvent], profile: VariantProfile,
                    config: SimConfig) -> OracleResult:
    rng = random.Random(config.seed)
    cap = profile.per_node_instance_cap
    nodes = [_OracleNode(i, config.slots, config.cache_size)
             for i in range(config.nodes)]
    queue: list[TraceEvent] = []
    outcomes: list[InvocationOutcome] = []
    seq = 0
    makespan = 0

    arrivals = sorted(trace, key=lambda e: (e.arrival_ms, e.invocation_id))
    next_arrival = 0

    def dispatch(event: TraceEvent, node: _OracleNode, now: int) -> None:
        nonlocal seq, makespan
        boot_type = _classify(node, event, profile)
        if boot_type is BootType.WARM:
            boot = profile.warm_boot.sample(rng)
        elif boot_type is BootType.LUKEWARM:
            boot = profile.lukewarm_boot.sample(rng)
        else:
            boot = profile.cold_boot.sample(rng)
        delay = (now - event.arrival_ms) + boot
        adjusted = event.duration_ms + boot
        finish = int(round(now + adjusted))
        slowdown = (delay + adjusted) / event.duration_ms
        node.running.append((finish, event.invocation_id))
        seq += 1
        node.touch((event.app_id, event.function_id), seq, cap)
        makespan = max(makespan, finish)
        outcomes.append(InvocationOutcome(
            event.invocation_id, node.node_id, boot_type, delay, slowdown,
            now, finish))

    def drain(now: int) -> None:
        while queue:
            node = _pick(nodes, queue[0], profile, cap)
            if node is None:
                return
            dispatch(queue.pop(0), node, now)

    events_by_id = {e.invocation_id: e for e in trace}
    t = 0
    while (next_arrival < len(arrivals) or queue
           or any(node.running for node in nodes)):
        finished: list[tuple[int, _OracleNode]] = []
        for node in nodes:
            for finish, invocation_id in node.running:
                if finish == t:
                    finished.append((invocation_id, node))
        for invocation_id, node in sorted(finished, key=lambda x: x[0]):
            node.running = [(f, i) for f, i in node.running
                            if i != invocation_id]
            event = events_by_id[invocation_id]
            seq += 1
            node.touch((event.app_id, event.function_id), seq, cap)
            drain(t)

        while (next_arrival < len(arrivals)
               and int(round(arrivals[next_arrival].arrival_ms)) == t):
            event = arrivals[next_arrival]
            next_arrival += 1
            node = None if queue else _pick(nodes, event, profile, cap)
            if node is None:
                queue.append(event)
            else:
                dispatch(event, node, t)
        t += 1

    outcomes.sort(key=lambda o: o.invocation_id)
    return OracleResult(profile.name, outcomes, float(makespan))


def oracle_simulate(trace: Sequence[TraceEvent],
                    config: SimConfig) -> dict[str, OracleResult]:
    """Time-stepped reference results for every configured variant.

    Restricted to small traces (<= 1000 invocations); times are quantized
    to whole milliseconds.
    """
    if not trace:
        raise EmptyTrace("oracle requires at least one trace event")
    if len(trace) > 1000:
        raise ValueError("oracle is meant for traces of <= 1000 invocations")
    results = {}
    for name in sorted(config.profiles):
        profile = config.profiles[name]
        if config.jitter_sigma > 0:
            profile = profile.with_jitter(config.jitter_sigma)
        results[name] = _oracle_variant(trace, profile, config)
    return results
