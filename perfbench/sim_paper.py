"""sim-paper: the paper's scale-out configuration on the trace simulator.

The generator's Zipf-1.1 trace over 4000 functions / 200 apps at 600
invocations/s, five minutes long (about 180 k invocations), replayed on
100 nodes x 32 slots with a 32-entry warm cache for Wallet, VM and CVM.
The three variants cover the engine's three paths: Wallet's lukewarm
app index, VM's plain path, and CVM's instance cap, which queues heavily.
Container and MicroVM share VM's path, so they would add time but no path.

One operation is one round: ``simulate`` of each variant plus its
``SimStats.to_row()``, as a user comparing the three variants waits for
all three rows.  Set-up is trace generation, done five times.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

from walletemu.sim import SimConfig, default_profiles, simulate
from walletemu.traceio import GeneratorSpec, generate_trace

from common import Phase, peak_rss_mib, planned_operations

TRACE_SHAPE = {"n_functions": 4000, "n_apps": 200, "duration_minutes": 5.0,
               "arrival_rate_per_s": 600.0, "popularity_zipf_s": 1.1}
CLUSTER = {"nodes": 100, "slots": 32, "cache_size": 32}
VARIANTS = ("Wallet", "VM", "CVM")
SETUPS = 5
NOMINAL_ROUNDS_PER_S = 0.15  # rounds per --seconds
SPEED_SAMPLES = 10  # reference-kernel samples before each variant and after the last
BOOT_CODES = {"cold": 0, "lukewarm": 1, "warm": 2}

SHAPE = {"trace": TRACE_SHAPE, "cluster": CLUSTER, "variants": VARIANTS,
         "setups": SETUPS, "nominal_rounds_per_s": NOMINAL_ROUNDS_PER_S,
         "operation": "one round: simulate + to_row for each variant"}


def _column(outcomes, attr: str, dtype) -> np.ndarray:
    return np.fromiter((getattr(o, attr) for o in outcomes), dtype=dtype,
                       count=len(outcomes))


def _boot_codes(outcomes) -> np.ndarray:
    return np.fromiter((BOOT_CODES[o.boot_type.value] for o in outcomes),
                       dtype=np.uint8, count=len(outcomes))


def _outputs_digest(row: dict, codes: np.ndarray, delays: np.ndarray) -> bytes:
    h = hashlib.sha256(json.dumps(row, sort_keys=True).encode())
    h.update(codes.tobytes())
    h.update(delays.astype("<f8").tobytes())
    return h.digest()


def _check_outcomes(phase: Phase, variant: str, stats, row: dict,
                    trace_cols: dict, profile) -> dict:
    """The independent checks on a first replay; returns its boot counts.

    They use only the trace, the profile's boot means and each outcome's
    node, boot type, start, finish and delay, never the engine's stats.
    """
    outs = stats.outcomes
    n = len(trace_cols["arrival"])
    ids = _column(outs, "invocation_id", np.int64)
    if not phase.check(
            len(ids) == n and np.array_equal(np.sort(ids), trace_cols["ids"]),
            "sim.every_invocation_once"):
        return {}
    order = np.argsort(ids)
    codes = _boot_codes(outs)[order]
    node = _column(outs, "node_id", np.int64)[order]
    start = _column(outs, "start_ms", np.float64)[order]
    finish = _column(outs, "finish_ms", np.float64)[order]
    arrival, duration = trace_cols["arrival"], trace_cols["duration"]

    counts = {name: int((codes == code).sum())
              for name, code in BOOT_CODES.items()}
    phase.check(sum(counts.values()) == n
                and all(row[k] == counts[k] for k in counts),
                "sim.boot_counts_sum_to_trace")
    phase.check(bool((start >= arrival).all()), "sim.start_after_arrival")
    boot_ms = np.array([profile.cold_boot.mean_ms,
                        profile.lukewarm_boot.mean_ms
                        if profile.lukewarm_boot else np.nan,
                        profile.warm_boot.mean_ms])[codes]
    phase.check(bool(np.allclose(finish, start + duration + boot_ms,
                                 rtol=0.0, atol=1e-6)),
                "sim.finish_is_start_duration_boot")
    # Sweep each node's starts (+1) and finishes (-1) in time order,
    # finishes first at equal times: a freed slot may be reused at once.
    times = np.concatenate([start, finish])
    deltas = np.concatenate([np.ones(n, np.int64), -np.ones(n, np.int64)])
    nodes = np.concatenate([node, node])
    sweep = np.cumsum(deltas[np.lexsort((deltas, times, nodes))])
    phase.check(int(sweep.max()) <= CLUSTER["slots"],
                "sim.node_concurrency_within_slots")
    phase.check(variant == "Wallet" or counts["lukewarm"] == 0,
                "sim.lukewarm_only_for_wallet")
    counts["queued"] = int((start > arrival).sum())
    return counts


def run(seed: int, seconds: float, tracer) -> Phase:
    # Each round is scaled by the samples taken before, between and after
    # its variants' replays.
    phase = Phase(segment=1)

    def make_trace():
        with tracer.span("traceio.generate_trace"):
            return generate_trace(GeneratorSpec(**TRACE_SHAPE, seed=seed))

    trace = None
    for _ in range(SETUPS):
        trace = None
        trace = phase.setup(make_trace)
    n = len(trace)
    ids = np.fromiter((e.invocation_id for e in trace), np.int64, n)
    by_id = np.argsort(ids)
    trace_cols = {
        "ids": ids[by_id],
        "arrival": np.array([e.arrival_ms for e in trace])[by_id],
        "duration": np.array([e.duration_ms for e in trace])[by_id],
    }
    profiles = default_profiles()
    configs = {v: SimConfig(**CLUSTER, profiles={v: profiles[v]}, seed=seed)
               for v in VARIANTS}
    first: dict[str, bytes] = {}
    rows: dict[str, dict] = {}
    rounds = 0
    planned = planned_operations(seconds, NOMINAL_ROUNDS_PER_S)
    while rounds < planned and not (rounds and phase.over_time(seconds)):
        rounds += 1
        results = {}
        with tracer.request():
            elapsed = 0
            for variant in VARIANTS:
                phase.sample_speed(SPEED_SAMPLES)
                t0 = time.perf_counter_ns()
                with tracer.span(f"sim.{variant}.simulate"):
                    stats = simulate(trace, configs[variant])[variant]
                with tracer.span(f"sim.{variant}.to_row"):
                    results[variant] = (stats, stats.to_row())
                elapsed += time.perf_counter_ns() - t0
                stats = None
            phase.sample_speed(SPEED_SAMPLES)
        phase.attempted += 1
        before = sum(phase.check_failures.values())
        for variant, (stats, row) in results.items():
            outs = stats.outcomes
            digest = _outputs_digest(row, _boot_codes(outs),
                                     _column(outs, "delay_ms", np.float64))
            if variant not in first:
                first[variant] = digest
                rows[variant] = row
                counts = _check_outcomes(phase, variant, stats, row,
                                         trace_cols, profiles[variant])
                for name, value in counts.items():
                    phase.counters[f"sim.{variant}.{name}"] = (value, "count")
            else:
                phase.check(digest == first[variant],
                            "sim.replay_deterministic")
        results = stats = outs = None
        ok = sum(phase.check_failures.values()) == before
        if not ok:
            phase.failed += 1
        phase.timed(elapsed, ok, n * len(VARIANTS))
        if rounds == 1:
            phase.peak_rss_mib = peak_rss_mib()
    phase.digest = hashlib.sha256(
        b"".join(first[v] for v in VARIANTS)).hexdigest()
    phase.info = {
        "trace_invocations": n, "rounds": rounds, "planned_rounds": planned,
        "rows": {v: {k: rows[v][k] for k in ("p50_delay_ms", "p99_delay_ms",
                                             "cold", "lukewarm", "warm")}
                 for v in VARIANTS},
    }
    return phase
