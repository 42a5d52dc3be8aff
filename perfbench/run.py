"""walletemu benchmark: one command, three workloads, one client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sim-paper --seed 0 --seconds 20 --trace 0

Workloads (see README.md in this directory for their shapes):

* ``sim-paper``  the trace simulator at the paper's scale-out configuration
* ``emu-serve``  warm serving on a small zygote, with chained requests
* ``emu-churn``  fork churn on a 147 MiB zygote

``--trace 0`` measures with tracing off and prints the end-to-end metrics.
``--trace 1`` runs the same workload twice in this process, untraced and
then traced, and prints the per-layer metrics of the traced run plus the
tracing overhead; its spans are written as Chrome trace-event JSON under
``perfbench/out/``.  The last line of standard output is always one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

A run makes a fixed number of timed operations, ``--seconds`` times the
workload's nominal rate, and reports host times at the speed of a
reference machine (see ``common.REF_NS``); the unscaled figures are
printed above the result.

The benchmark imports walletemu from ``src/`` of the checkout it sits in
and exits with status 2, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DEFAULT_SEED = 0

# Per-layer calls, timed around the benchmark's own calls into walletemu.
CALLS = (
    "traceio.generate_trace",
    "sim.Wallet.simulate", "sim.Wallet.to_row",
    "sim.VM.simulate", "sim.VM.to_row",
    "sim.CVM.simulate", "sim.CVM.to_row",
    "monitor.invoke_trustlet", "monitor.invoke_chained",
    "monitor.link_chain", "monitor.invoke_with_input",
    "objects.fallback_transfer",
    "monitor.create_trustlet", "monitor.delete_trustlet",
    "memory.accounting", "monitor.create_zygote", "images.digest",
    "provider.make_request", "provider.decrypt_response",
    "attestation.verify_report",
)
# Per-layer counts read from public state, with their units; absent ones
# read 0.
COUNTS = dict(
    [(f"sim.{v}.{c}", "count") for v in ("Wallet", "VM", "CVM")
     for c in ("cold", "lukewarm", "warm", "queued")]
    + [("objects.payload_bytes_copied", "bytes"), ("objects.crypto_ops", "count"),
       ("objects.fallback_copies", "count"), ("monitor.recreations", "count"),
       ("attestation.cache_hits", "count"), ("attestation.cache_misses", "count"),
       ("attestation.cache_bytes_hashed", "bytes"),
       ("attestation.cache_hit_ratio", "ratio"),
       ("memory.free_frames_start", "count"), ("memory.free_frames_end", "count")])


def machine_info() -> dict:
    import cryptography
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cryptography": cryptography.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def workloads() -> dict:
    """name -> (run(seed, seconds, tracer), shape description)."""
    import dataclasses
    import functools

    import emu
    import sim_paper

    return {
        "sim-paper": (sim_paper.run, sim_paper.SHAPE),
        "emu-serve": (functools.partial(emu.run, emu.SERVE),
                      dataclasses.asdict(emu.SERVE)),
        "emu-churn": (functools.partial(emu.run, emu.CHURN),
                      dataclasses.asdict(emu.CHURN)),
    }


RATES = (("sim_inv_per_s", "inv/s"), ("req_per_s", "req/s"))
PERCENTILES = (("latency_p50_ms", 0.50), ("latency_p99_ms", 0.99))


def figures(ops) -> dict:
    """Throughputs and latency percentiles (ms) of timed operations; a
    failed operation ranks above every success."""
    from tracing import quantile

    busy_s = sum(elapsed for elapsed, _, _ in ops) / 1e9
    ok = sorted(elapsed for elapsed, good, _ in ops if good)
    ranked = ok + [None] * (len(ops) - len(ok))
    out = {"sim_inv_per_s": sum(inv for _, _, inv in ops) / busy_s,
           "req_per_s": len(ok) / busy_s}
    for name, q in PERCENTILES:
        value = quantile(ranked, q)
        if value is None:
            # Every latency limit is missed; the slowest success is the
            # nearest measured value, flagged on standard output.
            print(f"warning: {name} falls among failed requests")
            value = ok[-1] if ok else 0
        out[name] = value / 1e6
    return out


def speed_scale(phase, lo: int = 0, hi: Optional[int] = None) -> float:
    """REF_NS over the median reference-kernel time sampled from just
    before timed operation lo to just before operation hi (all samples
    when there are none there)."""
    from common import REF_NS

    hi = len(phase.ops) + 1 if hi is None else hi
    inside = [ns for at, ns in phase.speed if lo <= at < hi]
    return REF_NS / statistics.median(inside or [ns for _, ns in phase.speed])


def scaled_ops(phase) -> list:
    """The phase's timed operations at the reference machine's speed: each
    run of ``phase.segment`` consecutive operations is scaled by the
    reference-kernel samples taken among them."""
    out = []
    for lo in range(0, len(phase.ops), phase.segment):
        segment = phase.ops[lo:lo + phase.segment]
        scale = speed_scale(phase, lo, lo + len(segment))
        out += [(elapsed * scale, ok, inv) for elapsed, ok, inv in segment]
    return out


def end_to_end(phase) -> tuple[dict, dict]:
    """The end-to-end metrics of one phase, with figures taken over the
    whole run, and the same figures unscaled."""
    metrics = {"setup_s": (statistics.median(phase.setup_s), "s"),
               "peak_rss_mib": (phase.peak_rss_mib, "MiB")}
    scaled = figures(scaled_ops(phase))
    for name, unit in RATES + tuple((name, "ms") for name, _ in PERCENTILES):
        metrics[name] = (scaled[name], unit)
    return metrics, figures(phase.ops)


def per_layer(phase, tracer, untraced_metrics, traced_metrics, key) -> dict:
    metrics = tracer.call_stats(CALLS)
    for name, unit in COUNTS.items():
        metrics[name] = phase.counters.get(name, (0, unit))
    roots = [s for s in tracer.spans if s[0] == "client.request"]
    metrics["client.request.count"] = (len(roots), "count")
    metrics["client.request.busy_s"] = (
        sum(s[2] - s[1] for s in roots) / 1e9, "s")
    metrics["client.request.self_s"] = (tracer.root_self_s(), "s")
    scale = speed_scale(phase)
    for name, (value, unit) in metrics.items():
        if unit in ("s", "ms"):
            metrics[name] = (value * scale, unit)
    base = untraced_metrics[key][0]
    metrics["trace_overhead_pct"] = (
        100.0 * (base - traced_metrics[key][0]) / base, "%")
    return metrics


def recorded_digest(workload: str) -> str:
    recorded = json.loads((HERE / "recorded.json").read_text(encoding="utf-8"))
    return recorded["default_seed_digests"][workload]


def report_phase(label: str, phase, unscaled: dict) -> None:
    from tracing import rank_index

    n = len(phase.ops)
    print(f"{label}: attempted {phase.attempted}, failed {phase.failed}, "
          f"failure kinds {dict(phase.failures)}, "
          f"check failures {dict(phase.check_failures)}")
    print(f"{label}: {n} timed operations, "
          f"{sum(1 for _, ok, _ in phase.ops if not ok)} failed, "
          f"{n - rank_index(0.99, n)} beyond p99; setups "
          f"{[round(s, 4) for s in phase.setup_s]} s scaled, "
          f"{[round(s, 4) for s in phase.setup_raw_s]} s unscaled")
    ref = [ns for _, ns in phase.speed]
    print(f"{label}: {len(ref)} reference-kernel samples, median "
          f"{statistics.median(ref) / 1e3:.1f} us, quartiles "
          f"{[round(q / 1e3, 1) for q in statistics.quantiles(ref, n=4)]} us")
    print(f"{label}: unscaled {json.dumps(unscaled, sort_keys=True)}")
    print(f"{label}: info {json.dumps(phase.info, sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim-paper", "emu-serve", "emu-churn"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "walletemu" / "__init__.py").is_file():
        print(f"perfbench: no walletemu sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from tracing import NULL_TRACER, Tracer

    run, shape = workloads()[args.workload]
    key = "sim_inv_per_s" if args.workload == "sim-paper" else "req_per_s"
    print(f"machine: {json.dumps(machine_info(), sort_keys=True)}")
    print(f"workload: {args.workload} seed {args.seed} seconds {args.seconds}")
    print(f"shape: {json.dumps(shape, sort_keys=True)}")

    phases = [run(args.seed, args.seconds, NULL_TRACER)]
    metrics, unscaled = end_to_end(phases[0])
    report_phase("untraced", phases[0], unscaled)
    if args.trace:
        gc.collect()
        tracer = Tracer()
        phases.append(run(args.seed, args.seconds, tracer))
        traced_metrics, traced_unscaled = end_to_end(phases[1])
        report_phase("traced", phases[1], traced_unscaled)
        metrics = per_layer(phases[1], tracer, metrics, traced_metrics, key)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        n = tracer.write_chrome(path, {"workload": args.workload,
                                       "seed": args.seed})
        print(f"trace: {n} spans written to {path.relative_to(HERE.parent)}")

    digests = {p.digest for p in phases}
    print(f"digest: {' '.join(sorted(digests))}")
    # At the default seed the outputs must be bit-identical to the
    # recorded ones; any other seed is checked only for agreement between
    # the runs in this process.
    same_outputs = len(digests) == 1
    if args.seed == DEFAULT_SEED:
        recorded = recorded_digest(args.workload)
        same_outputs = digests == {recorded}
        print(f"digest {'matches' if same_outputs else 'DIFFERS FROM'} the "
              f"recorded default-seed digest {recorded}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")

    check_failures = sum(sum(p.check_failures.values()) for p in phases)
    result = {
        "correct": check_failures == 0 and same_outputs,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
