"""Alternating parent/change pairs of perfbench runs, summarised as one
``BENCH_<pr>.json``.

The parent tree is ``git archive`` of a commit; the change tree is the
working tree's tracked and new (not ignored) files.  Each of ``PAIRS``
pairs runs

    python3 perfbench/run.py --workload W --seed 0 --seconds T --trace 0

once in each tree, as a subprocess from a fresh copy, with T the
``run_seconds`` of BENCHMARK.json; odd-numbered pairs run the parent
first.  The runner reads run.py's final JSON line, its ``digest:`` line
and its ``untraced: unscaled`` line.

Decision rule, per metric, with ``better`` and ``bound`` from
BENCHMARK.json:

- "gain": the change is better in at least nine tenths of the pairs
  (ties count for neither) and its median is better than the parent's by
  more than the parent's inclusive quartile range;
- "regression": the change's median is worse than the parent's by more
  than the bound (a fraction of the parent's median);
- "unresolved": the parent's quartile range is wider than the bound,
  unless every run of the change is better than every run of the parent;
- "within bound": otherwise.

``--sim-memory`` adds acceptance criterion 7 on both trees: the
tracemalloc peak of each variant's ``simulate`` on the criterion's trace
and cluster, and the wall time and max RSS of ``pytest -k criterion_7``
over three alternating runs.

``--cli`` adds the command-line runs ``walletemu chain --k 32``,
``density --n-functions 500`` and ``emulate`` (a small zygote, two
functions, three invocations, its files written into a temporary
directory by each tree's own code first) on both trees: the best wall
time and the best max RSS of three alternating runs each.  The max RSS
is the child's own, from ``wait4``: ``getrusage(RUSAGE_CHILDREN)`` keeps
the largest of all children so far, which cannot tell the trees apart.

``--layers`` times the object layer alone on both trees: the best of
``LAYER_CYCLES`` input-plus-output object cycles at 1, 16 and 64 pages,
each in a fresh process, ``LAYER_REPEATS`` alternating runs per tree.  A
cycle is the object work of one warm invocation: the monitor creates,
writes and retires an input object that the process attaches to and
reads, and the process creates and writes an output object that the
monitor reads and retires.  The payload fills all but 100 bytes of its
pages.  Each side's figure is its best run.

``--layers`` also times the trustlet lifecycle on both trees, in the
same schema: over ``LIFECYCLE_ROUNDS`` rounds per run, each run in a
fresh process with a 1 MiB zygote, the best ``create_trustlet``, the
best ``delete_trustlet`` of a trustlet that served one invocation, and
the best warm invocation of a trustlet that one user calls against one
that two users call in turn, interleaved in each round.  The last two
differ by the per-user recreation, recorded as ``recreation``: per side,
its best alternating-user invocation less its best one-user invocation.

``--layers`` also records, as "report_and_accounting" in the same
schema, the best of ``REPORT_ACCOUNTING_ROUNDS`` report builds (build,
sign and encode one link) and ``accounting()`` calls over a 1 MiB zygote
and 16 trustlets, each run in a fresh process.

``--layers`` also records, as "user_round_trip" in the same schema, the
best of ``ROUND_TRIP_ROUNDS`` round trips of one user at each of
``ROUND_TRIP_KIB`` KiB of input, each run in a fresh process: the request
made and sealed, the warm invocation of an identity trustlet over a 1 MiB
zygote, and the response decrypted and its report verified.

Usage, from the repository root:

    python3 tools/benchpair.py --pr 26 --parent HEAD~1 --sim-memory
    python3 tools/benchpair.py --pr cli --workloads "" --cli
    python3 tools/benchpair.py --pr layers --workloads "" --layers
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sim-paper", "emu-serve", "emu-churn")
SIDES = ("parent", "change")
PAIRS = 10
WIN_SHARE = 0.9  # of the pairs, for a gain
SEED = 0  # run.py checks its digests against the recorded ones at seed 0
SIM_REPEATS = 3
CLI_REPEATS = 3
LAYER_PAGES = (1, 16, 64)
LAYER_REPEATS = 5
LAYER_CYCLES = 1500
LIFECYCLE_ROUNDS = 2000
REPORT_ACCOUNTING_ROUNDS = 1000
ROUND_TRIP_KIB = (1, 64, 256)
ROUND_TRIP_ROUNDS = 400
CLI_MAIN = ["-c", "import sys; from walletemu.cli import main; "
                  "sys.exit(main(sys.argv[1:]))"]
CLI_RUNS = {  # "{dir}" is the tree's directory of emulate's files
    "chain --k 32": ["chain", "--k", "32"],
    "density --n-functions 500": ["density", "--n-functions", "500"],
    "emulate": ["emulate", "--zygote", "{dir}/zygote.wzyg",
                "--function", "{dir}/echo.json",
                "--function", "{dir}/shout.json", "-n", "3"],
}
CLI_FILES = """
import sys
from pathlib import Path
from walletemu.images import FunctionSpec, PipelineOp, ZygoteImage
out = Path(sys.argv[1])
image = ZygoteImage("cli-rt", 20, [("/data/x", b"42")])
(out / "zygote.wzyg").write_bytes(image.canonical_bytes)
for name, op in (("echo", PipelineOp.identity()),
                 ("shout", PipelineOp.uppercase())):
    (out / f"{name}.json").write_text(FunctionSpec(name, [op], 1.0).to_json())
"""
CRITERION_7 = ["-m", "pytest", "-q", "-p", "no:cacheprovider",
               "tests/test_acceptance.py", "-k", "criterion_7"]

# Runs criterion 7's own body up to its simulate call, so the trace and
# config come from the test, then traces each variant's simulate alone.
SIM_MEMORY_PROBE = """
import dataclasses, json, sys, tracemalloc
sys.path.insert(0, "tests")
import test_acceptance
from walletemu.sim import simulate

class Captured(Exception):
    pass

def capture(trace, config):
    raise Captured(trace, config)

test_acceptance.simulate = capture
try:
    test_acceptance.test_criterion_7_simulator_ordering_and_magnitude \
        .__wrapped__()
except Captured as got:
    trace, config = got.args
out = {"invocations": len(trace)}
for name, profile in config.profiles.items():
    tracemalloc.start()
    simulate(trace, dataclasses.replace(config, profiles={name: profile}))
    out[name] = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
print(json.dumps(out))
"""

# Times LAYER_CYCLES object cycles per page count, each tree through the
# object calls it has: ``make`` and ``end``, or the ten calls they replaced;
# prints each page count's best cycle in microseconds.
LAYER_PROBE = """
import json, sys, time
from walletemu.memory import (
    PAGE_SIZE, CostModel, FrameStore, MemoryPool, PageTable)
from walletemu.objects import MONITOR_PID, ObjectStore, ObjectType

def made_and_ended(objects, table, data):
    obj, _, _ = objects.make(data, ObjectType.INPUT, reader=table)
    read_in = objects.read_through(table, obj)
    objects.end(obj)
    obj, _, _ = objects.make(data, ObjectType.OUTPUT, writer=table)
    read_out = objects.read_monitor(obj)
    objects.end(obj)
    return read_in, read_out

def created_and_retired(objects, table, data):
    obj, _ = objects.create(MONITOR_PID, None, len(data), ObjectType.INPUT)
    objects.write_monitor(obj, data)
    objects.attach_reader(1, table, obj)
    read_in = objects.read_through(1, table, obj)
    objects.retire(obj)
    obj, _ = objects.create(1, table, len(data), ObjectType.OUTPUT)
    objects.write_through(1, table, obj, data)
    objects.seal(obj)
    read_out = objects.read_monitor(obj)
    objects.retire(obj)
    return read_in, read_out

cycle = made_and_ended if hasattr(ObjectStore, "make") else created_and_retired

def best_cycle_us(pages, cycles):
    store = FrameStore()
    pool = MemoryPool(store)
    pool.grow(4096, validated=True)
    objects = ObjectStore(pool, CostModel())
    table = PageTable(store, 1)
    data = bytes(range(256)) * (pages * PAGE_SIZE // 256)
    data = data[:-100]
    clock, best = time.perf_counter, float("inf")
    for _ in range(cycles):
        started = clock()
        read_in, read_out = cycle(objects, table, data)
        best = min(best, clock() - started)
        assert read_in == read_out == data
    return best * 1e6

cycles = int(sys.argv[1])
print(json.dumps({p: best_cycle_us(int(p), cycles) for p in sys.argv[2:]}))
"""

# Times the trustlet lifecycle with the API that every tree has; prints each
# call's best in microseconds.  One round creates, invokes once and deletes
# a trustlet, then invokes a trustlet that one user calls and one that two
# users call in turn.
LIFECYCLE_PROBE = """
import json, sys, time
from walletemu.crypto import Rng
from walletemu.images import FunctionSpec, PipelineOp, ZygoteImage
from walletemu.monitor import Monitor, MonitorConfig
from walletemu.provider import FunctionProvider, UserAgent

image = ZygoteImage("probe-rt", 5, [("/blob", bytes(1 << 20))])
fn = FunctionSpec("echo", [PipelineOp.identity()], 0.5)
monitor = Monitor(MonitorConfig(prealloc_bytes=64 << 20, pool_frames=0))
provider = FunctionProvider(Rng(1), [image.digest()], [fn.digest()])
provider.provision(monitor)
users = [UserAgent(Rng(10 + u), provider.public_key()) for u in range(2)]
zygote = monitor.create_zygote(image).handle
clock, best = time.perf_counter, {}

def timed(name, call, *args):
    started = clock()
    out = call(*args)
    best[name] = min(best.get(name, float("inf")), clock() - started)
    return out

def invoke(name, handle, user):
    payload = b"x" * 100
    request = user.make_request(fn.digest(), payload)
    result = timed(name, monitor.invoke_trustlet, handle, request.ciphertext)
    assert user.decrypt_response(request, result.output_ciphertext) == payload

steady, switching = (monitor.create_trustlet(zygote, fn).handle
                     for _ in range(2))
for i in range(int(sys.argv[1])):
    handle = timed("create_trustlet", monitor.create_trustlet, zygote,
                   fn).handle
    invoke("warm", handle, users[0])
    timed("delete_trustlet", monitor.delete_trustlet, handle)
    invoke("invoke_one_user", steady, users[0])
    invoke("invoke_alternating_users", switching, users[i % 2])
del best["warm"]
print(json.dumps({name: s * 1e6 for name, s in best.items()}))
"""

# Times two layers with calls that every tree has; prints each one's best
# in microseconds over its rounds: a one-link report built, signed and
# encoded, its zygote and function digests cached and its input and output
# hashed fresh; and ``accounting()`` over a 1 MiB zygote and 16 trustlets
# that each served one invocation.
REPORT_ACCOUNTING_PROBE = """
import json, sys, time
from walletemu import attestation as att
from walletemu.crypto import Rng, SigningKey
from walletemu.images import FunctionSpec, PipelineOp, ZygoteImage
from walletemu.memory import CostModel, accounting
from walletemu.monitor import Monitor, MonitorConfig
from walletemu.provider import FunctionProvider, UserAgent

rounds = int(sys.argv[1])
image = ZygoteImage("probe-rt", 5, [("/blob", bytes(1 << 20))])
fn = FunctionSpec("echo", [PipelineOp.identity()], 0.5)
clock, best = time.perf_counter, {}

def timed(name, call, *args):
    started = clock()
    out = call(*args)
    best[name] = min(best.get(name, float("inf")), clock() - started)
    return out

model, cache = CostModel(), att.MeasurementCache()
platform = att.asp_gen(att.MachineKey.generate(Rng(1)), bytes(64), bytes(64))
signer = SigningKey.generate(Rng(2))
rng = Rng(3)

def report(nonce, link):
    built, _ = att.build_report(cache, nonce, [link], platform, signer, model)
    return built.to_bytes()

monitor = Monitor(MonitorConfig(prealloc_bytes=64 << 20, pool_frames=0))
provider = FunctionProvider(Rng(4), [image.digest()], [fn.digest()])
provider.provision(monitor)
user = UserAgent(Rng(5), provider.public_key())
zygote = monitor.create_zygote(image).handle
for _ in range(16):
    handle = monitor.create_trustlet(zygote, fn).handle
    monitor.invoke_trustlet(handle, user.make_request(
        fn.digest(), b"x" * 100).ciphertext)
tables = monitor.live_tables()
for _ in range(rounds):
    link = att.InvocationMeasurements(image, fn, rng.bytes(100), rng.bytes(100))
    timed("report_build_sign", report, rng.bytes(16), link)
    timed("accounting", accounting, tables)
print(json.dumps({name: s * 1e6 for name, s in best.items()}))
"""

# Times one user's round trip with calls that every tree has: make_request,
# the warm invocation, decrypt_response and verify_report, interleaving the
# sizes in each round; prints each size's best in microseconds, keyed by
# its KiB.
USER_ROUND_TRIP_PROBE = """
import json, sys, time
from walletemu import attestation as att
from walletemu.crypto import Rng
from walletemu.images import FunctionSpec, PipelineOp, ZygoteImage
from walletemu.monitor import Monitor, MonitorConfig
from walletemu.provider import FunctionProvider, UserAgent

image = ZygoteImage("probe-rt", 5, [("/blob", bytes(1 << 20))])
fn = FunctionSpec("echo", [PipelineOp.identity()], 0.5)
monitor = Monitor(MonitorConfig(prealloc_bytes=64 << 20, pool_frames=0))
provider = FunctionProvider(Rng(1), [image.digest()], [fn.digest()])
provider.provision(monitor)
user = UserAgent(Rng(2), provider.public_key())
handle = monitor.create_trustlet(monitor.create_zygote(image).handle,
                                 fn).handle
vendor = monitor.machine_key.public_bytes()
clock, best = time.perf_counter, {}

def round_trip(payload):
    started = clock()
    request = user.make_request(fn.digest(), payload)
    result = monitor.invoke_trustlet(handle, request.ciphertext)
    output = user.decrypt_response(request, result.output_ciphertext)
    verified = att.verify_report(result.report, user.expectations(
        request, vendor, monitor.monitor_digest, [image.digest()],
        [fn.digest()]))
    took = clock() - started
    assert verified and output == payload
    return took

payloads = {kib: Rng(3).bytes(int(kib) << 10) for kib in sys.argv[2:]}
for _ in range(int(sys.argv[1])):
    for kib, payload in payloads.items():
        best[kib] = min(best.get(kib, float("inf")), round_trip(payload))
print(json.dumps({kib: s * 1e6 for kib, s in best.items()}))
"""


# -- parsing and summary arithmetic (no subprocess) --------------------------


def parse_run(stdout: str) -> dict:
    """One run.py output: its final JSON result, digests and unscaled
    figures."""
    lines = stdout.splitlines()
    result = next(json.loads(line) for line in reversed(lines)
                  if line.startswith("{"))
    digests, unscaled = [], {}
    for line in lines:
        if line.startswith("digest: "):
            digests = line[len("digest: "):].split()
        elif line.startswith("untraced: unscaled "):
            unscaled = json.loads(line[len("untraced: unscaled "):])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "digests": digests,
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()},
            "unscaled": unscaled}


def quartiles(values: list[float]) -> list[float]:
    """Inclusive quartiles [q1, median, q3]."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarise(parent: list[float], change: list[float], better: str,
              bound: float) -> dict:
    """Medians, quartiles, delta, wins and verdict over pairs
    (parent[i], change[i]) of one metric whose ``better`` is "higher" or
    "lower" and whose ``bound`` is the fraction of the parent's median by
    which it may worsen."""
    sign = 1 if better == "higher" else -1
    p_q, c_q = quartiles(parent), quartiles(change)
    p_med, c_med = p_q[1], c_q[1]
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    iqr = p_q[2] - p_q[0]
    gain = sign * (c_med - p_med)
    allowed = bound * abs(p_med)
    if wins >= WIN_SHARE * len(parent) and gain > iqr:
        verdict = "gain"
    elif -gain > allowed:
        verdict = "regression"
    elif iqr > allowed and (min(sign * c for c in change)
                            <= max(sign * p for p in parent)):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"better": better, "bound": bound, "parent_median": p_med,
            "parent_quartiles": p_q, "parent_iqr": iqr,
            "change_median": c_med, "change_quartiles": c_q,
            "delta_pct": round(100.0 * (c_med - p_med) / p_med, 2)
            if p_med else None,
            "change_wins": f"{wins}/{len(parent)}", "verdict": verdict}


def summarise_workload(pairs: list[dict], specs: dict) -> dict:
    """Per-metric summaries of a workload's pairs, for the metrics named
    in ``specs`` (name -> BENCHMARK.json entry with ``better`` and
    ``bound``); unscaled figures use the entry of the same name."""
    def table(field):
        names = [n for n in pairs[0]["parent"][field] if n in specs]
        return {n: summarise([p["parent"][field][n] for p in pairs],
                             [p["change"][field][n] for p in pairs],
                             specs[n]["better"], specs[n]["bound"])
                for n in names}

    return {
        "correct": {s: f"{sum(p[s]['correct'] for p in pairs)}/{len(pairs)}"
                    for s in SIDES},
        "digests": {s: sorted({d for p in pairs for d in p[s]["digests"]})
                    for s in SIDES},
        "summary": table("metrics"),
        "unscaled_summary": table("unscaled"),
    }


def summarise_cli(runs: dict) -> dict:
    """Per command (name -> side -> list of ``timed_python`` results):
    each side's best wall time and best max RSS, with the runs, and the
    change's delta against the parent in per cent."""
    out = {}
    for name, sides in runs.items():
        best = {side: {key: min(r[key] for r in sides[side])
                       for key in ("wall_s", "max_rss_mib")}
                for side in SIDES}
        out[name] = {
            **{side: {**best[side], "runs": sides[side]} for side in SIDES},
            "delta_pct": {key: round(100.0 * (best["change"][key]
                                              - best["parent"][key])
                                     / best["parent"][key], 2)
                          for key in ("wall_s", "max_rss_mib")}}
    return out


def summarise_layers(runs: dict) -> dict:
    """Per page count (name -> side -> list of per-run best cycles in
    microseconds): each side's best, the change's time as a fraction of
    the parent's, and its delta in per cent."""
    out = {}
    for pages, sides in runs.items():
        best = {side: min(sides[side]) for side in SIDES}
        out[pages] = {
            **{side: {"best_us": round(best[side], 2),
                      "runs_us": [round(r, 2) for r in sides[side]]}
               for side in SIDES},
            "change_over_parent": round(best["change"] / best["parent"], 3),
            "delta_pct": round(100.0 * (best["change"] - best["parent"])
                               / best["parent"], 2)}
    return out


def summarise_lifecycle(runs: dict) -> dict:
    """``summarise_layers`` of the lifecycle probe's calls (name -> side ->
    per-run bests in microseconds), plus "recreation": per side, its best
    alternating-user invocation less its best one-user invocation."""
    out = summarise_layers(runs)
    alternating, one = (out["invoke_alternating_users"],
                        out["invoke_one_user"])
    best = {side: alternating[side]["best_us"] - one[side]["best_us"]
            for side in SIDES}
    out["recreation"] = {
        **{side: {"best_us": round(best[side], 2)} for side in SIDES},
        "change_over_parent": round(best["change"] / best["parent"], 3),
        "delta_pct": round(100.0 * (best["change"] - best["parent"])
                           / best["parent"], 2)}
    return out


# -- trees and runs -----------------------------------------------------------


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def build_trees(parent: str, work: Path) -> dict[str, Path]:
    trees = {s: work / s for s in SIDES}
    trees["parent"].mkdir()
    with tarfile.open(fileobj=io.BytesIO(git("archive", parent))) as tar:
        tar.extractall(trees["parent"], filter="data")
    files = git("ls-files", "-z", "--cached", "--others",
                "--exclude-standard").split(b"\0")
    for name in filter(None, files):
        src = ROOT / os.fsdecode(name)
        if src.is_file():
            dst = trees["change"] / os.fsdecode(name)
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    return trees


def tree_env(tree: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(tree / "src")
    return env


def run_python(tree: Path, argv: list[str]) -> str:
    done = subprocess.run([sys.executable, *argv], cwd=tree,
                          env=tree_env(tree), capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{argv} in {tree.name} exited {done.returncode}:"
                           f"\n{done.stderr[-2000:]}")
    return done.stdout


def timed_python(tree: Path, argv: list[str]) -> dict:
    """Wall time and the child's own max RSS of one run."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=tree,
                            env=tree_env(tree), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise RuntimeError(f"{argv} in {tree.name} exited {proc.returncode}")
    return {"wall_s": wall, "max_rss_mib": usage.ru_maxrss / 1024}


def order(pair: int) -> tuple[str, str]:
    """Odd-numbered pairs run the parent first."""
    return SIDES if pair % 2 else SIDES[::-1]


def run_pairs(trees, workload, seconds) -> tuple[list, dict]:
    pairs, machine = [], {}
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", "0"]
    for i in range(1, PAIRS + 1):
        entry = {"pair": i, "first": order(i)[0]}
        for side in order(i):
            out = run_python(trees[side], argv)
            entry[side] = parse_run(out)
            machine = machine or json.loads(next(
                line for line in out.splitlines()
                if line.startswith("machine: "))[len("machine: "):])
            print(f"{workload} pair {i} {side}: {entry[side]['metrics']}",
                  file=sys.stderr)
        pairs.append(entry)
    return pairs, machine


def sim_memory(trees) -> dict:
    out = {side: {"tracemalloc_peak_mb": json.loads(run_python(
        trees[side], ["-c", SIM_MEMORY_PROBE]))} for side in SIDES}
    runs = {s: [] for s in SIDES}
    for i in range(1, SIM_REPEATS + 1):
        for side in order(i):
            runs[side].append(timed_python(trees[side], CRITERION_7))
    for side in SIDES:
        out[side]["criterion_7_wall_s"] = [r["wall_s"] for r in runs[side]]
        out[side]["criterion_7_max_rss_mib"] = [r["max_rss_mib"]
                                                for r in runs[side]]
    return out


def cli_runs(trees, work: Path) -> dict:
    dirs = {}
    for side in SIDES:
        dirs[side] = work / f"{side}-cli"
        dirs[side].mkdir()
        run_python(trees[side], ["-c", CLI_FILES, str(dirs[side])])
    runs = {name: {side: [] for side in SIDES} for name in CLI_RUNS}
    for i in range(1, CLI_REPEATS + 1):
        for name, argv in CLI_RUNS.items():
            for side in order(i):
                runs[name][side].append(timed_python(trees[side], CLI_MAIN + [
                    arg.format(dir=dirs[side]) for arg in argv]
                    + ["--seed", str(SEED)]))
    return summarise_cli(runs)


def layer_runs(trees) -> dict:
    argv = ["-c", LAYER_PROBE, str(LAYER_CYCLES), *map(str, LAYER_PAGES)]
    runs = {str(p): {side: [] for side in SIDES} for p in LAYER_PAGES}
    for i in range(1, LAYER_REPEATS + 1):
        for side in order(i):
            for pages, us in json.loads(run_python(trees[side], argv)).items():
                runs[pages][side].append(us)
    return {"cycles_per_run": LAYER_CYCLES, "runs_per_side": LAYER_REPEATS,
            "pages": summarise_layers(runs)}


def probe_runs(trees, probe: str, rounds: int, *args: str) -> dict:
    """LAYER_REPEATS alternating runs of a probe, given rounds and args, on
    each tree, each run printing a best time per name: name -> side ->
    list of bests."""
    argv = ["-c", probe, str(rounds), *args]
    runs: dict = {}
    for i in range(1, LAYER_REPEATS + 1):
        for side in order(i):
            for name, us in json.loads(run_python(trees[side], argv)).items():
                runs.setdefault(name, {s: [] for s in SIDES})[side].append(us)
    return runs


def lifecycle_runs(trees) -> dict:
    return {"rounds_per_run": LIFECYCLE_ROUNDS,
            "runs_per_side": LAYER_REPEATS,
            "calls": summarise_lifecycle(probe_runs(
                trees, LIFECYCLE_PROBE, LIFECYCLE_ROUNDS))}


def report_accounting_runs(trees) -> dict:
    return {"rounds_per_run": REPORT_ACCOUNTING_ROUNDS,
            "runs_per_side": LAYER_REPEATS,
            "calls": summarise_layers(probe_runs(
                trees, REPORT_ACCOUNTING_PROBE, REPORT_ACCOUNTING_ROUNDS))}


def user_round_trip_runs(trees) -> dict:
    return {"rounds_per_run": ROUND_TRIP_ROUNDS,
            "runs_per_side": LAYER_REPEATS,
            "input_kib": summarise_layers(probe_runs(
                trees, USER_ROUND_TRIP_PROBE, ROUND_TRIP_ROUNDS,
                *map(str, ROUND_TRIP_KIB)))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="names BENCH_<pr>.json")
    parser.add_argument("--parent", default="HEAD",
                        help="parent commit (default HEAD)")
    parser.add_argument("--title", default="")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workload names, or none")
    parser.add_argument("--sim-memory", action="store_true")
    parser.add_argument("--cli", action="store_true")
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    if not set(workloads) <= set(WORKLOADS):
        parser.error(f"workloads are among {', '.join(WORKLOADS)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    command = (f"python3 perfbench/run.py --workload <w> --seed {SEED} "
               f"--seconds {seconds} --trace 0")
    doc = {"title": args.title,
           "parent_commit": git("rev-parse", "--short", args.parent)
           .decode().strip(),
           "command": command,
           "method": f"{PAIRS} alternating parent/change pairs per "
                     "workload, odd pairs parent first; each side runs from "
                     "its own copy of the tree (parent: git archive of the "
                     "parent commit; change: the working tree's tracked and "
                     "new files). Metrics are run.py's (host times scaled to "
                     "its reference machine); unscaled_summary reads its "
                     "unscaled figures. Quartiles are inclusive; "
                     "change_wins counts pairs in which the change is better.",
           "decision_rule": "gain if the change wins at least nine tenths "
                            "of the pairs and its median is better by more "
                            "than the parent's quartile range; regression if "
                            "its median is worse by more than the metric's "
                            "bound (a fraction of the parent's median); "
                            "unresolved if the parent's quartile range is "
                            "wider than the bound, unless every change run "
                            "beats every parent run; otherwise within bound.",
           "machine": {}, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="benchpair-") as tmp:
        trees = build_trees(args.parent, Path(tmp))
        for workload in workloads:
            pairs, machine = run_pairs(trees, workload, seconds)
            doc["machine"] = doc["machine"] or machine
            doc["workloads"][workload] = {
                **summarise_workload(pairs, specs), "pairs": pairs}
        if args.sim_memory:
            doc["acceptance_7_sim_memory"] = sim_memory(trees)
        if args.cli:
            doc["cli"] = cli_runs(trees, Path(tmp))
        if args.layers:
            doc["object_layer"] = layer_runs(trees)
            doc["lifecycle"] = lifecycle_runs(trees)
            doc["report_and_accounting"] = report_accounting_runs(trees)
            doc["user_round_trip"] = user_round_trip_runs(trees)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
