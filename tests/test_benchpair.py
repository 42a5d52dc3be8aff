"""The pair runner's parsing and summary arithmetic on canned run.py output."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "benchpair.py"
spec = importlib.util.spec_from_file_location("benchpair", PATH)
benchpair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(benchpair)


def canned_run(rate, rss, digest="eb80f08d", correct=True):
    result = {"correct": correct, "attempted": 3, "failed": 0, "metrics": {
        "sim_inv_per_s": {"value": rate, "unit": "inv/s"},
        "peak_rss_mib": {"value": rss, "unit": "MiB"},
        "trace_overhead_pct": {"value": 1.0, "unit": "%"}}}
    return "\n".join([
        'machine: {"nproc": 2}',
        "untraced: attempted 3, failed 0",
        f'untraced: unscaled {{"sim_inv_per_s": {rate / 2}}}',
        'untraced: info {"rounds": 3}',
        f"digest: {digest}",
        f"digest matches the recorded default-seed digest {digest}",
        f"  sim_inv_per_s = {rate} inv/s",
        json.dumps(result)])


def test_parse_run_reads_result_digest_and_unscaled():
    run = benchpair.parse_run(canned_run(300.0, 200.0))
    assert run == {"correct": True, "attempted": 3, "failed": 0,
                   "digests": ["eb80f08d"],
                   "metrics": {"sim_inv_per_s": 300.0, "peak_rss_mib": 200.0,
                               "trace_overhead_pct": 1.0},
                   "unscaled": {"sim_inv_per_s": 150.0}}


def test_inclusive_quartiles():
    assert benchpair.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 3.0, 4.0]
    assert benchpair.quartiles([4.0, 1.0, 3.0, 2.0]) == [1.75, 2.5, 3.25]
    assert benchpair.quartiles([7.0]) == [7.0, 7.0, 7.0]


def test_summary_claims_a_gain_only_past_the_parent_quartile_range():
    parent = [200.0, 202.0, 204.0, 206.0, 208.0]  # quartile range 4
    clear = benchpair.summarise(parent, [110.0, 111.0, 112.0, 113.0, 114.0],
                                "lower", 0.1)
    assert clear["parent_median"] == 204.0 and clear["parent_iqr"] == 4.0
    assert clear["change_median"] == 112.0
    assert clear["change_quartiles"] == [111.0, 112.0, 113.0]
    assert clear["delta_pct"] == pytest.approx(-45.1, abs=0.01)
    assert clear["change_wins"] == "5/5" and clear["verdict"] == "gain"
    # A large median move that loses one pair in five is not a gain.
    one_loss = benchpair.summarise(
        parent, [110.0, 111.0, 112.0, 113.0, 250.0], "lower", 0.1)
    assert one_loss["change_wins"] == "4/5"
    assert one_loss["verdict"] == "within bound"
    # Wins every pair, but moves the median by less than the range.
    small = benchpair.summarise(parent, [p - 1.0 for p in parent], "lower",
                                0.1)
    assert small["change_wins"] == "5/5"
    assert small["verdict"] == "within bound"
    # Ties count for neither side.
    assert benchpair.summarise(parent, parent, "lower", 0.1)["change_wins"] \
        == "0/5"
    higher = benchpair.summarise(parent, [300.0] * 5, "higher", 0.25)
    assert higher["verdict"] == "gain" and higher["delta_pct"] > 0
    assert benchpair.summarise(parent, [100.0] * 5, "higher", 0.25)[
        "verdict"] == "regression"


def test_summary_checks_the_bound_without_a_majority_of_losses():
    parent = [100.0 + i for i in range(10)]  # median 104.5, range 4.5
    # 20 % slower in the median, yet two of ten pairs win: still worse
    # than the 10 % bound.
    change = [p * 1.2 for p in parent]
    change[0], change[1] = 99.0, 100.0
    worse = benchpair.summarise(parent, change, "lower", 0.1)
    assert worse["change_wins"] == "2/10"
    assert worse["delta_pct"] == pytest.approx(20.0)
    assert worse["verdict"] == "regression"
    # The same median move inside a 25 % bound passes the bound.
    assert benchpair.summarise(parent, change, "lower", 0.25)["verdict"] \
        == "within bound"
    # A parent range wider than the bound leaves the metric unresolved...
    wide = [50.0, 80.0, 100.0, 120.0, 150.0]  # range 40 of median 100
    assert benchpair.summarise(wide, [99.0] * 5, "lower", 0.25)[
        "verdict"] == "unresolved"
    # ...unless every change run beats every parent run.
    assert benchpair.summarise(wide, [49.0] * 5, "lower", 0.25)[
        "verdict"] == "gain"
    assert benchpair.summarise(wide, [49.0, 49.0, 49.0, 49.0, 160.0],
                               "lower", 0.25)["verdict"] == "unresolved"
    skewed = [90.0, 95.0, 100.0, 130.0, 131.0]  # range 35 of median 100
    beats = benchpair.summarise(skewed, [132.0] * 5, "higher", 0.25)
    assert beats["change_wins"] == "5/5" and beats["verdict"] == "within bound"


def test_workload_summary_over_canned_pairs():
    pairs = [{"pair": i, "first": benchpair.order(i)[0],
              "parent": benchpair.parse_run(canned_run(300.0 + i, 203.0)),
              "change": benchpair.parse_run(canned_run(
                  310.0 + i, 116.0, correct=i != 2))}
             for i in (1, 2, 3)]
    assert [p["first"] for p in pairs] == ["parent", "change", "parent"]
    out = benchpair.summarise_workload(
        pairs, {"sim_inv_per_s": {"better": "higher", "bound": 0.25},
                "peak_rss_mib": {"better": "lower", "bound": 0.1}})
    assert out["correct"] == {"parent": "3/3", "change": "2/3"}
    assert out["digests"] == {"parent": ["eb80f08d"],
                              "change": ["eb80f08d"]}
    assert set(out["summary"]) == {"sim_inv_per_s", "peak_rss_mib"}
    rss = out["summary"]["peak_rss_mib"]
    assert rss["change_wins"] == "3/3" and rss["verdict"] == "gain"
    assert rss["bound"] == 0.1
    assert rss["delta_pct"] == pytest.approx(-42.86, abs=0.01)
    rate = out["unscaled_summary"]["sim_inv_per_s"]
    assert rate["parent_median"] == 151.0 and rate["change_median"] == 156.0
    assert rate["verdict"] == "gain"  # 5 > the parent's range of 1


def test_cli_summary_takes_each_sides_best_run():
    def runs(*pairs):
        return [{"wall_s": w, "max_rss_mib": r} for w, r in pairs]

    out = benchpair.summarise_cli({"emulate": {
        "parent": runs((2.0, 80.0), (1.6, 82.0), (1.8, 81.0)),
        "change": runs((1.7, 84.0), (2.2, 79.0), (1.9, 80.0))}})
    emulate = out["emulate"]
    assert emulate["parent"]["wall_s"] == 1.6
    assert emulate["parent"]["max_rss_mib"] == 80.0
    assert emulate["change"]["wall_s"] == 1.7
    assert emulate["change"]["max_rss_mib"] == 79.0
    assert len(emulate["change"]["runs"]) == 3
    assert emulate["delta_pct"] == {"wall_s": 6.25, "max_rss_mib": -1.25}


def test_cli_runs_name_the_three_commands():
    assert set(benchpair.CLI_RUNS) == {
        "chain --k 32", "density --n-functions 500", "emulate"}
    emulate = [arg.format(dir="/d") for arg in benchpair.CLI_RUNS["emulate"]]
    assert emulate[:3] == ["emulate", "--zygote", "/d/zygote.wzyg"]


def test_layer_summary_takes_each_sides_best_cycle():
    out = benchpair.summarise_layers({
        "1": {"parent": [60.0, 55.0, 58.0], "change": [44.0, 50.0, 41.0]},
        "64": {"parent": [300.0, 280.0, 290.0],
               "change": [100.0, 140.0, 112.0]}})
    one, big = out["1"], out["64"]
    assert one["parent"]["best_us"] == 55.0
    assert one["change"]["best_us"] == 41.0
    assert one["change"]["runs_us"] == [44.0, 50.0, 41.0]
    assert one["change_over_parent"] == 0.745
    assert one["delta_pct"] == pytest.approx(-25.45, abs=0.01)
    assert big["change_over_parent"] == pytest.approx(100 / 280, abs=1e-3)
    assert big["delta_pct"] == pytest.approx(-64.29, abs=0.01)


def test_layer_summary_reports_each_sides_median_and_quartiles():
    # Five runs a side whose bests differ by 4 % while their medians and
    # quartile ranges overlap: the spread shows the best's move is noise.
    out = benchpair.summarise_layers({"delete_trustlet": {
        "parent": [16.93, 16.61, 17.40, 16.81, 17.10],
        "change": [17.03, 17.60, 15.95, 16.90, 17.20]}})
    delete = out["delete_trustlet"]
    assert delete["parent"]["best_us"] == 16.61
    assert delete["parent"]["median_us"] == 16.93
    assert delete["parent"]["quartiles_us"] == [16.81, 16.93, 17.1]
    assert delete["change"]["best_us"] == 15.95
    assert delete["change"]["median_us"] == 17.03
    assert delete["change"]["quartiles_us"] == [16.9, 17.03, 17.2]
    assert delete["change"]["runs_us"] == [17.03, 17.6, 15.95, 16.9, 17.2]
    assert delete["delta_pct"] == pytest.approx(-3.97, abs=0.01)
    one = benchpair.summarise_layers({"x": {"parent": [3.0],
                                            "change": [2.0]}})["x"]
    assert one["parent"]["quartiles_us"] == [3.0, 3.0, 3.0]
    assert one["change"]["median_us"] == 2.0


def test_sim_memory_probe_records_peak_and_retained_bytes(tmp_path):
    # A stand-in criterion 7 that simulates a small trace: the probe
    # reads its trace and config.  On this cluster Wallet never waits, so
    # its un-jittered results keep node and boot code, 2 bytes per
    # invocation; CVM waits and keeps its start too, 10 bytes.  Each
    # also holds a few KB of fixed state.
    tests_dir = tmp_path / "tests"
    tests_dir.mkdir()
    (tests_dir / "test_acceptance.py").write_text(
        "import functools\n"
        "from walletemu.sim import SimConfig, default_profiles, simulate\n"
        "from walletemu.traceio import GeneratorSpec, generate_trace\n"
        "def criterion(fn):\n"
        "    @functools.wraps(fn)\n"
        "    def wrapper():\n"
        "        return fn()\n"
        "    return wrapper\n"
        "@criterion\n"
        "def test_criterion_7_simulator_ordering_and_magnitude():\n"
        "    trace = generate_trace(GeneratorSpec(\n"
        "        n_functions=400, n_apps=40, duration_minutes=0.2,\n"
        "        arrival_rate_per_s=400.0, seed=7))\n"
        "    profiles = {n: p for n, p in default_profiles().items()\n"
        "                if n in ('Wallet', 'CVM')}\n"
        "    simulate(trace, SimConfig(nodes=20, slots=32, cache_size=32,\n"
        "                              profiles=profiles, seed=7))\n")
    done = subprocess.run(
        [sys.executable, "-c", benchpair.SIM_MEMORY_PROBE],
        capture_output=True, text=True, check=True, cwd=tmp_path,
        env=benchpair.tree_env(benchpair.ROOT))
    out = json.loads(done.stdout)
    peak, retained = out["peak_mb"], out["retained"]
    n = peak["invocations"]
    assert 4000 < n < 5600
    assert set(peak) == {"invocations", "Wallet", "CVM"}
    assert set(retained) == set(out["peak_per_invocation"]) == {"Wallet",
                                                                "CVM"}
    for name, columns in (("Wallet", 2), ("CVM", 10)):
        assert columns <= retained[name] < columns + 8000 / n, name
        assert out["peak_per_invocation"][name] == pytest.approx(
            peak[name] * 1e6 / n)
        assert out["peak_per_invocation"][name] > retained[name]


def test_sim_memory_records_each_variants_peak_per_invocation(monkeypatch):
    # Canned probe output and criterion-7 runs: each side's record keeps
    # the peak in MB and in bytes per invocation beside the retained bytes.
    probes = {"parent": {"peak_mb": {"invocations": 1000, "VM": 13.0},
                         "peak_per_invocation": {"VM": 13000.0},
                         "retained": {"VM": 13.0}},
              "change": {"peak_mb": {"invocations": 1000, "VM": 8.0},
                         "peak_per_invocation": {"VM": 8000.0},
                         "retained": {"VM": 2.0}}}
    monkeypatch.setattr(benchpair, "run_python",
                        lambda tree, argv: json.dumps(probes[tree]))
    monkeypatch.setattr(benchpair, "timed_python",
                        lambda tree, argv: {"wall_s": 9.0,
                                            "max_rss_mib": 180.0})
    out = benchpair.sim_memory({side: side for side in benchpair.SIDES})
    change = out["change"]
    assert change["tracemalloc_peak_mb"] == {"invocations": 1000, "VM": 8.0}
    assert change["tracemalloc_peak_bytes_per_invocation"] == {"VM": 8000.0}
    assert change["retained_bytes_per_invocation"] == {"VM": 2.0}
    assert out["parent"]["tracemalloc_peak_bytes_per_invocation"] == {
        "VM": 13000.0}
    assert change["criterion_7_wall_s"] == [9.0] * benchpair.SIM_REPEATS


def test_layer_probe_runs_on_this_tree():
    # Three cycles each at 1 and 2 pages, with the probe's own check that
    # both objects read back the payload.
    done = subprocess.run(
        [sys.executable, "-c", benchpair.LAYER_PROBE, "3", "1", "2"],
        capture_output=True, text=True, check=True,
        env=benchpair.tree_env(benchpair.ROOT))
    best = json.loads(done.stdout)
    assert set(best) == {"1", "2"} and min(best.values()) > 0


def test_lifecycle_summary_takes_each_calls_best():
    # The recreation is timed per call, like the other calls, rather than
    # derived from two invocations' bests.
    out = benchpair.summarise_layers({
        "create_trustlet": {"parent": [24.0, 23.0], "change": [23.5, 25.0]},
        "delete_trustlet": {"parent": [30.0, 29.0], "change": [20.0, 21.0]},
        "invoke_one_user": {"parent": [210.0, 200.0],
                            "change": [205.0, 201.0]},
        "invoke_alternating_users": {"parent": [245.0, 240.0],
                                     "change": [212.0, 215.0]},
        "recreation": {"parent": [5.0, 4.0], "change": [5.5, 6.0]}})
    assert out["delete_trustlet"]["change_over_parent"] == pytest.approx(
        20 / 29, abs=1e-3)
    assert out["create_trustlet"]["delta_pct"] == pytest.approx(2.17,
                                                                abs=0.01)
    recreation = out["recreation"]
    assert recreation["parent"] == {"best_us": 4.0, "runs_us": [5.0, 4.0],
                                    "median_us": 4.5,
                                    "quartiles_us": [4.25, 4.5, 4.75]}
    assert recreation["change"]["best_us"] == 5.5
    assert recreation["change_over_parent"] == 1.375
    assert recreation["delta_pct"] == 37.5


def test_lifecycle_probe_runs_on_this_tree():
    # Three rounds, with the probe's own check of every response.
    done = subprocess.run(
        [sys.executable, "-c", benchpair.LIFECYCLE_PROBE, "3"],
        capture_output=True, text=True, check=True,
        env=benchpair.tree_env(benchpair.ROOT))
    best = json.loads(done.stdout)
    assert set(best) == {"create_trustlet", "delete_trustlet",
                         "invoke_one_user", "invoke_alternating_users",
                         "recreation"}
    assert min(best.values()) > 0
    assert best["recreation"] < best["invoke_alternating_users"]


def test_report_accounting_summary_takes_each_sides_best_call():
    out = benchpair.summarise_layers({
        "report_build_sign": {"parent": [80.0, 76.0, 79.0],
                              "change": [72.0, 75.0, 71.0]},
        "accounting": {"parent": [120.0, 118.0], "change": [121.0, 119.5]}})
    report, acct = out["report_build_sign"], out["accounting"]
    assert report["parent"]["best_us"] == 76.0
    assert report["change"]["best_us"] == 71.0
    assert report["change_over_parent"] == pytest.approx(71 / 76, abs=1e-3)
    assert report["delta_pct"] == pytest.approx(-6.58, abs=0.01)
    assert acct["change"]["runs_us"] == [121.0, 119.5]
    assert acct["change_over_parent"] == pytest.approx(119.5 / 118,
                                                       abs=1e-3)
    assert acct["delta_pct"] == pytest.approx(1.27, abs=0.01)


def test_report_accounting_probe_runs_on_this_tree():
    done = subprocess.run(
        [sys.executable, "-c", benchpair.REPORT_ACCOUNTING_PROBE, "3"],
        capture_output=True, text=True, check=True,
        env=benchpair.tree_env(benchpair.ROOT))
    best = json.loads(done.stdout)
    assert set(best) == {"report_build_sign", "accounting"}
    assert min(best.values()) > 0


def test_layer_probe_runs_on_the_parent_object_calls(tmp_path):
    # A tree whose store has the ten calls that make and end replaced is
    # timed through those: here a stand-in package that has only them.
    fake = tmp_path / "walletemu"
    fake.mkdir()
    (fake / "__init__.py").write_text("")
    (fake / "memory.py").write_text(
        "PAGE_SIZE = 4096\n"
        "class CostModel: pass\n"
        "class FrameStore: pass\n"
        "class MemoryPool:\n"
        "    def __init__(self, store): pass\n"
        "    def grow(self, n, validated): pass\n"
        "class PageTable:\n"
        "    def __init__(self, store, owner): pass\n")
    (fake / "objects.py").write_text(
        "MONITOR_PID = 0\n"
        "class ObjectType:\n"
        "    INPUT = OUTPUT = None\n"
        "class ObjectStore:\n"
        "    def __init__(self, pool, model): self.data = {}\n"
        "    def create(self, pid, table, n, otype): return 1, 0\n"
        "    def write_monitor(self, obj, data): self.data[obj] = data\n"
        "    def write_through(self, pid, table, obj, data):\n"
        "        self.data[obj] = data\n"
        "    def attach_reader(self, pid, table, obj): pass\n"
        "    def read_through(self, pid, table, obj): return self.data[obj]\n"
        "    def read_monitor(self, obj): return self.data[obj]\n"
        "    def seal(self, obj): pass\n"
        "    def retire(self, obj): pass\n")
    done = subprocess.run(
        [sys.executable, "-c", benchpair.LAYER_PROBE, "2", "1"],
        capture_output=True, text=True, check=True,
        env=dict(benchpair.tree_env(tmp_path), PYTHONPATH=str(tmp_path)))
    assert set(json.loads(done.stdout)) == {"1"}


def test_user_round_trip_summary_over_canned_alternating_runs(tmp_path):
    # A stand-in probe, run in each side's directory, logs its side and
    # prints canned bests keyed by KiB: 100 us plus 2 us per KiB on the
    # parent and 1.5 on the change.
    canned = (
        "import json, os, sys\n"
        "side = os.path.basename(os.getcwd())\n"
        "with open('../order', 'a') as log: log.write(side + ' ')\n"
        "per_kib = {'parent': 2.0, 'change': 1.5}[side]\n"
        "print(json.dumps({k: 100.0 + per_kib * int(k) "
        "for k in sys.argv[2:]}))\n")
    trees = {side: tmp_path / side for side in benchpair.SIDES}
    for tree in trees.values():
        tree.mkdir()
    out = benchpair.summarise_layers(benchpair.probe_runs(
        trees, canned, 3, *map(str, benchpair.ROUND_TRIP_KIB)))
    # Odd-numbered runs start with the parent.
    assert (tmp_path / "order").read_text().split()[:4] == [
        "parent", "change", "change", "parent"]
    assert set(out) == {"1", "64", "256"}
    assert out["1"]["parent"]["best_us"] == 102.0
    assert out["1"]["change"]["best_us"] == 101.5
    big = out["256"]
    assert big["parent"]["best_us"] == 612.0
    assert big["change"]["best_us"] == 484.0
    assert big["change"]["runs_us"] == [484.0] * benchpair.LAYER_REPEATS
    assert big["change_over_parent"] == pytest.approx(484 / 612, abs=1e-3)
    assert big["delta_pct"] == pytest.approx(-20.92, abs=0.01)


def test_user_round_trip_probe_runs_on_this_tree():
    # Two rounds at 1 and 64 KiB, with the probe's own check of each
    # response and report.
    done = subprocess.run(
        [sys.executable, "-c", benchpair.USER_ROUND_TRIP_PROBE, "2", "1",
         "64"], capture_output=True, text=True, check=True,
        env=benchpair.tree_env(benchpair.ROOT))
    best = json.loads(done.stdout)
    assert set(best) == {"1", "64"} and min(best.values()) > 0


def test_zygote_create_summary_over_canned_alternating_runs(tmp_path):
    # A stand-in probe prints canned bests per case, the same on every
    # run of a side: measuring costs 8000 us on both sides and populating
    # 900 us on the parent against 850 on the change.
    canned = (
        "import json, os\n"
        "side = os.path.basename(os.getcwd())\n"
        "populate = {'parent': 900.0, 'change': 850.0}[side]\n"
        "print(json.dumps({'fresh_image': 8000.0 + populate, "
        "'kept_digest': populate, 'measure': 8000.0}))\n")
    trees = {side: tmp_path / side for side in benchpair.SIDES}
    for tree in trees.values():
        tree.mkdir()
    out = benchpair.summarise_layers(benchpair.probe_runs(trees, canned, 3))
    assert set(out) == {"fresh_image", "kept_digest", "measure"}
    kept = out["kept_digest"]
    assert kept["parent"]["best_us"] == 900.0
    assert kept["change"]["runs_us"] == [850.0] * benchpair.LAYER_REPEATS
    assert kept["change_over_parent"] == pytest.approx(850 / 900, abs=1e-3)
    assert kept["delta_pct"] == pytest.approx(-5.56, abs=0.01)
    assert out["fresh_image"]["change"]["best_us"] == 8850.0
    assert out["fresh_image"]["change_over_parent"] == pytest.approx(
        8850 / 8900, abs=1e-3)
    measure = out["measure"]
    assert measure["parent"]["best_us"] == measure["change"]["best_us"] \
        == 8000.0
    assert measure["change_over_parent"] == 1.0
    assert measure["delta_pct"] == 0.0


def test_zygote_create_probe_runs_on_this_tree():
    done = subprocess.run(
        [sys.executable, "-c", benchpair.ZYGOTE_CREATE_PROBE, "2"],
        capture_output=True, text=True, check=True,
        env=benchpair.tree_env(benchpair.ROOT))
    best = json.loads(done.stdout)
    assert set(best) == {"fresh_image", "kept_digest", "measure"}
    # A fresh image is measured as well as populated.
    assert best["fresh_image"] > best["kept_digest"] > 0
    assert best["fresh_image"] > best["measure"] > 0
