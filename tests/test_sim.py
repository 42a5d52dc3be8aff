"""Scale-out simulator tests: classification, scheduling, oracle agreement."""

import dataclasses
import gc
import hashlib
import json
import math
import random
import tracemalloc
from operator import attrgetter

import numpy as np
import pytest

from walletemu import traceio
from walletemu.errors import EmptyTrace, InvariantError
from walletemu.sim import (
    BootDist,
    BootType,
    SimConfig,
    VariantProfile,
    default_profiles,
    oracle_simulate,
    simulate,
)
from walletemu.sim.engine import (
    BOOT_TIERS,
    InvocationOutcome,
    _LoopColumns,
    advance,
    make_run,
    nearest_rank,
)
from walletemu.traceio import (
    GeneratorSpec,
    Trace,
    TraceEvent,
    as_trace,
    generate_trace,
    load_trace,
    write_trace,
)


def ev(i, app, fn, arrival, duration):
    return TraceEvent(i, app, fn, float(arrival), float(duration))


def wallet_profile(cold=1000.0, lukewarm=10.0, warm=0.0):
    return VariantProfile("Wallet", BootDist(cold), BootDist(warm),
                          BootDist(lukewarm), 60 * 1024)


def cvm_profile(cold=2000.0, warm=0.0, cap=None):
    return VariantProfile("CVM", BootDist(cold), BootDist(warm),
                          per_function_memory=1,
                          per_node_instance_cap=cap)


def random_trace(rng, n, apps=4, fns=10, span=3000, max_dur=400):
    trace = [ev(i, rng.randrange(apps), rng.randrange(fns),
                rng.randint(0, span), rng.randint(1, max_dur))
             for i in range(n)]
    trace.sort(key=lambda e: (e.arrival_ms, e.invocation_id))
    return trace


class TestClassifyBoot:
    """The tier of the second of two spaced invocations on one node."""

    def second_boot(self, fn, profile):
        trace = [ev(0, 1, 5, 0, 10), ev(1, 1, fn, 5000, 10)]
        config = SimConfig(nodes=1, slots=4, cache_size=8,
                           profiles={profile.name: profile}, seed=0)
        return simulate(trace, config)[profile.name].outcomes[1].boot_type

    def test_cached_function_is_warm(self):
        assert self.second_boot(5, wallet_profile()) is BootType.WARM

    def test_sibling_app_is_lukewarm_for_wallet(self):
        assert self.second_boot(6, wallet_profile()) is BootType.LUKEWARM

    def test_sibling_app_is_cold_without_lukewarm_tier(self):
        assert self.second_boot(6, cvm_profile()) is BootType.COLD


class TestProfiles:
    def test_lukewarm_tier_is_wallet_only(self):
        with pytest.raises(ValueError):
            VariantProfile("CVM", BootDist(1.0), BootDist(0.0), BootDist(1.0))
        with pytest.raises(ValueError):
            VariantProfile("Wallet", BootDist(1.0), BootDist(0.0))

    def test_default_cvm_cap_is_509(self):
        assert default_profiles()["CVM"].per_node_instance_cap == 509

    def test_point_mass_sampling_consumes_no_rng(self):
        rng = random.Random(1)
        state = rng.getstate()
        assert BootDist(42.0).sample(rng) == 42.0
        assert rng.getstate() == state

    def test_jitter_preserves_mean_roughly(self):
        rng = random.Random(2)
        dist = BootDist(100.0, sigma=0.5)
        mean = sum(dist.sample(rng) for _ in range(4000)) / 4000
        assert mean == pytest.approx(100.0, rel=0.1)


class TestScheduling:
    def test_cached_node_preferred_over_empty(self):
        trace = [ev(0, 1, 1, 0, 10), ev(1, 1, 1, 100, 10)]
        config = SimConfig(nodes=2, slots=1, cache_size=4,
                           profiles={"CVM": cvm_profile(cold=5.0)}, seed=0)
        stats = simulate(trace, config)["CVM"]
        assert stats.outcomes[0].node_id == stats.outcomes[1].node_id
        assert stats.outcomes[1].boot_type is BootType.WARM

    def test_all_nodes_busy_queues_fifo(self):
        trace = [ev(0, 0, 0, 0, 100), ev(1, 0, 1, 0, 100),
                 ev(2, 0, 2, 5, 50)]
        config = SimConfig(nodes=2, slots=1, cache_size=4,
                           profiles={"CVM": cvm_profile(cold=0.0)}, seed=0)
        stats = simulate(trace, config)["CVM"]
        third = stats.outcomes[2]
        assert third.delay_ms == 95.0  # waits until t=100 for a slot
        assert third.start_ms == 100.0

    def test_instance_cap_makes_node_ineligible(self):
        # One node, cap 2: with two resident instances the arrival must
        # queue even though slots are free.
        trace = [ev(0, 0, 0, 0, 50), ev(1, 0, 1, 0, 50), ev(2, 0, 2, 10, 50)]
        config = SimConfig(nodes=1, slots=8, cache_size=8,
                           profiles={"CVM": cvm_profile(cold=0.0, cap=2)},
                           seed=0)
        stats = simulate(trace, config)["CVM"]
        outcomes = {o.invocation_id: o for o in stats.outcomes}
        assert outcomes[0].delay_ms == 0.0
        # Second arrival already exceeds the cap (1 busy + 1 cached).
        assert outcomes[1].delay_ms > 0.0
        assert outcomes[2].delay_ms > 0.0

    def test_node_at_509_residents_is_ineligible_despite_free_slots(self):
        # Each running invocation counts twice toward the CVM key cap: in
        # flight and as the instance it caches.  After 255 dispatches the
        # node holds 255 running + 254 cached = 509 instances, so the
        # 256th arrival queues though 769 of its 1024 slots are free.
        trace = [ev(i, 0, i, 0, 100) for i in range(256)]
        profile = default_profiles()["CVM"]
        assert profile.per_node_instance_cap == 509
        uncapped = dataclasses.replace(profile, per_node_instance_cap=None)
        starts = {}
        for name, p in (("capped", profile), ("uncapped", uncapped)):
            config = SimConfig(nodes=1, slots=1024, cache_size=1024,
                               profiles={"CVM": p}, seed=0)
            starts[name] = simulate(trace, config)["CVM"].start_ms
        assert (starts["capped"] == 0.0).sum() == 255
        assert starts["capped"][255] > 0.0
        assert (starts["uncapped"] == 0.0).all()

    def test_lukewarm_tier_prefers_same_app_node(self):
        # Second arrival lands after the first completed (cold 1000 + 10).
        trace = [ev(0, 7, 1, 0, 10), ev(1, 7, 2, 2000, 10)]
        config = SimConfig(nodes=3, slots=1, cache_size=4,
                           profiles={"Wallet": wallet_profile()}, seed=0)
        stats = simulate(trace, config)["Wallet"]
        assert stats.outcomes[1].node_id == stats.outcomes[0].node_id
        assert stats.outcomes[1].boot_type is BootType.LUKEWARM


class TestAdvance:
    def test_equal_time_completions_by_invocation_id(self):
        trace = [ev(0, 0, 0, 0, 100), ev(1, 0, 1, 0, 100)]
        config = SimConfig(nodes=2, slots=1, cache_size=2,
                           profiles={"CVM": cvm_profile(cold=0.0)}, seed=0)
        run = make_run(trace, config.profiles["CVM"], config)
        while advance(run):
            pass
        finishes = sorted((o.finish_ms, o.invocation_id)
                          for o in run.outcomes)
        assert [f[1] for f in finishes] == [0, 1]

    def test_unsorted_trace_refused(self):
        trace = [ev(1, 0, 1, 0, 100), ev(0, 0, 0, 0, 100)]
        config = SimConfig(nodes=2, slots=1, cache_size=2,
                           profiles={"CVM": cvm_profile(cold=0.0)}, seed=0)
        with pytest.raises(InvariantError):
            make_run(trace, config.profiles["CVM"], config)

    def test_arrival_during_full_occupancy_only_queues(self):
        trace = [ev(0, 0, 0, 0, 100), ev(1, 0, 1, 10, 100)]
        config = SimConfig(nodes=1, slots=1, cache_size=2,
                           profiles={"CVM": cvm_profile(cold=0.0)}, seed=0)
        run = make_run(trace, config.profiles["CVM"], config)
        advance(run)  # arrival 0 dispatches
        advance(run)  # arrival 1 queues
        assert len(run.queue) == 1
        assert len(run.outcomes) == 1

    def test_stepwise_run_equals_simulate_on_queueing_traces(self):
        rng = random.Random(11)
        queued = 0
        for trial in range(6):
            trace = random_trace(rng, 150, apps=3, fns=8, span=20000)
            config = SimConfig(nodes=rng.randint(2, 4),
                               slots=rng.randint(1, 2),
                               cache_size=rng.randint(1, 4), seed=trial,
                               jitter_sigma=rng.choice([0.0, 0.4]))
            whole = simulate(trace, config)
            for name, profile in config.profiles.items():
                if config.jitter_sigma > 0:
                    profile = profile.with_jitter(config.jitter_sigma)
                run = make_run(trace, profile, config)
                steps = 0
                while advance(run):
                    steps += 1
                assert not advance(run)
                # One event per arrival and one per completion.
                assert steps == 2 * len(trace)
                assert not run.queue and not run.completions
                stepped = sorted(run.outcomes,
                                 key=attrgetter("invocation_id"))
                assert stepped == whole[name].outcomes
                assert run.makespan == whole[name].makespan_ms
                arrival = {e.invocation_id: e.arrival_ms for e in trace}
                queued += sum(o.start_ms > arrival[o.invocation_id]
                              for o in stepped)
        assert queued > 0

    def test_final_event_records_makespan(self):
        trace = [ev(0, 0, 0, 0, 100)]
        config = SimConfig(nodes=1, slots=1, cache_size=2,
                           profiles={"CVM": cvm_profile(cold=25.0)}, seed=0)
        stats = simulate(trace, config)["CVM"]
        assert stats.makespan_ms == 125.0


class TestSimulate:
    def test_empty_trace_rejected(self):
        with pytest.raises(EmptyTrace):
            simulate([], SimConfig())

    def test_degenerate_configs_rejected(self):
        trace = [ev(0, 0, 0, 0, 10)]
        with pytest.raises(InvariantError):
            simulate(trace, SimConfig(nodes=0))
        with pytest.raises(InvariantError):
            simulate(trace, SimConfig(slots=0))

    def test_traces_out_of_arrival_id_order_rejected(self):
        config = SimConfig(nodes=1, slots=1, cache_size=2,
                           profiles={"CVM": cvm_profile(cold=0.0)}, seed=0)
        with pytest.raises(InvariantError):
            simulate([ev(0, 0, 0, 10, 5), ev(1, 0, 0, 5, 5)], config)
        # Equal arrivals must come in id order, the order the oracle uses.
        trace = [TraceEvent(1, 0, 1, 0.0, 100.0),
                 TraceEvent(0, 0, 0, 0.0, 100.0)]
        with pytest.raises(InvariantError):
            simulate(trace, config)
        ordered = trace[::-1]
        for stats in (simulate(ordered, config)["CVM"],
                      oracle_simulate(ordered, config)["CVM"]):
            assert {o.invocation_id: o.delay_ms
                    for o in stats.outcomes} == {0: 0.0, 1: 100.0}

    def test_single_invocation_delay_is_one_cold_boot(self):
        trace = [ev(0, 0, 0, 0, 10)]
        config = SimConfig(nodes=4, slots=4, cache_size=4,
                           profiles={"CVM": cvm_profile(cold=777.0)}, seed=0)
        stats = simulate(trace, config)["CVM"]
        assert stats.outcomes[0].delay_ms == 777.0
        assert stats.boot_counts()["cold"] == 1

    def test_back_to_back_closed_form(self):
        # nodes=1, slots=1: the second arrival waits for the first's
        # remaining service of (boot + duration - gap).
        boot, dur, gap = 40.0, 100.0, 30.0
        trace = [ev(0, 0, 0, 0, dur), ev(1, 0, 0, gap, dur)]
        config = SimConfig(nodes=1, slots=1, cache_size=4,
                           profiles={"CVM": cvm_profile(cold=boot, warm=0.0)},
                           seed=0)
        stats = simulate(trace, config)["CVM"]
        second = stats.outcomes[1]
        assert second.delay_ms == (boot + dur - gap) + 0.0  # wait + warm boot
        assert second.boot_type is BootType.WARM

    def test_determinism(self):
        rng = random.Random(5)
        trace = random_trace(rng, 150)
        config = SimConfig(nodes=4, slots=2, cache_size=4, seed=9)
        a = {k: v.outcomes for k, v in simulate(trace, config).items()}
        b = {k: v.outcomes for k, v in simulate(trace, config).items()}
        assert a == b

    def test_conservation_every_invocation_once(self):
        rng = random.Random(6)
        trace = random_trace(rng, 200)
        stats = simulate(trace, SimConfig(nodes=3, slots=2, cache_size=3,
                                          seed=1))["Wallet"]
        assert sorted(o.invocation_id for o in stats.outcomes) == \
            sorted(e.invocation_id for e in trace)

    def test_capacity_never_exceeded(self):
        rng = random.Random(7)
        trace = random_trace(rng, 300, span=1500)
        config = SimConfig(nodes=3, slots=2, cache_size=3, seed=1)
        for profile in config.profiles.values():
            run = make_run(trace, profile, config)
            while advance(run):
                assert all(0 <= busy <= config.slots for busy in run.busy)
            assert len(run.stats().invocation_id) == len(trace)

    def test_warm_rate_ordering_wallet_vs_cvm(self):
        rng = random.Random(8)
        profiles = {
            "Wallet": wallet_profile(cold=2380.0, lukewarm=10.3, warm=0.5),
            "CVM": cvm_profile(cold=8300.0, warm=10.0),
        }
        for trial in range(5):
            trace = random_trace(rng, 250, apps=3, fns=12, span=20000)
            results = simulate(trace, SimConfig(
                nodes=4, slots=4, cache_size=4, profiles=profiles, seed=0))
            assert results["Wallet"].boot_counts()["cold"] <= \
                results["CVM"].boot_counts()["cold"]

    def test_monotone_dominance_under_smaller_boots(self):
        rng = random.Random(9)
        for trial in range(5):
            trace = random_trace(rng, 200, apps=4, fns=10, span=8000)
            slow = {"Wallet": wallet_profile(cold=3000.0, lukewarm=40.0,
                                             warm=8.0)}
            fast = {"Wallet": slow["Wallet"].scaled(0.5)}
            base = simulate(trace, SimConfig(nodes=3, slots=2, cache_size=4,
                                             profiles=slow, seed=0))["Wallet"]
            better = simulate(trace, SimConfig(nodes=3, slots=2, cache_size=4,
                                               profiles=fast, seed=0))["Wallet"]
            for a, b in zip(base.outcomes, better.outcomes):
                assert b.delay_ms <= a.delay_ms + 1e-9

    def test_slowdown_is_one_for_instant_warm_start(self):
        trace = [ev(0, 0, 0, 0, 50), ev(1, 0, 0, 200, 50)]
        config = SimConfig(nodes=1, slots=1, cache_size=2,
                           profiles={"CVM": cvm_profile(cold=0.0, warm=0.0)},
                           seed=0)
        stats = simulate(trace, config)["CVM"]
        assert stats.outcomes[1].slowdown == 1.0


def outputs_sha256(results) -> str:
    """SHA-256 over every variant's row and every outcome's fields."""
    h = hashlib.sha256()
    for name in sorted(results):
        stats = results[name]
        h.update(json.dumps(stats.to_row(), sort_keys=True).encode())
        for o in stats.outcomes:
            h.update(repr((o.invocation_id, o.node_id, o.boot_type.value,
                           o.delay_ms, o.slowdown, o.start_ms,
                           o.finish_ms)).encode())
    return h.hexdigest()


class TestColumns:
    """The simulator's data path builds no row objects; rows are views."""

    @pytest.fixture
    def trace(self):
        return generate_trace(GeneratorSpec(
            n_functions=60, n_apps=6, duration_minutes=0.2,
            arrival_rate_per_s=60.0, seed=3))

    CONFIG = dict(nodes=4, slots=2, cache_size=3, seed=3,
                  profiles={name: default_profiles()[name]
                            for name in ("Wallet", "VM", "CVM")})

    def test_data_path_builds_no_row_objects(self, trace, tmp_path,
                                             monkeypatch):
        path = tmp_path / "t.csv"
        write_trace(trace, path)

        def refuse(*args, **kwargs):
            raise AssertionError("row object built on the data path")

        monkeypatch.setattr(TraceEvent, "__init__", refuse)
        monkeypatch.setattr(InvocationOutcome, "__init__", refuse)
        generated = generate_trace(GeneratorSpec(
            n_functions=60, n_apps=6, duration_minutes=0.2,
            arrival_rate_per_s=60.0, seed=3))
        loaded = load_trace(path)
        assert loaded == generated
        for jitter in (0.0, 0.3):
            config = SimConfig(**self.CONFIG, jitter_sigma=jitter)
            for stats in simulate(loaded, config).values():
                assert stats.to_row()["cold"] > 0
        # A row view and its length build no row; reading a row does.
        outcomes = stats.outcomes
        assert len(outcomes) == len(loaded)
        with pytest.raises(AssertionError, match="row object"):
            loaded[0]
        with pytest.raises(AssertionError, match="row object"):
            next(iter(loaded))
        with pytest.raises(AssertionError, match="row object"):
            outcomes[0]
        with pytest.raises(AssertionError, match="row object"):
            next(iter(outcomes))

    def test_event_list_equals_trace(self, trace):
        config = SimConfig(**self.CONFIG)
        assert outputs_sha256(simulate(list(trace), config)) == \
            outputs_sha256(simulate(trace, config))

    def test_outcomes_is_a_fresh_read_only_view_per_access(self, trace):
        stats = simulate(trace, SimConfig(**self.CONFIG))["Wallet"]
        first = stats.outcomes
        assert first is not stats.outcomes
        assert first == stats.outcomes
        rows = list(first)
        assert len(rows) == len(trace)
        assert rows == first and first == rows
        assert first != rows[:-1]
        for mutator in ("append", "clear", "extend", "insert", "pop",
                        "remove", "sort", "__setitem__", "__delitem__"):
            assert not hasattr(first, mutator), mutator

    def test_row_views_read_across_chunks(self, trace, monkeypatch):
        monkeypatch.setattr(traceio, "ROW_CHUNK", 5)
        stats = simulate(trace, SimConfig(**self.CONFIG))["Wallet"]
        view = stats.outcomes
        rows = list(view)
        n = len(trace)
        assert n > 20
        assert rows == [view[i] for i in range(n)]
        assert view[-1] == rows[-1] and view[np.int64(3)] == rows[3]
        for cut in (slice(3, 17), slice(None, None, -4), slice(n - 2, n + 9),
                    slice(7, 2)):
            assert view[cut] == rows[cut]
        assert stats.invocation_id.tolist() == \
            [o.invocation_id for o in rows]
        assert list(trace) == [trace[i] for i in range(n)]
        with pytest.raises(IndexError):
            view[n]

    def test_columns_match_row_views(self, trace):
        stats = simulate(trace, SimConfig(**self.CONFIG))["CVM"]
        rows = stats.outcomes
        assert stats.invocation_id.tolist() == \
            [o.invocation_id for o in rows] == list(range(len(trace)))
        assert [BOOT_TIERS[c] for c in stats.boot_code] == \
            [o.boot_type for o in rows]
        assert stats.finish_ms.tolist() == [o.finish_ms for o in rows]
        assert stats.boot_counts() == {
            tier.value: sum(o.boot_type is tier for o in rows)
            for tier in BootType}

    def test_boot_column_kept_only_when_jittered(self):
        # An un-jittered SimStats reads each boot from the tier means
        # through its boot code.  A 3-invocation run has as many
        # positions as tiers, so the representation is never inferred
        # from a length.  The oracle quantizes a jittered boot's finish
        # to the millisecond, so jittered boots are checked on a trace
        # that never queues.
        rng = random.Random(37)
        spaced = [ev(i, i % 2, i % 3, 5000 * i, rng.randint(1, 400))
                  for i in range(3)]
        queued = random_trace(rng, 150, apps=3, fns=8, span=3000)
        profiles = {"Wallet": wallet_profile(), "CVM": cvm_profile(cap=3)}
        fields = attrgetter("invocation_id", "node_id", "boot_type",
                            "delay_ms", "slowdown", "start_ms")
        for trace, jitter in ((spaced, 0.0), (spaced, 0.3), (queued, 0.0)):
            config = SimConfig(nodes=2, slots=2, cache_size=2,
                               profiles=profiles, seed=0,
                               jitter_sigma=jitter)
            engine = simulate(trace, config)
            oracle = oracle_simulate(trace, config)
            for name, stats in engine.items():
                assert stats._boot_per_position is (jitter > 0)
                assert len(stats._boot) == \
                    (len(trace) if jitter else len(BOOT_TIERS))
                rows, expected = list(stats.outcomes), oracle[name].outcomes
                assert [fields(o) for o in rows] == \
                    [fields(o) for o in expected]
                assert [round(o.finish_ms) for o in rows] == \
                    [o.finish_ms for o in expected]
                if not jitter:
                    assert rows == expected
            cvm = profiles["CVM"]
            run = make_run(trace, cvm.with_jitter(jitter) if jitter else cvm,
                           config)
            assert (run.out_boot is None) is (jitter == 0)

    def test_columns_are_read_only(self, trace):
        stats = simulate(trace, SimConfig(**self.CONFIG))["VM"]
        for name in ("invocation_id", "node_id", "boot_code", "start_ms"):
            with pytest.raises(ValueError):
                getattr(stats, name)[0] = 1
            with pytest.raises(AttributeError):
                setattr(stats, name, None)
        assert trace.invocation_id.flags.writeable

    def test_start_and_node_columns_take_the_narrowest_layout(self):
        # Where no dispatched invocation waited, the start column is a
        # read-only view of the trace's own arrivals; where one waited, it
        # is the loop's column.  Node ids take the narrowest signed type.
        # Ids follow positions, so each column read is a view.
        rng = random.Random(43)
        trace = as_trace([dataclasses.replace(e, invocation_id=i)
                          for i, e in enumerate(random_trace(
                              rng, 150, apps=3, fns=8, span=3000))])
        profiles = {"Wallet": wallet_profile(), "CVM": cvm_profile(cap=3)}
        for nodes, node_type, waits in ((2, np.int8, True),
                                        (127, np.int8, False),
                                        (200, np.int16, False)):
            config = SimConfig(nodes=nodes, slots=2, cache_size=2,
                               profiles=profiles, seed=0)
            oracle = oracle_simulate(list(trace), config)
            for name, stats in simulate(trace, config).items():
                assert (stats.start_ms > trace.arrival_ms).any() == waits
                assert np.shares_memory(stats.start_ms,
                                        trace.arrival_ms) is not waits
                assert stats.node_id.dtype == node_type
                assert list(stats.outcomes) == oracle[name].outcomes
                for column in ("invocation_id", "node_id", "boot_code",
                               "start_ms"):
                    with pytest.raises(ValueError):
                        getattr(stats, column)[0] = 1
                assert all(c.flags.writeable for c in trace.columns())
        # A snapshot taken before anything waited reads the arrivals, and
        # stays a snapshot once later dispatches wait.
        config = SimConfig(nodes=2, slots=2, cache_size=2,
                           profiles=profiles, seed=0)
        run = make_run(trace, profiles["CVM"], config)
        advance(run)
        snapshot = run.stats()
        rows = list(snapshot.outcomes)
        assert len(rows) == 1
        assert np.shares_memory(snapshot._start, trace.arrival_ms)
        while advance(run):
            pass
        assert list(snapshot.outcomes) == rows
        assert not np.shares_memory(run.stats()._start, trace.arrival_ms)
        assert run.stats().outcomes == simulate(trace, config)["CVM"].outcomes

    def test_ids_out_of_position_order_read_by_id(self, tmp_path):
        # load_trace sorts by arrival, so shuffled ids leave the trace's
        # positions out of id order and the rows need a permutation.
        rng = random.Random(5)
        ids = list(range(300))
        rng.shuffle(ids)
        events = [ev(i, rng.randrange(3), rng.randrange(8),
                     rng.randint(0, 4000), rng.randint(1, 300))
                  for i in ids]
        path = tmp_path / "shuffled.csv"
        write_trace(sorted(events,
                           key=lambda e: (e.arrival_ms, e.invocation_id)),
                    path)
        trace = load_trace(path)
        assert (np.diff(trace.invocation_id) < 0).any()
        profiles = {"Wallet": wallet_profile(), "CVM": cvm_profile(cap=3)}
        config = SimConfig(nodes=3, slots=2, cache_size=2,
                           profiles=profiles, seed=0)
        engine = simulate(trace, config)
        oracle = oracle_simulate(list(trace), config)
        fields = attrgetter("invocation_id", "node_id", "boot_type",
                            "delay_ms")
        for name, stats in engine.items():
            rows = list(stats.outcomes)
            assert [fields(o) for o in rows] == \
                [fields(o) for o in oracle[name].outcomes]
            assert stats.invocation_id.tolist() == list(range(300))
            for column in ("node_id", "delay_ms", "slowdown", "start_ms",
                           "finish_ms"):
                assert getattr(stats, column).tolist() == \
                    [getattr(o, column) for o in rows], column
            delays = sorted(o.delay_ms for o in rows)
            slowdowns = sorted(o.slowdown for o in rows)
            row = stats.to_row()
            assert row["p99_delay_ms"] == nearest_rank(delays, 0.99)
            assert row["p50_slowdown"] == nearest_rank(slowdowns, 0.5)
            assert stats.boot_counts() == {
                tier.value: sum(o.boot_type is tier for o in rows)
                for tier in BootType}

    def test_mid_run_stats_stay_a_snapshot(self, trace):
        config = SimConfig(**self.CONFIG)
        profile = config.profiles["CVM"]
        run = make_run(trace, profile, config)
        for _ in range(len(trace)):
            advance(run)
        snapshot = run.stats()
        rows, row = list(snapshot.outcomes), snapshot.to_row()
        assert 0 < len(rows) < len(trace)
        while advance(run):
            pass
        assert len(snapshot) == len(rows)
        assert list(snapshot.outcomes) == rows
        assert snapshot.to_row() == row
        assert sum(snapshot.boot_counts().values()) == len(rows)
        whole = simulate(trace, dataclasses.replace(
            config, profiles={"CVM": profile}))["CVM"]
        assert run.stats().outcomes == whole.outcomes

    def test_non_finite_event_times_refused(self):
        config = SimConfig(nodes=1, slots=1, cache_size=2,
                           profiles={"CVM": cvm_profile(cold=0.0)}, seed=0)
        for bad in (ev(1, 0, 0, math.nan, 1), ev(1, 0, 0, 1, math.inf)):
            with pytest.raises(InvariantError):
                simulate([ev(0, 0, 0, 0, 1), bad], config)


def paper_shaped_trace(minutes: float):
    return generate_trace(GeneratorSpec(
        n_functions=4000, n_apps=200, duration_minutes=minutes,
        arrival_rate_per_s=600.0, seed=7))


def per_invocation_slope(measure, traces) -> float:
    """The bytes per invocation that ``measure(trace)`` adds between two
    trace lengths, so that fixed state cancels: the key masks, caches
    and heap, and whatever ran earlier in the process.  The longer trace
    is measured first, after an untraced warm-up, so that a first-call
    cost can only raise the slope."""
    short, long = sorted(traces, key=len)
    simulate(short, SimConfig(profiles={"VM": default_profiles()["VM"]}))
    grown = measure(long) - measure(short)
    return grown / (len(long) - len(short))


def traced(call, figure: int) -> int:
    """tracemalloc's current (0) or peak (1) bytes over ``call()``, read
    while its result is held.  A full collection empties the interpreter's
    free lists, before the call so that every call starts alike and after
    it so that freed objects do not count as current."""
    gc.collect()
    tracemalloc.start()
    try:
        held = call()  # noqa: F841 -- held while the figure is read
        gc.collect()
        return tracemalloc.get_traced_memory()[figure]
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    """The simulator reads the trace in place and keeps typed columns: an
    un-jittered run's results hold 2 bytes per invocation where nothing
    waited and 10 where something did; row views stream.  Memory bounds
    are per-invocation slopes between two trace lengths."""

    @pytest.fixture(scope="class")
    def traces(self):
        return [paper_shaped_trace(0.125), paper_shaped_trace(0.25)]

    CLUSTER = dict(nodes=100, slots=32, cache_size=32, seed=7)

    def test_simulate_and_row_view_peaks(self, traces):
        config = SimConfig(**self.CLUSTER,
                           profiles={"Wallet": default_profiles()["Wallet"]})
        slope = per_invocation_slope(
            lambda trace: traced(lambda: simulate(trace, config), 1), traces)
        stats = simulate(traces[1], config)["Wallet"]
        tracemalloc.start()
        try:
            outcomes = stats.outcomes
            delays = np.fromiter((o.delay_ms for o in outcomes), np.float64,
                                 count=len(outcomes))
            view_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(delays, stats.delay_ms)
        # One variant's simulate grows by about 19 B per invocation over
        # these lengths; it grew by 48 B while the loop indexed array
        # copies of the trace and the results kept a start column.
        assert slope < 26, f"{slope:.1f} B/inv"
        assert view_peak < 2_000_000, f"{view_peak / 1e6:.2f} MB"

    def test_loop_columns_peak(self):
        # The loop reads the trace in place and keeps only the dense key
        # codes, 4 B per invocation; coding the (app, function) pairs
        # peaks at about 21 B.  It peaked at 33 B with int64 codes, and
        # at 67 B as three np.unique(return_inverse=True) calls.
        trace = paper_shaped_trace(0.5)
        _LoopColumns.of(trace)  # any first-call imports, untraced
        tracemalloc.start()
        try:
            columns = _LoopColumns.of(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(trace) < 26, f"{peak / len(trace):.0f} B/inv"
        apps, app_code = np.unique(trace.app_id, return_inverse=True)
        fns, fn_code = np.unique(trace.function_id, return_inverse=True)
        pairs, key = np.unique(app_code * len(fns) + fn_code,
                               return_inverse=True)
        assert columns.key.tolist() == key.tolist()
        assert columns.key_app.tolist() == (pairs // len(fns)).tolist()
        assert columns.n_apps == len(apps)

    def test_loop_columns_code_pairs_past_int32(self):
        # 50 001 apps by 50 001 functions: pair codes app * 50 001 + fn
        # pass 2**31, so they are formed in int64; the codes stay int32.
        n = 50_001
        ids = np.arange(n)
        trace = Trace(ids, ids, ids[::-1].copy(), ids * 1.0, np.ones(n))
        columns = _LoopColumns.of(trace)
        assert columns.key.format == columns.key_app.format == "i"
        assert columns.key.tolist() == ids.tolist()
        assert columns.key_app.tolist() == ids.tolist()
        assert columns.n_apps == n

    def test_three_variants_stats_retained(self, traces):
        # Wallet and VM never queue here and keep node and boot code, 2 B
        # per invocation each; CVM queues and keeps its start too, 10 B.
        # Each kept 13 B with a 4-byte node and a start column (three: a
        # slope of 39 B), and 25 B with a boot column and an 8-byte node.
        profiles = default_profiles()

        def three_variants(trace):
            return [simulate(trace, SimConfig(
                **self.CLUSTER, profiles={name: profiles[name]}))[name]
                for name in ("Wallet", "VM", "CVM")]

        slope = per_invocation_slope(
            lambda trace: traced(lambda: three_variants(trace), 0), traces)
        assert slope < 16, f"{slope:.1f} B/inv"


class TestPinnedOutputs:
    """Outputs of about 20 k generated invocations, pinned bit for bit."""

    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(GeneratorSpec(
            n_functions=400, n_apps=40, duration_minutes=1.0,
            arrival_rate_per_s=330.0, seed=11))

    def three_variants(self):
        profiles = default_profiles()
        return {name: profiles[name] for name in ("Wallet", "VM", "CVM")}

    def test_default_variants(self, trace):
        config = SimConfig(nodes=20, slots=8, cache_size=8,
                           profiles=self.three_variants(), seed=11)
        assert outputs_sha256(simulate(trace, config)) == (
            "96719b4c635f356a341081adf4181952860b1dad001f7d378038e5fc540ce7b0")

    def test_jittered_boots(self, trace):
        config = SimConfig(nodes=20, slots=8, cache_size=8,
                           profiles=self.three_variants(), seed=12,
                           jitter_sigma=0.5)
        assert outputs_sha256(simulate(trace, config)) == (
            "8a577b001a9bbb94eb665843fdb265cf5a551eb5002467c93d1e9c479ae4add5")

    def test_binding_cap_on_more_nodes_than_a_word(self, trace):
        profiles = self.three_variants()
        profiles = {"Wallet": profiles["Wallet"],
                    "CVM": dataclasses.replace(profiles["CVM"],
                                               per_node_instance_cap=6)}
        config = SimConfig(nodes=80, slots=4, cache_size=8,
                           profiles=profiles, seed=13)
        results = simulate(trace, config)
        for stats in results.values():
            assert max(o.node_id for o in stats.outcomes) >= 64
        assert outputs_sha256(results) == (
            "acf1a6dbe3657175350bc87057a912774c309805ff3db1a200a9b59ca3e5cbfd")


class TestNearestRank:
    def test_examples(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert nearest_rank(values, 0.50) == 2.0   # ceil(0.5*4) = 2nd
        assert nearest_rank(values, 0.99) == 4.0
        assert nearest_rank(values, 0.01) == 1.0
        assert nearest_rank([], 0.5) == 0.0

    def test_arrays(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        assert nearest_rank(values, 0.50) == 2.0
        assert nearest_rank(values, 0.99) == 4.0
        assert nearest_rank(values, 0.01) == 1.0
        assert type(nearest_rank(values, 0.5)) is float
        assert nearest_rank(np.array([7.5]), 0.99) == 7.5
        assert nearest_rank(np.array([]), 0.5) == 0.0


class TestOracle:
    def test_agreement_on_random_traces(self):
        rng = random.Random(10)
        for trial in range(10):
            trace = random_trace(rng, rng.randint(1, 120), apps=3, fns=8,
                                 span=2500, max_dur=300)
            profiles = {
                "Wallet": wallet_profile(cold=float(rng.randint(10, 800)),
                                         lukewarm=float(rng.randint(1, 30)),
                                         warm=float(rng.randint(0, 5))),
                "CVM": cvm_profile(cold=float(rng.randint(10, 1500)),
                                   warm=float(rng.randint(0, 10)),
                                   cap=rng.choice([None, 5])),
            }
            config = SimConfig(nodes=rng.randint(1, 4),
                               slots=rng.randint(1, 3),
                               cache_size=rng.randint(1, 4),
                               profiles=profiles, seed=0)
            engine = simulate(trace, config)
            oracle = oracle_simulate(trace, config)
            for name in profiles:
                for a, b in zip(engine[name].outcomes, oracle[name].outcomes):
                    assert a.invocation_id == b.invocation_id
                    assert abs(a.delay_ms - b.delay_ms) <= 1.0
                    assert a.boot_type == b.boot_type

    def test_agreement_on_wide_clusters(self):
        # More concurrent invocations than 64 one-slot nodes, so node
        # choices land above the first machine word of the node masks.
        rng = random.Random(12)
        for trial in range(3):
            nodes = rng.randint(65, 130)
            trace = random_trace(rng, nodes + 60, apps=6, fns=20, span=200,
                                 max_dur=300)
            profiles = {
                "Wallet": wallet_profile(cold=float(rng.randint(10, 800)),
                                         lukewarm=float(rng.randint(1, 30)),
                                         warm=float(rng.randint(0, 5))),
                "CVM": cvm_profile(cold=float(rng.randint(10, 1500)),
                                   warm=float(rng.randint(0, 10)),
                                   cap=rng.choice([None, 2])),
            }
            config = SimConfig(nodes=nodes, slots=1,
                               cache_size=rng.randint(1, 3),
                               profiles=profiles, seed=0)
            engine = simulate(trace, config)
            oracle = oracle_simulate(trace, config)
            for name in profiles:
                fields = attrgetter("invocation_id", "node_id", "boot_type",
                                    "delay_ms")
                assert [fields(o) for o in engine[name].outcomes] == \
                    [fields(o) for o in oracle[name].outcomes]
                assert max(o.node_id for o in engine[name].outcomes) >= 64

    def test_unqueued_trace_delays_equal_boot_samples(self):
        trace = [ev(i, 0, i, i * 1000, 10) for i in range(5)]
        config = SimConfig(nodes=8, slots=4, cache_size=8,
                           profiles={"CVM": cvm_profile(cold=33.0)}, seed=0)
        oracle = oracle_simulate(trace, config)["CVM"]
        assert all(o.delay_ms == 33.0 for o in oracle.outcomes)

    def test_oracle_rejects_oversized_traces(self):
        trace = [ev(i, 0, 0, i, 1) for i in range(1001)]
        with pytest.raises(ValueError):
            oracle_simulate(trace, SimConfig())
