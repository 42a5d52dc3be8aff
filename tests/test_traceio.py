"""Trace ingestion, synthetic generation, and stats output tests."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walletemu.errors import InvariantError, ParseError
from walletemu import traceio
from walletemu.traceio import (
    TRACE_HEADER,
    GeneratorSpec,
    Trace,
    TraceEvent,
    as_trace,
    generate_trace,
    load_trace,
    write_stats,
    write_trace,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadTrace:
    def test_well_formed_rows_sorted(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, [
            "invocation_id,app_id,function_id,arrival_ms,duration_ms",
            "2,0,5,30.0,10.0",
            "0,1,4,10.0,20.0",
            "1,0,5,20.0,5.0",
        ])
        events = load_trace(path)
        assert [e.invocation_id for e in events] == [0, 1, 2]
        assert events[0].duration_ms == 20.0

    def test_duplicate_invocation_id_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, [
            "invocation_id,app_id,function_id,arrival_ms,duration_ms",
            "0,0,0,1.0,1.0",
            "0,0,1,2.0,1.0",
        ])
        with pytest.raises(ParseError, match="duplicate"):
            load_trace(path)

    def test_duplicate_before_a_malformed_line_is_reported(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, [
            "invocation_id,app_id,function_id,arrival_ms,duration_ms",
            "4,0,0,1.0,1.0",
            "",
            "4,0,1,2.0,1.0",
            "x,y,z,a,b",
            "5,0,0,-1.0,1.0",
        ])
        with pytest.raises(ParseError,
                           match=r":4: duplicate invocation_id 4$"):
            load_trace(path)

    def test_malformed_line_before_a_duplicate_is_reported(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, [
            "invocation_id,app_id,function_id,arrival_ms,duration_ms",
            "4,0,0,1.0,1.0",
            "x,y,z,a,b",
            "4,0,1,2.0,1.0",
        ])
        with pytest.raises(ParseError, match=r":3: invalid literal"):
            load_trace(path)

    def test_duplicate_id_fails_before_its_times_are_checked(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, [
            "invocation_id,app_id,function_id,arrival_ms,duration_ms",
            "7,0,0,1.0,1.0",
            "8,0,0,1.0,1.0",
            "7,0,1,-2.0,1.0",
        ])
        with pytest.raises(ParseError, match=r":4: duplicate"):
            load_trace(path)

    def test_peak_memory_per_invocation(self, tmp_path):
        # A per-id set for the duplicate check made the peak about 150 B
        # per invocation; the returned trace keeps 40.
        trace = generate_trace(GeneratorSpec(
            n_functions=4000, n_apps=200, duration_minutes=0.5,
            arrival_rate_per_s=600.0, seed=7))
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        tracemalloc.start()
        try:
            loaded = load_trace(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == trace
        assert peak / len(trace) < 80, f"{peak / len(trace):.0f} B/inv"

    def test_unsorted_input_is_stably_sorted(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, [
            "invocation_id,app_id,function_id,arrival_ms,duration_ms",
            "5,0,0,100.0,1.0",
            "3,0,0,100.0,1.0",
            "1,0,0,50.0,1.0",
        ])
        events = load_trace(path)
        assert [(e.arrival_ms, e.invocation_id) for e in events] == \
            [(50.0, 1), (100.0, 3), (100.0, 5)]

    def test_negative_duration_is_invariant_error(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, [
            "invocation_id,app_id,function_id,arrival_ms,duration_ms",
            "0,0,0,1.0,-5.0",
        ])
        with pytest.raises(InvariantError):
            load_trace(path)

    def test_bad_header_rejected_with_line(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["nope,header", "0,0,0,1,1"])
        with pytest.raises(ParseError, match=":1"):
            load_trace(path)

    def test_garbage_row_reports_line_number(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, [
            "invocation_id,app_id,function_id,arrival_ms,duration_ms",
            "0,0,0,1.0,1.0",
            "x,y,z,a,b",
        ])
        with pytest.raises(ParseError, match=":3"):
            load_trace(path)


    def test_non_finite_times_rejected_with_line(self, tmp_path):
        # Loaded, these rows made simulate drop two of the three
        # invocations from the boot counts and report NaN percentiles.
        path = tmp_path / "t.csv"
        write_lines(path, [
            "invocation_id,app_id,function_id,arrival_ms,duration_ms",
            "0,0,0,nan,1.0",
            "1,0,0,2.0,nan",
            "2,0,0,inf,1.0",
        ])
        with pytest.raises(ParseError, match=r":2: non-finite"):
            load_trace(path)

    @pytest.mark.parametrize("field", ["arrival", "duration"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN",
                                       "Infinity"])
    def test_each_non_finite_time_names_its_line(self, tmp_path, field,
                                                 value):
        arrival, duration = ((value, "1.0") if field == "arrival"
                             else ("1.0", value))
        path = tmp_path / "t.csv"
        write_lines(path, [
            "invocation_id,app_id,function_id,arrival_ms,duration_ms",
            "0,0,0,1.0,1.0",
            f"1,0,0,{arrival},{duration}",
        ])
        with pytest.raises(ParseError, match=":3"):
            load_trace(path)

    def test_id_outside_64_bits_rejected_with_line(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, [
            "invocation_id,app_id,function_id,arrival_ms,duration_ms",
            f"{2 ** 63},0,0,1.0,1.0",
        ])
        with pytest.raises(ParseError, match=":2"):
            load_trace(path)

    def test_negative_arrival_names_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, [
            "invocation_id,app_id,function_id,arrival_ms,duration_ms",
            "0,0,0,1.0,1.0",
            "1,0,0,-1.0,1.0",
        ])
        with pytest.raises(InvariantError, match=":3"):
            load_trace(path)


class TestGenerateTrace:
    def test_deterministic_under_seed(self):
        spec = GeneratorSpec(n_functions=20, n_apps=4, duration_minutes=0.2,
                             arrival_rate_per_s=50, seed=1)
        assert generate_trace(spec) == generate_trace(spec)

    def test_single_function_spec(self):
        spec = GeneratorSpec(n_functions=1, n_apps=1, duration_minutes=0.1,
                             arrival_rate_per_s=30, seed=2)
        trace = generate_trace(spec)
        assert trace
        assert all(e.function_id == 0 and e.app_id == 0 for e in trace)

    def test_poisson_count_within_one_percent_at_full_scale(self):
        # Full-scale check: 30 minutes at ~2278/s is ~4.1 M invocations.
        spec = GeneratorSpec(n_functions=4000, n_apps=200,
                             duration_minutes=30, arrival_rate_per_s=2278,
                             seed=3)
        trace = generate_trace(spec)
        expected = 2278 * 30 * 60
        assert abs(len(trace) - expected) / expected < 0.01
        assert len(trace) > 4_000_000

    def test_durations_clipped_to_one_ms(self):
        spec = GeneratorSpec(n_functions=5, n_apps=2, duration_minutes=0.2,
                             arrival_rate_per_s=100,
                             duration_lognormal_mu=math.log(1.0),
                             duration_lognormal_sigma=3.0, seed=4)
        trace = generate_trace(spec)
        assert min(e.duration_ms for e in trace) >= 1.0

    def test_invalid_spec_rejected(self):
        with pytest.raises(InvariantError):
            GeneratorSpec(n_functions=0).validate()
        with pytest.raises(InvariantError):
            GeneratorSpec(duration_lognormal_sigma=-1).validate()

    def test_unknown_spec_keys_are_parse_errors(self):
        with pytest.raises(ParseError):
            GeneratorSpec.from_json('{"no_such_knob": 1}')
        with pytest.raises(ParseError):
            GeneratorSpec.from_json("not json at all")

    @pytest.mark.parametrize("field,value", [
        ("duration_minutes", math.nan),
        ("arrival_rate_per_s", math.inf),
        ("popularity_zipf_s", math.nan),
        ("duration_lognormal_mu", math.inf),
        ("duration_lognormal_sigma", math.nan),
    ])
    def test_non_finite_spec_rejected(self, field, value):
        params = {"n_functions": 5, "n_apps": 2, "duration_minutes": 0.1,
                  field: value}
        spec = GeneratorSpec(**params)
        with pytest.raises(InvariantError, match="finite"):
            spec.validate()
        with pytest.raises(InvariantError):
            generate_trace(spec)

    @pytest.mark.parametrize("text", [
        '{"duration_minutes": NaN}',
        '{"arrival_rate_per_s": Infinity}',
        '{"popularity_zipf_s": NaN}',
        '{"n_functions": 0}',
        '{"n_functions": 2.5}',
        '{"seed": -1}',
        '{"n_apps": 0.5}',
        '{"n_functions": true}',
    ])
    def test_invalid_spec_json_is_parse_error(self, text):
        with pytest.raises(ParseError):
            GeneratorSpec.from_json(text)

    @pytest.mark.parametrize("n_functions,s", [
        (50, -200.0),     # weights overflow to inf
        (1000, -102.6),   # every weight finite, their sum not
    ])
    def test_overflowing_zipf_weights_refused_before_any_draw(
            self, monkeypatch, n_functions, s):
        def no_draw(*args):
            raise AssertionError("drew from an invalid spec")

        monkeypatch.setattr(traceio, "_draw_ranks", no_draw)
        spec = GeneratorSpec(n_functions=n_functions, n_apps=5,
                             duration_minutes=0.1, popularity_zipf_s=s)
        with pytest.raises(InvariantError, match="Zipf weights"):
            spec.validate()
        with pytest.raises(InvariantError, match="Zipf weights"):
            generate_trace(spec)
        with pytest.raises(ParseError, match="Zipf weights"):
            GeneratorSpec.from_json(json.dumps(
                {"n_functions": n_functions, "popularity_zipf_s": s}))

    def test_missing_trace_file_is_parse_error(self):
        with pytest.raises(ParseError):
            load_trace("/definitely/not/there.csv")


def zipf_probs(n_functions, s):
    probs = np.arange(1, n_functions + 1, dtype=np.float64) ** -s
    return probs / probs.sum()


def generate_trace_by_choice(spec):
    """``generate_trace`` as written with ``Generator.choice``: the
    reference the inverse-CDF draw must reproduce."""
    rng = np.random.default_rng(spec.seed)
    horizon_ms = spec.duration_minutes * 60_000.0
    rate_per_ms = spec.arrival_rate_per_s / 1000.0
    expected = int(horizon_ms * rate_per_ms)
    arrivals = []
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
    arrival_ms = np.concatenate(arrivals)
    probs = zipf_probs(spec.n_functions, spec.popularity_zipf_s)
    functions = rng.choice(spec.n_functions, size=count, p=probs)
    durations = rng.lognormal(spec.duration_lognormal_mu,
                              spec.duration_lognormal_sigma, size=count)
    durations = np.maximum(durations, 1.0)
    return Trace(np.arange(count), functions % spec.n_apps, functions,
                 arrival_ms, durations)


def paper_spec(seed):
    """The scale-out shape: 4000 functions, 200 apps, 5 min at 600/s."""
    return GeneratorSpec(n_functions=4000, n_apps=200, duration_minutes=5.0,
                         arrival_rate_per_s=600.0, popularity_zipf_s=1.1,
                         seed=seed)


class TestFunctionDraw:
    @pytest.mark.parametrize("n_functions,s", [
        (4000, 1.1), (4000, 0.0), (50_000, 0.0), (50_000, 1.1), (200, 1.1),
        (1, 1.1)])
    @pytest.mark.parametrize("size", [0, 1, 180_000])
    def test_draw_equals_generator_choice(self, n_functions, s, size):
        probs = zipf_probs(n_functions, s)
        for seed in (0, 1, 7):
            ref_rng = np.random.default_rng(seed)
            rng = np.random.default_rng(seed)
            expected = ref_rng.choice(n_functions, size=size, p=probs)
            drawn = traceio._draw_ranks(rng, probs, size)
            assert drawn.dtype == np.int64
            assert np.array_equal(drawn, expected)
            assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("n_functions,s", [(4000, 1.1), (50_000, 0.0),
                                               (1, 1.1)])
    def test_boundary_uniforms_find_the_first_entry_above(self, n_functions,
                                                           s):
        # Uniforms at the bucket edges j / k around each CDF step, at each
        # CDF entry and one ulp to either side, and at both ends of [0, 1).
        probs = zipf_probs(n_functions, s)
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        k = 1 << 16
        edges = np.floor(cdf * k)
        u = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)],
            (edges - 1) / k, edges / k, (edges + 1) / k,
            cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)])
        u = np.unique(u[(u >= 0.0) & (u < 1.0)])

        class Uniforms:
            def random(self, count):
                assert count == len(u)
                return u.copy()

        drawn = traceio._draw_ranks(Uniforms(), probs, len(u))
        assert np.array_equal(drawn, cdf.searchsorted(u, side="right"))

    @pytest.mark.parametrize("spec", [
        paper_spec(0),
        # Weights past rank 1 are tiny or underflow to zero.
        GeneratorSpec(n_functions=300, n_apps=7, duration_minutes=0.5,
                      arrival_rate_per_s=200.0, popularity_zipf_s=400.0,
                      seed=3),
        GeneratorSpec(n_functions=1, n_apps=1, duration_minutes=0.5,
                      arrival_rate_per_s=200.0, seed=4),
        GeneratorSpec(n_functions=50_000, n_apps=301, duration_minutes=0.5,
                      arrival_rate_per_s=400.0, popularity_zipf_s=0.9,
                      seed=5),
    ])
    def test_trace_equals_choice_reference(self, spec):
        assert generate_trace(spec) == generate_trace_by_choice(spec)

    @pytest.mark.parametrize("seed,count,digest", [
        (0, 180_453,
         "e8b2baaa97cbd13276192744b548ee9bff79a8366ac23a1334c26d224642af3d"),
        (1, 180_817,
         "7c94426d8a039f75b4e6fe4069f290d031a8d55b9ad97ae03a0cb3d4571d6e67"),
    ])
    def test_paper_shape_trace_pinned(self, seed, count, digest):
        trace = generate_trace(paper_spec(seed))
        h = hashlib.sha256()
        for name in TRACE_HEADER:
            h.update(getattr(trace, name).tobytes())
        assert len(trace) == count
        assert h.hexdigest() == digest


class TestTrace:
    EVENTS = [TraceEvent(0, 1, 2, 0.0, 5.0), TraceEvent(1, 1, 3, 0.5, 2.5),
              TraceEvent(7, 0, 2, 4.0, 1.0)]

    def test_row_views_round_trip_events(self):
        trace = as_trace(self.EVENTS)
        assert len(trace) == 3
        assert list(trace) == self.EVENTS
        assert trace[1] == self.EVENTS[1]
        assert trace[-1] == self.EVENTS[-1]
        assert as_trace(trace) is trace

    def test_row_views_hold_python_scalars(self):
        event = as_trace(self.EVENTS)[0]
        assert type(event.invocation_id) is int
        assert type(event.arrival_ms) is float
        assert repr(event) == repr(self.EVENTS[0])

    def test_columns_are_typed_arrays(self):
        trace = as_trace(self.EVENTS)
        assert trace.invocation_id.dtype == np.int64
        assert trace.arrival_ms.dtype == np.float64
        assert trace.duration_ms.tolist() == [5.0, 2.5, 1.0]

    @pytest.mark.parametrize("arrival,duration", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
        (-1.0, 1.0), (1.0, 0.0)])
    def test_bad_times_refused(self, arrival, duration):
        events = self.EVENTS + [TraceEvent(9, 0, 0, arrival, duration)]
        with pytest.raises(InvariantError, match="invocation 9"):
            as_trace(events)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", ["arrival_ms", "duration_ms"])
    def test_first_non_finite_time_is_named(self, column, value):
        # Invocation 12's negative arrival is checked only after every
        # time is found finite.
        times = {"arrival_ms": [0.0, 1.0, -1.0, 3.0],
                 "duration_ms": [1.0, 1.0, 1.0, 1.0]}
        times[column][1] = times[column][3] = value
        with pytest.raises(InvariantError,
                           match="^invocation 11: non-finite time$"):
            Trace([10, 11, 12, 13], [0] * 4, [0] * 4, **times)

    @pytest.mark.parametrize("arrival,duration,message", [
        ([0.0, -0.0, -1.0, -2.0], [1.0, 0.0, 0.0, 1.0],
         "invocation 12: negative arrival"),
        ([0.0, -0.0, 1.0, 2.0], [1.0, 5e-324, 0.0, -1.0],
         "invocation 12: duration must be positive"),
    ])
    def test_first_bad_time_is_named(self, arrival, duration, message):
        with pytest.raises(InvariantError, match=f"^{message}$"):
            Trace([10, 11, 12, 13], [0] * 4, [0] * 4, arrival, duration)

    def test_negative_zero_arrival_and_empty_trace_accepted(self):
        trace = Trace([0, 1], [0, 0], [0, 0], [-0.0, 0.0], [1.0, 2.0])
        assert math.copysign(1.0, trace.arrival_ms[0]) == -1.0
        assert len(Trace([], [], [], [], [])) == 0

    def test_unequal_columns_refused(self):
        with pytest.raises(InvariantError):
            Trace([0, 1], [0, 0], [0, 0], [0.0, 1.0], [1.0])

    def test_empty(self):
        trace = as_trace([])
        assert len(trace) == 0 and not trace
        assert list(trace) == []


class TestRoundTrip:
    def test_write_then_load_preserves_generated_trace(self, tmp_path):
        spec = GeneratorSpec(n_functions=30, n_apps=6, duration_minutes=0.2,
                             arrival_rate_per_s=80, seed=5)
        trace = generate_trace(spec)
        path = tmp_path / "round.csv"
        write_trace(trace, path)
        assert load_trace(path) == trace

    @settings(max_examples=30)
    @given(rows=st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 5), st.integers(0, 9),
                  st.floats(0, 1e6, allow_nan=False),
                  st.floats(0.001, 1e6, allow_nan=False)),
        max_size=20, unique_by=lambda t: t[0]))
    def test_round_trip_arbitrary_events(self, rows):
        import tempfile
        from pathlib import Path
        trace = sorted((TraceEvent(*row) for row in rows),
                       key=lambda e: (e.arrival_ms, e.invocation_id))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "h.csv"
            write_trace(trace, path)
            assert list(load_trace(path)) == trace


class TestWriteStats:
    ROWS = [{"variant": "CVM", "p50_delay_ms": 1.5, "p99_delay_ms": 9.0,
             "p50_slowdown": 2.0, "p99_slowdown": 11.0, "cold": 3,
             "lukewarm": 0, "warm": 7, "makespan_ms": 100.0}]

    def test_identical_inputs_identical_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_stats(self.ROWS, a, "json")
        write_stats(self.ROWS, b, "json")
        assert a.read_bytes() == b.read_bytes()

    def test_empty_stats_csv_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_stats([], path, "csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("variant,")

    def test_json_round_trips(self, tmp_path):
        path = tmp_path / "s.json"
        write_stats(self.ROWS, path, "json")
        assert json.loads(path.read_text()) == self.ROWS

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_stats(self.ROWS, tmp_path / "x", "xml")
