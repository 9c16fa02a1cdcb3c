import csv
import math
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import make_trace, rows_of, write_bench_inputs
from wlsynth import trace as trace_module
from wlsynth.errors import (ConfigError, SchemaError, TraceParseError, ValidationError,
                            WlsynthError)
from wlsynth.features import MODE_COUNTS, MODE_TIME_SHARES, MODES, FeatureSchema
from wlsynth.trace import (
    Trace,
    build_targets,
    export_trace,
    ingest_trace,
    read_targets,
    write_targets,
)


_ID_AND_TIMES = ("query_id", "arrival_ts", "duration_ms")


def record(schema, qid, arrival, duration, metrics, operators=None):
    """One row for `make_trace`."""
    return (qid, arrival, duration, metrics,
            operators if operators is not None else [0.0] * schema.n_operators)


class TestIngest:
    def test_round_trip(self, schema, tmp_path):
        trace = make_trace(schema, [
            record(schema, "q1", 1000, 2500, [3.5, 7.0], [1, 0, 2, 1]),
            record(schema, "q2", 4000, 0, [1.25, 0.5], [0, 1, 0, 0]),
        ])
        path = tmp_path / "t.csv"
        export_trace(trace, path)
        back = ingest_trace(path, schema)
        assert len(back) == 2
        assert rows_of(back, *_ID_AND_TIMES) == rows_of(trace, *_ID_AND_TIMES)
        np.testing.assert_array_equal(back.metrics, trace.metrics)
        np.testing.assert_array_equal(back.operators, trace.operators)

    def test_missing_column(self, schema, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("query_id,arrival_ts\nq1,0\n")
        with pytest.raises(SchemaError):
            ingest_trace(path, schema)

    def test_unparsable_value(self, schema, tmp_path):
        path = tmp_path / "bad.csv"
        header = "query_id,arrival_ts,duration_ms," + ",".join(schema.dimensions)
        path.write_text(header + "\nq1,0,oops,1,1,0,0,0,0\n")
        with pytest.raises(TraceParseError, match="duration_ms"):
            ingest_trace(path, schema)

    def test_negative_value_rejected(self, schema, tmp_path):
        path = tmp_path / "bad.csv"
        header = "query_id,arrival_ts,duration_ms," + ",".join(schema.dimensions)
        path.write_text(header + "\nq1,0,100,-1,1,0,0,0,0\n")
        with pytest.raises(ValidationError):
            ingest_trace(path, schema)

    @pytest.mark.parametrize("rows, error, message", [
        # the first offending row is named, even when a later row fails to parse
        (["q1,0,100,1,1,0,0,0,0", "q2,0,100,nan,1,0,0,0,0", "q3,0,oops,1,1,0,0,0,0"],
         TraceParseError, "row 3, column 'cpu_time_ms': non-finite value 'nan'"),
        (["q1,0,100,1,1,0,0,0,0", "q2,0,100,1,1,0,-1,0,0", "q3,0,100,1,1,0,0,0,x"],
         ValidationError, "row 3: negative metric or operator value"),
        (["q1,Infinity,100,1,1,0,0,0,0"],
         TraceParseError, "row 2, column 'arrival_ts': non-finite value 'Infinity'"),
        (["q1,0,100,1,1,0,0,0,0", "q2,0,oops,-1,1,0,0,0,0"],
         TraceParseError, "row 3, column 'duration_ms': cannot parse 'oops'"),
        # within a row: duration before metrics, as the columns are checked in order
        (["q1,0,-5,x,1,0,0,0,0"], ValidationError, "row 2: negative duration_ms -5"),
        # blank lines are skipped and not counted
        (["q1,0,100,1,1,0,0,0,0", "", "q2,0,100,1,1,0,0,0,-2"],
         ValidationError, "row 3: negative metric or operator value"),
        (["q1,0,100,1,1"], TraceParseError, "row 2, column 'filter_num': missing value"),
        # rows every cell of which parses: the bulk table's check finds them
        (["q1,0,100,1,1,0,0,0,0", "q2,0,-5,1,1,0,0,0,0"],
         ValidationError, "row 3: negative duration_ms -5"),
        (["q1,0,100,1,1,0,0,0,0", "q2,9223372036854775808,5,1,1,0,0,0,0"],
         ValidationError, "row 3, column 'arrival_ts': '9223372036854775808' is out of range"),
        # float() reads it as 0.0; its exponent is past Decimal's range
        (["q1,0e1000000000000000000,100,1,1,0,0,0,0"],
         TraceParseError, "row 2, column 'arrival_ts': cannot parse '0e1000000000000000000'"),
    ])
    def test_first_offending_row_is_named(self, schema, tmp_path, rows, error, message):
        path = tmp_path / "bad.csv"
        header = "query_id,arrival_ts,duration_ms," + ",".join(schema.dimensions)
        path.write_text("\n".join([header] + rows) + "\n")
        with pytest.raises(error) as info:
            ingest_trace(path, schema)
        assert str(info.value) == message

    def test_missing_query_id_cell(self, schema, tmp_path):
        path = tmp_path / "bad.csv"
        header = "arrival_ts,duration_ms," + ",".join(schema.dimensions) + ",query_id"
        path.write_text(header + "\n0,100,1,1,0,0,0,0\n")
        with pytest.raises(TraceParseError, match="row 2, column 'query_id': missing value"):
            ingest_trace(path, schema)

    def test_short_row_missing_a_repeated_name_is_typed_error(self, schema, tmp_path):
        """A repeated column name reads as its last occurrence, so a row
        that stops before it lacks that cell, as DictReader reads it; the
        row is not dropped from the trace."""
        path = tmp_path / "bad.csv"
        header = "query_id,arrival_ts,duration_ms," + ",".join(schema.dimensions) + ",query_id"
        path.write_text(header + "\nq1,0,100,1,1,0,0,0,0\n")
        with pytest.raises(TraceParseError, match="row 2, column 'query_id': missing value"):
            ingest_trace(path, schema)

    def test_duplicate_query_id_rejected(self, schema, tmp_path):
        path = tmp_path / "dup.csv"
        header = "query_id,arrival_ts,duration_ms," + ",".join(schema.dimensions)
        rows = ["q1,0,100,1,1,0,0,0,0", "q2,0,100,1,1,0,0,0,0", "q1,5,100,1,1,0,0,0,0"]
        path.write_text("\n".join([header] + rows) + "\n")
        with pytest.raises(ValidationError, match=r"row 4: duplicate query_id 'q1' \(first at row 2\)"):
            ingest_trace(path, schema)

    @pytest.mark.parametrize("arrival, duration, column, exact", [
        ("1000.5", "100", "arrival_ts", "1000.5"),
        ("1000", "99.25", "duration_ms", "99.25"),
        # float64 reads each of these as an integer; its exact decimal is none
        ("1.0000000000000001", "100", "arrival_ts", "1.0000000000000001"),
        ("1000", "1.0000000000000001", "duration_ms", "1.0000000000000001"),
        ("4503599627370496.5", "100", "arrival_ts", "4503599627370496.5"),
        ("1000", "4503599627370496.5", "duration_ms", "4503599627370496.5"),
        ("2e-400", "100", "arrival_ts", "2E-400"),
        ("1000", "2e-400", "duration_ms", "2E-400"),
    ])
    def test_non_integral_time_rejected(self, schema, tmp_path, arrival, duration, column,
                                        exact):
        """A time is decided on its cell's exact decimal value, by the bulk
        reader and the row reader alike."""
        path = tmp_path / "frac.csv"
        header = "query_id,arrival_ts,duration_ms," + ",".join(schema.dimensions)
        rows = ["q1,1e3,100.0,1,1,0,0,0,0", f"q2,{arrival},{duration},1,1,0,0,0,0"]
        path.write_text("\n".join([header] + rows) + "\n")
        with pytest.raises(ValidationError) as info:
            ingest_trace(path, schema)
        assert str(info.value) == f"row 3, column '{column}': non-integral value {exact}"
        assert not _assert_plain_path_agrees(path, schema)


class TestBuildTargets:
    def test_uniform_apportionment(self, schema):
        # [10000, 70000) against 30000 ms bins: overlaps 20000/30000/10000
        trace = make_trace(schema, [record(schema, "q", 10000, 60000, [6.0, 12.0])])
        _, intervals = build_targets(trace, 300000, 30000, span=(0, 300000))
        got = intervals.metrics
        np.testing.assert_allclose(got[0], [2.0, 4.0])
        np.testing.assert_allclose(got[1], [3.0, 6.0])
        np.testing.assert_allclose(got[2], [1.0, 2.0])
        assert np.all(got[3:] == 0)

    def test_zero_duration_deposits_at_arrival(self, schema):
        trace = make_trace(schema, [record(schema, "q", 45000, 0, [5.0, 1.0])])
        _, intervals = build_targets(trace, 300000, 30000, span=(0, 300000))
        got = intervals.metrics
        np.testing.assert_allclose(got[1], [5.0, 1.0])
        assert got.sum() == pytest.approx(6.0)

    def test_window_sums_intervals(self, schema):
        rng = np.random.default_rng(3)
        records = [
            record(schema, f"q{i}", int(rng.integers(0, 550000)),
                   int(rng.integers(0, 40000)), rng.uniform(0, 10, 2),
                   rng.integers(0, 4, 4))
            for i in range(30)
        ]
        trace = make_trace(schema, records)
        windows, intervals = build_targets(trace, 300000, 30000)
        per_window = intervals.per_window
        for w, feature in enumerate(windows.features):
            rows = intervals.metrics[w * per_window:(w + 1) * per_window]
            np.testing.assert_allclose(np.sum(rows, axis=0), feature[:schema.n_metrics])

    def test_operators_counted_in_arrival_window(self, schema):
        # arrival in window 0, execution mostly in window 1
        trace = make_trace(schema, [record(schema, "q", 290000, 100000, [1.0, 1.0],
                                           [3, 1, 2, 0])])
        windows, _ = build_targets(trace, 300000, 30000, span=(0, 600000))
        operators = windows.features[:, schema.n_metrics:]
        np.testing.assert_array_equal(operators[0], [3, 1, 2, 0])
        assert np.all(operators[1] == 0)
        assert windows.query_counts[0] == 1 and windows.query_counts[1] == 0

    def test_time_shares_weighted_mean(self, schema):
        trace = make_trace(schema, [
            record(schema, "a", 0, 10000, [1, 1], [0.2, 0.0, 0.0, 0.0]),
            record(schema, "b", 0, 30000, [1, 1], [0.6, 0.0, 0.0, 0.0]),
        ], mode=MODE_TIME_SHARES)
        windows, _ = build_targets(trace, 300000, 30000, span=(0, 300000))
        # (0.2*10000 + 0.6*30000) / 40000 = 0.5
        assert windows.features[0, schema.n_metrics] == pytest.approx(0.5)

    def test_overhang_clipped(self, schema):
        trace = make_trace(schema, [record(schema, "q", 280000, 40000, [4.0, 0.0])])
        _, intervals = build_targets(trace, 300000, 30000, span=(0, 300000))
        total = sum(intervals.metrics[:, 0])
        assert total == pytest.approx(2.0)  # half the mass falls past the span

    def test_indivisible_lengths_rejected(self, schema):
        trace = make_trace(schema, [record(schema, "q", 0, 1000, [1, 1])])
        with pytest.raises(ConfigError):
            build_targets(trace, 300000, 70000)

    def test_empty_trace_rejected(self, schema):
        with pytest.raises(ValidationError):
            build_targets(make_trace(schema, []), 300000, 30000)

    def test_empty_trace_over_a_span_has_zero_targets(self, schema):
        windows, intervals = build_targets(make_trace(schema, []), 300000, 30000,
                                           span=(0, 600000))
        assert windows.query_counts.tolist() == [0, 0]
        assert len(intervals) == 20
        assert not np.any(windows.features)
        assert not np.any(intervals.metrics)

    def test_targets_file_round_trip(self, schema, tmp_path):
        trace = make_trace(schema, [record(schema, "q", 10000, 60000, [6.0, 12.5],
                                           [1, 2, 0, 1])])
        windows, intervals = build_targets(trace, 300000, 30000)
        write_targets(windows, intervals, tmp_path / "w.csv", tmp_path / "i.csv", schema)
        rw, ri = read_targets(tmp_path / "w.csv", tmp_path / "i.csv", schema)
        assert len(rw) == len(windows) and len(ri) == len(intervals)
        np.testing.assert_array_equal(windows.features, rw.features)
        assert (windows.start_ts, windows.len_ms, windows.query_counts.tolist()) == (
            rw.start_ts, rw.len_ms, rw.query_counts.tolist())
        assert (intervals.grid, intervals.per_window) == (ri.grid, ri.per_window)
        np.testing.assert_array_equal(intervals.metrics, ri.metrics)

    def test_short_targets_row_is_typed_error(self, schema, tmp_path):
        trace = make_trace(schema, [record(schema, "q", 10000, 60000, [6.0, 12.5], [1, 2, 0, 1])])
        windows, intervals = build_targets(trace, 300000, 30000)
        write_targets(windows, intervals, tmp_path / "w.csv", tmp_path / "i.csv", schema)
        header, row = (tmp_path / "w.csv").read_text().splitlines()
        (tmp_path / "w.csv").write_text(header + "\n" + ",".join(row.split(",")[:5]) + "\n")
        with pytest.raises(TraceParseError, match="row 2, column 'scanned_bytes': missing value"):
            read_targets(tmp_path / "w.csv", tmp_path / "i.csv", schema)

    def test_targets_missing_column_is_schema_error(self, schema, tmp_path):
        trace = make_trace(schema, [record(schema, "q", 10000, 60000, [6.0, 12.5], [1, 2, 0, 1])])
        windows, intervals = build_targets(trace, 300000, 30000)
        write_targets(windows, intervals, tmp_path / "w.csv", tmp_path / "i.csv", schema)
        lines = (tmp_path / "i.csv").read_text().splitlines()
        (tmp_path / "i.csv").write_text(
            "".join(line.rsplit(",", 1)[0] + "\n" for line in lines))  # drop scanned_bytes
        with pytest.raises(SchemaError, match="targets file .* is missing column 'scanned_bytes'"):
            read_targets(tmp_path / "w.csv", tmp_path / "i.csv", schema)

    @pytest.mark.parametrize("name, row, column, cell, error, message", [
        ("w.csv", 0, "window_start_ts", "0.5", ValidationError,
         "row 2, column 'window_start_ts': non-integral value 0.5"),
        ("w.csv", 0, "query_count", None, TraceParseError,
         "row 2, column 'query_count': missing value"),
        ("i.csv", 1, "interval_index", "", TraceParseError,
         "row 3, column 'interval_index': cannot parse ''"),
        ("i.csv", 2, "window_index", "1e400", TraceParseError,
         "row 4, column 'window_index': non-finite value '1e400'"),
    ])
    def test_malformed_targets_cell_is_typed_error(self, schema, tmp_path, name, row, column,
                                                   cell, error, message):
        trace = make_trace(schema, [record(schema, "q", 10000, 60000, [6.0, 12.5], [1, 2, 0, 1])])
        windows, intervals = build_targets(trace, 300000, 30000)
        write_targets(windows, intervals, tmp_path / "w.csv", tmp_path / "i.csv", schema)
        with open(tmp_path / name, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        at = header.index(column)
        if cell is None:
            del rows[row][at:]  # a short row
        else:
            rows[row][at] = cell
        with open(tmp_path / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header] + rows)
        with pytest.raises(error, match=message):
            read_targets(tmp_path / "w.csv", tmp_path / "i.csv", schema)

    @pytest.mark.parametrize("name, edit, message", [
        ("i.csv", lambda rows: rows[2].__setitem__(2, str(int(rows[2][2]) + 7)), "does not hold"),
        ("i.csv", lambda rows: rows.pop(), "does not hold"),
        ("i.csv", lambda rows: rows.reverse(), "does not hold"),
        ("w.csv", lambda rows: rows.reverse(), "does not hold"),
        ("i.csv", lambda rows: rows[10].__setitem__(slice(0, 2), ["0", "10"]), "does not hold"),
        ("w.csv", lambda rows: rows[1].__setitem__(3, "-1"), "does not hold"),
        ("i.csv", lambda rows: rows[4].__setitem__(4, "-0.5"), "does not hold"),
        ("w.csv", lambda rows: rows.clear(), "holds no window"),
    ], ids=["interval-off-the-grid", "interval-lost", "intervals-shuffled", "windows-shuffled",
            "unequal-windows", "negative-count", "negative-metric", "no-window"])
    def test_targets_off_the_grid_are_rejected(self, schema, tmp_path, name, edit, message):
        """The rows of either file must be the ones write_targets writes for
        equal windows split into equal intervals, in time order; a file that
        breaks this is a ValidationError naming it."""
        trace = make_trace(schema, [record(schema, "a", 10000, 60000, [6.0, 12.5], [1, 2, 0, 1]),
                                    record(schema, "b", 400000, 1000, [1.0, 1.0], [0, 0, 1, 0])])
        windows, intervals = build_targets(trace, 300000, 30000)
        write_targets(windows, intervals, tmp_path / "w.csv", tmp_path / "i.csv", schema)
        with open(tmp_path / name, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        edit(rows)
        with open(tmp_path / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header] + rows)
        with pytest.raises(ValidationError,
                           match=f"targets file {re.escape(str(tmp_path / name))} {message}"):
            read_targets(tmp_path / "w.csv", tmp_path / "i.csv", schema)


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=500000),
        st.integers(min_value=0, max_value=90000),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    ),
    min_size=1, max_size=20,
))
def test_mass_conserved_inside_span(rows):
    """When the span covers every execution, no metric mass is lost."""
    from wlsynth.features import FeatureSchema

    schema = FeatureSchema(metrics=("m",), operators=())
    trace = make_trace(schema, [(f"q{i}", a, d, [m], []) for i, (a, d, m) in enumerate(rows)])
    end = max(a + d for a, d, _ in rows) + 1
    n_windows = -(-end // 300000)
    _, intervals = build_targets(trace, 300000, 30000, span=(0, n_windows * 300000))
    total = sum(intervals.metrics[:, 0])
    assert total == pytest.approx(sum(m for _, _, m in rows), rel=1e-9, abs=1e-9)


def _reference_bins(trace, window_len_ms, interval_len_ms, span=None):
    """The per-record loop that build_targets replaced, kept as its oracle.

    Returns the grid start, interval metrics, window operators and query counts.
    """
    arrivals, durations = trace.arrival_ts.tolist(), trace.duration_ms.tolist()
    if span is None:
        start = min(arrivals)
        end = max(max(a + d, a + 1) for a, d in zip(arrivals, durations))
    else:
        start, end = span
    n_windows = max(1, math.ceil((end - start) / window_len_ms))
    n_intervals = n_windows * (window_len_ms // interval_len_ms)
    grid_end = start + n_windows * window_len_ms
    interval_metrics = np.zeros((n_intervals, trace.schema.n_metrics))
    window_ops = np.zeros((n_windows, trace.schema.n_operators))
    window_op_weight = np.zeros(n_windows)
    query_counts = np.zeros(n_windows, dtype=int)
    for a, d, metrics, operators in zip(arrivals, durations, trace.metrics, trace.operators):
        if d == 0:
            k = int((a - start) // interval_len_ms)
            if 0 <= k < n_intervals:
                interval_metrics[k] += metrics
        else:
            lo, hi = max(a, start), min(a + d, grid_end)
            if hi > lo:
                first = int((lo - start) // interval_len_ms)
                last = int((hi - 1 - start) // interval_len_ms)
                for k in range(first, last + 1):
                    bin_a = start + k * interval_len_ms
                    overlap = min(hi, bin_a + interval_len_ms) - max(lo, bin_a)
                    if overlap > 0:
                        interval_metrics[k] += metrics * (overlap / d)
        w = int((a - start) // window_len_ms)
        if 0 <= w < n_windows:
            query_counts[w] += 1
            if trace.mode == MODE_COUNTS:
                window_ops[w] += operators
            else:
                weight = max(d, 1)
                window_ops[w] += operators * weight
                window_op_weight[w] += weight
    if trace.mode == MODE_TIME_SHARES:
        nonzero = window_op_weight > 0
        window_ops[nonzero] /= window_op_weight[nonzero, None]
    return start, interval_metrics, window_ops, query_counts


@st.composite
def binning_cases(draw):
    n_metrics = draw(st.integers(1, 3))
    n_operators = draw(st.integers(0, 3))
    schema = FeatureSchema(metrics=tuple(f"m{i}" for i in range(n_metrics)),
                           operators=tuple(f"o{i}" for i in range(n_operators)))
    interval = draw(st.sampled_from([1000, 7000, 30000]))
    window = interval * draw(st.integers(1, 4))
    values = st.floats(min_value=0, max_value=1e12, allow_nan=False, allow_infinity=False)
    records = [
        (
            f"q{i}",
            draw(st.integers(-50000, 400000)),
            draw(st.one_of(st.just(0), st.integers(1, 200000))),
            draw(st.lists(values, min_size=n_metrics, max_size=n_metrics)),
            draw(st.lists(values, min_size=n_operators, max_size=n_operators)),
        )
        for i in range(draw(st.integers(1, 40)))
    ]
    # an explicit span may cut queries that start before it or end after it
    span = draw(st.one_of(
        st.none(),
        st.tuples(st.integers(-20000, 300000), st.integers(0, 300000))
        .map(lambda t: (t[0], t[0] + t[1])),
    ))
    trace = make_trace(schema, records, mode=draw(st.sampled_from(MODES)))
    # from one triple per chunk to the default, which takes every case whole
    budget = draw(st.one_of(st.integers(1, 8), st.just(trace_module._TRIPLES)))
    return trace, window, interval, span, budget


def _assert_binning_matches_per_record_loop(trace, window_len_ms, interval_len_ms, span,
                                            budget):
    with mock.patch.object(trace_module, "_TRIPLES", budget):
        windows, intervals = build_targets(trace, window_len_ms, interval_len_ms, span)
    start, interval_metrics, window_ops, query_counts = _reference_bins(
        trace, window_len_ms, interval_len_ms, span)
    per_window = window_len_ms // interval_len_ms
    assert len(windows) == len(query_counts)
    assert len(intervals) == len(interval_metrics)
    np.testing.assert_array_equal(intervals.metrics, interval_metrics)
    n_metrics = trace.schema.n_metrics
    for w, feature in enumerate(windows.features):
        assert windows.start_ts + w * windows.len_ms == start + w * window_len_ms
        assert windows.query_counts[w] == query_counts[w]
        np.testing.assert_array_equal(
            feature[:n_metrics],
            interval_metrics[w * per_window:(w + 1) * per_window].sum(axis=0))
        np.testing.assert_array_equal(feature[n_metrics:], window_ops[w])
    grid = intervals.grid
    for j in range(len(intervals)):
        assert grid.start_ts + j * grid.interval_len_ms == start + j * interval_len_ms


@settings(max_examples=100, deadline=None)
@given(binning_cases())
def test_binning_matches_per_record_loop(case):
    """build_targets equals the per-record loop bit for bit, whatever the triple budget."""
    _assert_binning_matches_per_record_loop(*case)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("budget", [1, 5, trace_module._TRIPLES])
def test_binning_chunks_match_per_record_loop(mode, budget):
    """Each row its own chunk (budget 1), one query whose 40 intervals alone
    exceed the budget (budget 5), and the whole trace in one call: bit for
    bit the per-record loop's, in both operator modes."""
    rng = np.random.default_rng(7)
    n = 300
    schema = FeatureSchema(metrics=("m0", "m1"), operators=("o0", "o1"))
    # in arrival order, so that the rows of one chunk share intervals
    arrival = np.sort(rng.integers(-20000, 600000, n))
    duration = np.where(rng.random(n) < 0.1, 0, rng.integers(1, 90000, n))
    arrival[17], duration[17] = 14000, 40 * 7000
    values = rng.uniform(0, 1e9, (n, 4)) * rng.random((n, 4)) ** 4
    trace = Trace([f"q{i}" for i in range(n)], arrival, duration, values, schema, mode)
    _assert_binning_matches_per_record_loop(trace, 70000, 7000, (0, 560000), budget)


def _reference_format(value):
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _reference_export(trace, path):
    """The per-row exporter that export_trace replaced, kept as its oracle."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "arrival_ts", "duration_ms"] + list(trace.schema.dimensions))
        for query_id, arrival_ts, duration_ms, metrics, operators in rows_of(
                trace, *_ID_AND_TIMES, "metrics", "operators"):
            writer.writerow(
                [query_id, arrival_ts, duration_ms]
                + [_reference_format(v) for v in metrics]
                + [_reference_format(v) for v in operators]
            )


_EXPORT_SCHEMA = FeatureSchema(metrics=("m0", "m1"), operators=("o0",))
_cell = st.one_of(
    st.sampled_from([0.0, 0.1, 5.0, 1e20, 2.0 ** 53, 2.0 ** 53 + 2, 1e-300, 5e-324]),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False),
    # negative, huge, non-integral and non-finite values ingest rejects
    st.sampled_from([-1.0, -0.0, -0.5, -2.0 ** 53, -1e300, 9.5e15, float("nan"),
                     float("inf"), -float("inf")]),
    st.floats(),
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                    max_size=6),
            st.integers(-10 ** 12, 10 ** 12),
            st.integers(0, 10 ** 9),
            st.lists(_cell, min_size=3, max_size=3),
        ),
        max_size=25,
        unique_by=lambda row: row[0],
    ),
    block=st.integers(1, 6),
)
@example(rows=[("q", 0, 5, [0.1, 5.0, 1e20]), ("r", 2 ** 53, 0, [2.0 ** 53, 0.0, 1.5])],
         block=1)
@example(rows=[(f"q{i}", -i * 10 ** 11, i, [-0.25 * i, 2.0 ** 60, i]) for i in range(9)],
         block=4)
def test_export_round_trip_and_bytes(tmp_path_factory, rows, block):
    """export_trace writes the old exporter's bytes, whatever the block size,
    and ingest_trace reads them back, or rejects a negative or non-finite value."""
    trace = make_trace(_EXPORT_SCHEMA, [(qid, arrival, duration, cells[:2], cells[2:])
                                        for qid, arrival, duration, cells in rows])
    out = tmp_path_factory.getbasetemp()
    with mock.patch.object(trace_module, "_CSV_BLOCK", block):
        export_trace(trace, out / "new.csv")
    _reference_export(trace, out / "old.csv")
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()

    if not (np.isfinite(trace.features).all() and (trace.features >= 0).all()):
        with pytest.raises((TraceParseError, ValidationError)):
            ingest_trace(out / "new.csv", _EXPORT_SCHEMA)
        return
    back = ingest_trace(out / "new.csv", _EXPORT_SCHEMA)
    assert back.query_id == trace.query_id
    assert (back.arrival_ts.dtype, back.duration_ms.dtype) == (np.int64, np.int64)
    assert rows_of(back, *_ID_AND_TIMES) == rows_of(trace, *_ID_AND_TIMES)
    np.testing.assert_array_equal(back.metrics, trace.metrics)
    np.testing.assert_array_equal(back.operators, trace.operators)


@pytest.mark.parametrize("value, text", [
    (0.1, "0.1"), (5.0, "5"), (1e20, "100000000000000000000"),
    (2.0 ** 53, "9007199254740992"), (1.5e-7, "1.5e-07"),
])
def test_export_number_format(tmp_path, value, text):
    trace = make_trace(_EXPORT_SCHEMA, [("q", 0, 1, [value, 0.0], [1.0])])
    export_trace(trace, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_text().splitlines()[1] == f"q,0,1,{text},0,1"


_CELLS = {
    int: st.integers(-2 ** 63, 2 ** 63 - 1),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                 max_size=6),
}
# (kinds it applies to, raw cell, error, message); a raw cell of None ends
# the row before the cell
_FAULTS = [
    ((int,), "2.5", ValidationError, "non-integral value 2.5"),
    ((int,), "1.0000000000000001", ValidationError, "non-integral value 1.0000000000000001"),
    ((int, float), "x1", TraceParseError, "cannot parse 'x1'"),
    # float() reads it as 0.0; its exponent is past Decimal's range
    ((int,), "0e1000000000000000000", TraceParseError, "cannot parse '0e1000000000000000000'"),
    ((int, float), "", TraceParseError, "cannot parse ''"),
    ((int, float), "nan", TraceParseError, "non-finite value 'nan'"),
    ((int, float), "-Infinity", TraceParseError, "non-finite value '-Infinity'"),
    ((int, float), "1e400", TraceParseError, "non-finite value '1e400'"),
    ((int, float, str), None, TraceParseError, "missing value"),
]


@st.composite
def column_files(draw):
    """Column kinds, rows of cells of those kinds, and one fault at one cell
    (None when no fault applies: a short row that ends before the first
    cell is a blank line)."""
    kinds = draw(st.lists(st.sampled_from((int, float, str)), min_size=1, max_size=5))
    rows = draw(st.lists(st.tuples(*(_CELLS[k] for k in kinds)).map(list),
                         min_size=1, max_size=6))
    row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(kinds) - 1))
    faults = [f for f in _FAULTS if kinds[col] in f[0] and (f[1] is not None or col > 0)]
    return kinds, rows, row, col, draw(st.sampled_from(faults)) if faults else None


@settings(max_examples=150, deadline=None)
@given(column_files())
def test_read_columns_round_trip_and_typed_rejection(tmp_path_factory, case):
    """Int, float and str columns written with csv.writer read back exactly;
    one corrupted cell raises the typed error naming its row and column."""
    kinds, rows, row, col, fault = case
    names = [f"c{j}" for j in range(len(kinds))]
    path = tmp_path_factory.getbasetemp() / "columns.csv"

    def read(rows):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([names] + rows)
        return trace_module.read_columns(path, "test", dict(zip(names, kinds)), {})

    back = read(rows)
    assert back == {name: [cells[j] for cells in rows] for j, name in enumerate(names)}
    assert all(type(v) is kind for name, kind in zip(names, kinds) for v in back[name])
    if fault is None:
        return
    _, raw, error, message = fault
    cells = rows[row][:col] if raw is None else rows[row][:col] + [raw] + rows[row][col + 1:]
    with pytest.raises(error, match=re.escape(f"row {row + 2}, column '{names[col]}': {message}")):
        read(rows[:row] + [cells] + rows[row + 1:])


def test_only_trace_reads_csv():
    """Every CSV the package reads back goes through trace.py."""
    package = Path(trace_module.__file__).parent
    readers = sorted(p.name for p in package.glob("*.py") if re.search(
        r"\bcsv\.(reader|DictReader)\b|from csv import", p.read_text(encoding="utf-8")))
    assert readers == ["trace.py"]


def _csv_writer_bytes(path, header, rows, line_end):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator=line_end).writerows([header] + rows)
    return path.read_bytes()


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_COLUMN_CELLS = {
    "str": _TEXT,
    "int": st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1), st.integers(-10 ** 5, 10 ** 5)),
    "float": st.one_of(st.floats(), st.integers(-2 ** 60, 2 ** 60).map(float),
                       st.sampled_from([0.0, -0.0, 2.0 ** 53 - 1, -2.0 ** 53, 2.0 ** 53])),
}


@st.composite
def column_blocks(draw):
    """Columns of every kind the writer takes, with the rows of cells a
    csv.writer reference writes for them."""
    n = draw(st.integers(0, 30))
    columns, cells = [], []
    for kind in draw(st.lists(st.sampled_from(["str", "int", "float", "floats"]),
                              min_size=1, max_size=5)):
        width = draw(st.integers(0, 3)) if kind == "floats" else 1
        values = [draw(st.lists(_COLUMN_CELLS[kind.rstrip("s")], min_size=n, max_size=n))
                  for _ in range(width)]
        if kind == "str":
            columns.append(values[0])
            cells += values
        elif kind == "int":
            columns.append(np.array(values[0], dtype=np.int64))
            cells += values
        else:
            block = np.array(values, dtype=float).T.reshape(n, width)
            columns.append(block if kind == "floats" else block[:, 0])
            cells += [[_reference_format(v) for v in column] for column in block.T]
    assume(cells)  # a table has at least one column
    header = draw(st.lists(_TEXT, min_size=len(cells), max_size=len(cells)))
    return header, columns, [list(row) for row in zip(*cells)]


_EXAMPLE = (["c0", "x\ry", "", 'h"'],
            [["a,b", 'q"', "x\ry", "\n", ""], np.array([-2 ** 63, 2 ** 63 - 1, 0, -7, 10 ** 16]),
             np.array([[0.5, 2.0 ** 53], [float("nan"), -0.0], [float("inf"), 1e300],
                       [-1.5, 9999.0], [10000.0, -float("inf")]])],
            [["a,b", "-9223372036854775808", "0.5", "9007199254740992"],
             ['q"', "9223372036854775807", "nan", "0"], ["x\ry", "0", "inf", str(int(1e300))],
             ["\n", "-7", "-1.5", "9999"], ["", "10000000000000000", "10000", "-inf"]])


@settings(max_examples=150, deadline=None)
@given(column_blocks(), st.integers(1, 7), st.sampled_from(["\r\n", "\n"]))
@example(_EXAMPLE, 2, "\r\n")
@example(_EXAMPLE, 2, "\n")
@example(([""], [[""] * 3], [[""]] * 3), 2, "\n")
def test_write_columns_writes_csv_writer_bytes(tmp_path_factory, case, block, line_end):
    """write_columns writes what csv.writer writes for the same header and
    cells, with floats under the `_format_number` rule, under either line
    end, whatever the block size; under a bare LF a bare CR goes unquoted."""
    header, columns, rows = case
    out = tmp_path_factory.getbasetemp()
    with mock.patch.object(trace_module, "_CSV_BLOCK", block):
        trace_module.write_columns(out / "new.csv", header, columns, line_end)
    assert (out / "new.csv").read_bytes() == _csv_writer_bytes(out / "old.csv", header, rows,
                                                               line_end)


def _ingest_outcome(path, schema):
    """What ingest_trace gives: the trace's columns, or the error's type and message."""
    try:
        trace = ingest_trace(path, schema)
    except WlsynthError as exc:  # a typed error, as long as both readers raise the same
        return type(exc), str(exc)
    return (trace.query_id, trace.arrival_ts.tolist(), trace.duration_ms.tolist(),
            trace.features.tobytes())


def _assert_plain_path_agrees(path, schema):
    """The bulk reader either declines or reads exactly what the row reader
    reads, and ingest_trace gives the same trace or the same error with the
    bulk reader as without it.  Returns whether the bulk reader read the file."""
    columns = ("arrival_ts", "duration_ms") + schema.dimensions
    try:
        bulk = trace_module._read_bulk(path, columns)
    except SchemaError:  # a missing column, which the row reader names alike
        bulk = None
    if bulk is not None:
        ids, *tables = trace_module._read_rows(path, columns, schema)
        assert (bulk[0], [t.shape for t in bulk[1:]]) == (ids, [t.shape for t in tables])
        assert [t.tobytes() for t in bulk[1:]] == [t.tobytes() for t in tables]
    with mock.patch.object(trace_module, "_read_bulk", return_value=None):
        expected = _ingest_outcome(path, schema)
    assert _ingest_outcome(path, schema) == expected
    return bulk is not None


_PLAIN_SCHEMA = FeatureSchema(metrics=("m",), operators=("o",))
_PLAIN_HEADER = "query_id,arrival_ts,duration_ms,m,o"


@pytest.mark.parametrize("text, plain", [
    ("{h}\nq1,0,10,1.5,2\nq2,5,0,0,1\n", True),
    ("{h}\r\nq1,0,10,1.5,2\r\nq2,5,0,0,1", True),
    ("{h}\n", True),  # header only: np.loadtxt reads no row
    ("{h}", True),
    ("x,{h},query_id\nz,q1,0,10,1,2,q9\n", True),  # a repeated name reads as its last
    ("﻿x,{h}\nz,q1,0,10,1,2\n", True),
    ("{h}\nq1, 5,+5,5 ,\xa05\n", True),
    ("{h}\nq1,0,10,nan,2\n", False),  # the table check declines it, the row reader names it
    ("{h}\nq1,0,10,1e400,2\n", False),
    ("{h}\nq1,0,10,1,2\nq1,0,10,1,2\n", True),
    ('{h}\n"q,1",0,10,1,2\n', True),  # np.loadtxt splits quoted cells as csv.reader does
    ('{h}\nq"1,0,10,1,2\n', True),
    ('{h}\n"q\r\n1",0,10,1,2\n', True),
    ('{h}\nq1,"0",10,1,2\n', True),
    ("{h}\nq1,0,10,1,2\rq2,0,10,1,2\n", True),  # both end a line at a bare "\r"
    ("{h}\nq\r1,0,10,1,2\n", False),
    ("{h}\n\rq1,0,10,1,2\n", True),  # both skip the blank line "\r" makes
    ("x\ry,{h}\nz,q1,0,10,1,2\n", False),
    ('"x,y",{h}\nz,w,q1,0,10,1,2\n', False),
    ('"x\ny",{h}\nz,q1,0,10,1,2\n', True),  # np.loadtxt skips the header's two lines
    ('"x\r\ny",{h}\r\nz,q1,0,10,1,2\r\n', True),
    ("﻿{h}\nq1,0,10,1,2\n", False),
    ("{h}\nq\x001,0,10,1,2\n", True),  # np.loadtxt keeps the NUL in the id, as csv.reader does
    ("{h}\nq1,0,10,1,\x1c2\n", False),  # np.loadtxt strips \x1c to \x1f, float() does not
    ("{h}\nq1,0,10,1,\x1d2\n", False),
    ("{h}\nq1,0,10,1,\x1e2\n", False),
    ("{h}\nq1,0,10,1,\x1f2\n", False),
    ("{h}\nq\x1f1,0,10,1,2\n", False),
    ("\n{h}\nq1,0,10,1,2\n", False),  # a blank first line is an empty header
    ("{h}\nq1,0,10,1,2\n\nq2,0,10,1,2\n", True),  # both skip blank lines
    ("{h}\nq1,0,10,1,2\n \nq2,0,10,1,2\n", False),
    ("{h}\nq1,0,10,1,2\n\n", True),
    ("{h}\nq1,0,10,1\n", False),
    ("{h}\nq1,0,10,1,2,3\n", True),  # cells past the header are not read
    ("{h}\nq1,0,10,1_0,2\n", False),
    ("{h}\nq1,1e3,10.0,1,2\n", False),  # float-form times: the row reader reads them exactly
    ("{h}\nq1,-0,+0,1,2\n", True),
    # np.loadtxt's int parser reads some non-ASCII characters as digits
    ("{h}\nq1,\u01fe,10,1,2\n", False),
    ("{h}\nq1,0,1\u01ff0,1,2\n", False),
    ("{h}\nq1,0,\xa010,1,2\n", True),
    ("{h}\nq1,0,10,１２,2\n", False),
    ("{h}\nq1,0,10,,2\n", False),
    ("query_id,arrival_ts,m,o\nq1,0,1,2\n", False),
    ("", False),
])
def test_plain_path_matches_csv_reader(tmp_path, text, plain):
    path = tmp_path / "t.csv"
    path.write_bytes(text.format(h=_PLAIN_HEADER).encode("utf-8"))
    assert _assert_plain_path_agrees(path, _PLAIN_SCHEMA) == plain


@pytest.mark.parametrize("row, outcome", [
    ("q1,9007199254740992,10,1,2", 2 ** 53),
    ("q1,-9007199254740992,10,1,2", -2 ** 53),
    ("q1,9007199254740993,10,1,2", "'arrival_ts': '9007199254740993'"),
    ("q1,9007199254740992.0,10,1,2", 2 ** 53),
    ("q1,9007199254740993.0,10,1,2", "'arrival_ts': '9007199254740993.0'"),
    ("q1,9223372036854775807,10,1,2", "'arrival_ts': '9223372036854775807'"),
    ("q1,-9223372036854775808,10,1,2", "'arrival_ts': '-9223372036854775808'"),
    ("q1,-9223372036854775809,10,1,2", "'arrival_ts': '-9223372036854775809'"),
    ("q1,9223372036854775808,10,1,2", "'arrival_ts': '9223372036854775808'"),
    ("q1,0,9007199254740993,1,2", "'duration_ms': '9007199254740993'"),
])
def test_times_past_2_53_are_out_of_range(tmp_path, row, outcome):
    """A time is at most 2**53 in magnitude, decided on the cell's exact
    value, however it is written; any other is out of range.  The bulk
    reader leaves every time of that magnitude to the row reader."""
    path = tmp_path / "t.csv"
    path.write_text(f"{_PLAIN_HEADER}\n{row}\n")
    assert not _assert_plain_path_agrees(path, _PLAIN_SCHEMA)
    if isinstance(outcome, int):
        assert ingest_trace(path, _PLAIN_SCHEMA).arrival_ts.tolist() == [outcome]
    else:
        with pytest.raises(ValidationError) as info:
            ingest_trace(path, _PLAIN_SCHEMA)
        assert str(info.value) == f"row 2, column {outcome} is out of range"


@pytest.mark.parametrize("header, row", [
    (_PLAIN_HEADER + ",x", "q1,0,10,1,2," + "y" * 131073),
    (_PLAIN_HEADER + "," + "x" * 131073, "q1,0,10,1,2,y"),
])
def test_plain_path_declines_fields_over_the_csv_limit(tmp_path, header, row):
    """A field longer than csv.field_size_limit() (131072 by default) is a
    csv.Error from csv.reader, so the bulk reader declines it."""
    path = tmp_path / "t.csv"
    path.write_text(header + "\n" + row + "\n")
    assert not _assert_plain_path_agrees(path, _PLAIN_SCHEMA)


def test_plain_path_declines_invalid_utf8(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(_PLAIN_HEADER.encode() + b"\nq\xff,0,10,1,2\n")
    assert not _assert_plain_path_agrees(path, _PLAIN_SCHEMA)


# true about one time in sixteen; Hypothesis favours the bounds, not 7
_RARE = st.integers(0, 15).map(lambda k: k == 7)


def _rarely(common, rare):
    """`common`, or now and then `rare`."""
    return _RARE.flatmap(lambda rarely: rare if rarely else common)


_PLAIN_CELLS = _rarely(
    st.one_of(st.integers(0, 10 ** 6).map(str), st.floats(min_value=0, allow_nan=False).map(repr)),
    st.sampled_from(["1_0", "１２", " 5", "+5", "5 ", "\xa05", "\x1c5", "\x1d5", "\x1e5", "\x1f5",
                     "nan", "-nan", "inf",
                     "1e400", "", "-3", "1.5", "0x10", "1e3", "2e-400", "9007199254740993",
                     "1.0000000000000001", "4503599627370496.5", "\u01fe", "1\u04ff0",
                     "9223372036854775808", "٣", "q,1", '"5"']),
)
_PLAIN_IDS = _rarely(st.text("q1é ", max_size=4),
                     st.text(st.sampled_from(list('q1,"\r\n\x00\ufeff\x1c\xa0')), max_size=4))


@st.composite
def trace_files(draw):
    """Trace file bytes: mostly plain, with a fault here and there."""
    names = ["query_id", "arrival_ts", "duration_ms", "m", "o"]
    header = draw(st.permutations(names + draw(st.lists(
        st.sampled_from(names + ["x"]), max_size=2))))
    if draw(_RARE):
        header = header[1:]
    lines = [",".join(header)]
    for i in range(draw(st.integers(0, 8))):
        cells = [draw(_PLAIN_IDS) if name in ("query_id", "x") else draw(_PLAIN_CELLS)
                 for name in header]
        if draw(st.integers(0, 1)):
            cells[header.index("query_id") if "query_id" in header else 0] = f"q{i}"
        if draw(_RARE):
            j = header.index("query_id") if "query_id" in header else 0
            cells[j] = '"' + cells[j].replace('"', '""') + '"'  # csv quoting
        length = draw(_rarely(st.just(len(cells)), st.sampled_from([len(cells) - 1, len(cells) + 1])))
        lines.append(",".join((cells + ["7"])[:length]))
        lines += draw(_rarely(st.just([]), st.sampled_from([[""], [" "]])))
    ends = draw(st.lists(_rarely(st.sampled_from(["\n", "\r\n"]), st.just("\r")),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(map(str.__add__, lines, ends))
    if draw(st.booleans()):
        text = text[:-len(ends[-1])]
    text = draw(_rarely(st.just(""), st.sampled_from(["\ufeff", "\n"]))) + text
    return text.encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(trace_files())
def test_plain_path_agrees_on_generated_files(tmp_path_factory, data):
    """On files with quoted ids, CR line ends, blank, whitespace-only, short
    and long lines, repeated names and cells that float() and np.loadtxt
    read differently, the bulk reader reads what the row reader reads or
    declines, and ingest_trace gives the same trace or the same error."""
    path = tmp_path_factory.getbasetemp() / "generated.csv"
    path.write_bytes(data)
    _assert_plain_path_agrees(path, _PLAIN_SCHEMA)


def test_bulk_reader_declines_a_float_read_into_an_int_field(tmp_path):
    """numpy before 2.0 reads a float cell such as 1.0 into an int field,
    truncated, with a DeprecationWarning; the bulk reader declines the file
    then, whatever the warning filters outside it."""
    path = tmp_path / "t.csv"
    path.write_text(f"{_PLAIN_HEADER}\nq1,1,10,1,2\n")
    loadtxt = np.loadtxt

    def truncating_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return loadtxt(*args, **kwargs)

    with warnings.catch_warnings(), mock.patch.object(np, "loadtxt", truncating_loadtxt):
        warnings.simplefilter("ignore", DeprecationWarning)
        assert trace_module._read_bulk(path, ("arrival_ts", "duration_ms", "m", "o")) is None
        assert ingest_trace(path, _PLAIN_SCHEMA).arrival_ts.tolist() == [1]


def _never_parse_row(*args):
    raise AssertionError("the row reader read the file")


@pytest.mark.parametrize("workload", ["select_gap", "dense_trace"])
def test_bulk_reader_reads_benchmark_traces(tmp_path, monkeypatch, schema, workload):
    """A benchmark trace is read in bulk, by one np.loadtxt call, and never
    reaches the row reader."""
    _, inputs = write_bench_inputs(tmp_path, monkeypatch, workload)
    with (mock.patch.object(trace_module, "_parse_row", _never_parse_row),
          mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt):
        trace = ingest_trace(inputs / "trace.csv", schema)
    assert loadtxt.call_count == 1
    assert len(trace) == len((inputs / "trace.csv").read_text().splitlines()) - 1


def test_bulk_reader_reads_quoted_ids(tmp_path, schema):
    """Ids that csv.writer quotes, with commas, quotes and line breaks in
    them, do not send the file to the row reader."""
    ids = ['q,1', 'q"2', "q\n3", "q\r\n4", '"', ""]
    path = tmp_path / "t.csv"
    export_trace(make_trace(schema, [record(schema, qid, 10 * i, 5, [1, i])
                                     for i, qid in enumerate(ids)]), path)
    with mock.patch.object(trace_module, "_parse_row", _never_parse_row):
        trace = ingest_trace(path, schema)
    assert trace.query_id == ids
    assert trace.metrics.tolist() == [[1, i] for i in range(len(ids))]


def test_bulk_reader_parses_each_row_once(tmp_path):
    """One np.loadtxt call reads every row's id and numbers; csv.reader
    reads only the header."""
    path = tmp_path / "t.csv"
    path.write_text(_PLAIN_HEADER + "".join(f"\nq{i},{i},10,1,2" for i in range(50)) + "\n")
    rows, reader = [], csv.reader

    class CountingReader:
        def __init__(self, *args, **kwargs):
            self._reader = reader(*args, **kwargs)
            self.line_num = 0

        def __iter__(self):
            return self

        def __next__(self):
            rows.append(next(self._reader))
            self.line_num = self._reader.line_num
            return rows[-1]

    with (mock.patch.object(csv, "reader", CountingReader),
          mock.patch.object(trace_module, "_parse_row", _never_parse_row),
          mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt):
        trace = ingest_trace(path, _PLAIN_SCHEMA)
    assert loadtxt.call_count == 1
    assert len(rows) == 1
    assert trace.query_id == [f"q{i}" for i in range(50)]
    assert trace.arrival_ts.tolist() == list(range(50))


def _straddling_file(path, column, length):
    """A CRLF trace whose third line, `length` characters long, starts 7
    characters before the first 64 KiB chunk boundary, so that it runs
    through the next chunk into the one after; `column` holds its padding."""
    header = _PLAIN_HEADER + ",x\r\n"
    filler = "q0,0,10,1,2,"
    filler += "y" * ((1 << 16) - 7 - len(header) - len(filler) - 2) + "\r\n"
    cells = {"query_id": "q1", "x": "y"}
    cells[column] += "z" * (length - len("q1,0,10,1,2,y"))
    line = f"{cells['query_id']},0,10,1,2,{cells['x']}\r\n"
    path.write_bytes((header + filler + line + "q2,0,10,1,2,y\r\n").encode())
    assert len(header + filler) == (1 << 16) - 7 and len(line) == length + 2


@pytest.mark.parametrize("column", ["query_id", "x"])
@pytest.mark.parametrize("excess, plain", [(0, True), (1, False), (12, False)])
def test_bulk_reader_measures_lines_across_chunks(tmp_path, column, excess, plain):
    """A line longer than csv.field_size_limit() (131072 by default) is
    declined, though it straddles 64 KiB chunks, in the id column and in a
    column no reader reads.  12 more characters make its padded field too
    long for csv.reader, which raises on it."""
    path = tmp_path / "t.csv"
    _straddling_file(path, column, csv.field_size_limit() + excess)
    assert _assert_plain_path_agrees(path, _PLAIN_SCHEMA) == plain


def test_bulk_reader_measures_lines_under_a_lowered_limit(tmp_path):
    """Under a csv.field_size_limit() below the chunk size, a line over it
    inside one chunk is declined too."""
    path = tmp_path / "t.csv"
    path.write_text(f"{_PLAIN_HEADER},x\nq1,0,10,1,2,y\nq2,0,10,1,2,{'y' * 101}\nq3,0,10,1,2,y\n")
    limit = csv.field_size_limit(100)
    try:
        assert not _assert_plain_path_agrees(path, _PLAIN_SCHEMA)
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("column", ["query_id", "x"])
@pytest.mark.parametrize("lines, plain", [(100, True), (132, False)])
def test_bulk_reader_declines_quoted_fields_over_the_csv_limit(tmp_path, column, lines, plain):
    """A quoted field of short lines can run past csv.field_size_limit(),
    on which csv.reader raises; so a file that quotes is read through
    csv.reader too, and declined there."""
    field = '"' + ("y" * 999 + "\n") * lines + '"'
    cells = {"query_id": "q2", "x": "y", column: field}
    path = tmp_path / "t.csv"
    path.write_text(f"{_PLAIN_HEADER},x\nq1,0,10,1,2,y\n"
                    f"{cells['query_id']},0,10,1,2,{cells['x']}\n")
    assert _assert_plain_path_agrees(path, _PLAIN_SCHEMA) == plain
