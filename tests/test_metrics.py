import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_trace as trace_of_rows
from wlsynth.errors import ValidationError
from wlsynth.features import PerformanceFeature
from wlsynth.metrics import EPS_DEFAULT, gmape, gmqe, mae, report, write_report
from wlsynth.trace import build_targets


class TestHandChecks:
    def test_perfect_series(self):
        t, a = [10.0, 20.0, 5.0], [10.0, 20.0, 5.0]
        assert mae(t, a) == 0.0
        assert gmape(t, a) == pytest.approx(0.0, abs=1e-12)
        assert gmqe(t, a) == pytest.approx(1.0, abs=1e-12)

    def test_single_halving(self):
        assert mae([10.0], [5.0]) == pytest.approx(5.0, abs=1e-12)
        assert gmape([10.0], [5.0]) == pytest.approx(0.5, abs=1e-12)
        assert gmqe([10.0], [5.0]) == pytest.approx(2.0, abs=1e-12)

    def test_mixed_two_points(self):
        t, a = [10.0, 20.0], [5.0, 40.0]
        assert mae(t, a) == pytest.approx(12.5, abs=1e-12)
        assert gmape(t, a) == pytest.approx(math.sqrt(1.5 * 2.0) - 1.0, abs=1e-12)
        assert gmqe(t, a) == pytest.approx(2.0, abs=1e-12)

    def test_zero_target_uses_eps(self):
        assert gmape([0.0], [1.0], eps=1e-9) == pytest.approx(1e9, rel=1e-9)
        assert gmqe([0.0], [1.0], eps=1e-9) == pytest.approx(1e9, rel=1e-9)

    def test_quotient_is_symmetric(self):
        assert gmqe([4.0], [8.0]) == pytest.approx(gmqe([8.0], [4.0]), abs=1e-12)


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            mae([1.0], [1.0, 2.0])

    def test_empty_series(self):
        with pytest.raises(ValidationError):
            gmqe([], [])


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.floats(0, 1e6, allow_nan=False), st.floats(0, 1e6, allow_nan=False)),
    min_size=1, max_size=30,
))
def test_fuzzed_bounds(pairs):
    t = [p[0] for p in pairs]
    a = [p[1] for p in pairs]
    assert gmqe(t, a) >= 1.0 - 1e-12
    assert gmape(t, a) >= -1e-12
    assert mae(t, a) >= 0.0


def make_trace(schema, rows):
    """A trace of (arrival_ts, duration_ms, metrics, operators) rows, ids q0, q1, ..."""
    return trace_of_rows(schema, [(f"q{i}", arr, dur, m, o)
                                  for i, (arr, dur, m, o) in enumerate(rows)])


class TestReport:
    def test_self_comparison_is_perfect(self, schema):
        trace = make_trace(schema, [
            (10000, 40000, [6, 12], [1, 0, 2, 0]),
            (200000, 30000, [3, 4], [0, 1, 0, 1]),
        ])
        windows, intervals = build_targets(trace, 300000, 30000)
        rep = report(windows, intervals, trace, EPS_DEFAULT)
        for scores in rep.window_level.values():
            assert scores.mae == 0.0
            assert scores.gmqe == pytest.approx(1.0)
        for scores in rep.interval_level.values():
            assert scores.gmape == pytest.approx(0.0, abs=1e-12)

    def test_levels_cover_schema(self, schema):
        trace = make_trace(schema, [(0, 10000, [1, 2], [1, 1, 0, 0])])
        windows, intervals = build_targets(trace, 300000, 30000)
        rep = report(windows, intervals, trace, EPS_DEFAULT)
        assert set(rep.window_level) == set(schema.dimensions)
        assert set(rep.interval_level) == set(schema.metrics)

    def test_replay_overhang_scored_on_target_grid(self, schema):
        # replayed mass outside the target span is clipped, not an error
        trace = make_trace(schema, [(0, 10000, [1, 2], [1, 1, 0, 0])])
        windows, intervals = build_targets(trace, 300000, 30000)
        longer = make_trace(schema, [(0, 10000, [1, 2], [1, 1, 0, 0]),
                                     (400000, 10000, [1, 2], [0, 0, 0, 0])])
        rep = report(windows, intervals, longer, EPS_DEFAULT)
        assert rep.window_level["cpu_time_ms"].mae == pytest.approx(0.0)

    def test_rows_and_files(self, schema, tmp_path):
        trace = make_trace(schema, [(0, 10000, [1, 2], [1, 1, 0, 0])])
        windows, intervals = build_targets(trace, 300000, 30000)
        rep = report(windows, intervals, trace, EPS_DEFAULT)
        rows = rep.rows()
        assert all(len(r) == 5 for r in rows)
        # one (mae, gmape, gmqe) triple per dimension per level
        assert len(rows) == 3 * (len(schema.dimensions) + len(schema.metrics))
        write_report(rep, tmp_path / "scores.csv", tmp_path / "plot.csv")
        header = (tmp_path / "scores.csv").read_text().splitlines()[0]
        assert header == "level,dimension,metric,value,n"
        assert (tmp_path / "plot.csv").read_text().startswith("ts,dimension,")

    def test_plot_data_covers_intervals_and_windows(self, schema):
        trace = make_trace(schema, [(0, 10000, [1, 2], [1, 1, 0, 0])])
        windows, intervals = build_targets(trace, 300000, 30000)
        rep = report(windows, intervals, trace, EPS_DEFAULT)
        dims = {d for _, d, _, _ in rep.plot_data}
        assert dims == set(schema.dimensions)
        n_metric_rows = sum(1 for _, d, _, _ in rep.plot_data if d in schema.metrics)
        assert n_metric_rows == len(intervals) * len(schema.metrics)
