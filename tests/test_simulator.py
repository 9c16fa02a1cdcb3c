import logging

import numpy as np
import pytest

from conftest import make_catalog
from wlsynth.scheduler import IntervalGrid, Schedule, ScheduleEntry
from wlsynth.simulator import replay
from wlsynth.trace import build_targets


@pytest.fixture
def catalog(schema):
    return make_catalog(schema, [
        ("c1", 30000, [60, 10, 1, 0, 0, 0]),
        ("c2", 20000, [20, 40, 0, 1, 1, 0]),
    ])


class TestReplay:
    def test_offered_load_above_cores_warns_once(self, schema, catalog, caplog):
        # 4 x 30 s of work over a 60 s grid: an offered load of 2
        schedule = Schedule([ScheduleEntry(0, "c1", k, 0) for k in range(4)])
        grid = IntervalGrid(start_ts=0, interval_len_ms=30000, n_intervals=2)
        with caplog.at_level(logging.WARNING, logger="wlsynth"):
            quiet = replay(schedule, catalog, cores=1)
            assert not caplog.records
            replay(schedule, catalog, cores=2, grid=grid)
            assert not caplog.records
            warned = replay(schedule, catalog, cores=1, grid=grid)
        assert [r.getMessage() for r in caplog.records] == [
            "offered load 2 exceeds cores = 1: the processor-sharing backlog grows "
            "across the horizon"
        ]
        assert [(r.arrival_ts, r.duration_ms) for r in warned.records] == \
            [(r.arrival_ts, r.duration_ms) for r in quiet.records]

    def test_uncontended_durations_match_profile(self, schema, catalog):
        schedule = Schedule([
            ScheduleEntry(0, "c1", 0, 0),
            ScheduleEntry(0, "c2", 0, 100000),
        ])
        trace = replay(schedule, catalog, cores=8)
        by_id = {r.query_id: r for r in trace.records}
        assert by_id["c1.w0.k0"].duration_ms == 30000
        assert by_id["c2.w0.k0"].duration_ms == 20000

    def test_contention_stretches_durations(self, schema, catalog):
        schedule = Schedule([ScheduleEntry(0, "c1", k, 0) for k in range(4)])
        trace = replay(schedule, catalog, cores=2)
        # 4 equal instances on 2 cores progress at rate 1/2
        for r in trace.records:
            assert r.duration_ms == 60000

    def test_durations_never_below_profile(self, schema, catalog):
        rng = np.random.default_rng(2)
        schedule = Schedule([
            ScheduleEntry(0, "c1", k, int(rng.integers(0, 200000))) for k in range(6)
        ] + [
            ScheduleEntry(0, "c2", k, int(rng.integers(0, 200000))) for k in range(6)
        ])
        trace = replay(schedule, catalog, cores=3)
        for r in trace.records:
            profiled = catalog.get(r.query_id.split(".")[0]).duration_ms
            assert r.duration_ms >= profiled

    def test_ids_unique_and_features_copied(self, schema, catalog):
        schedule = Schedule([
            ScheduleEntry(0, "c1", 0, 0),
            ScheduleEntry(0, "c1", 1, 5000),
            ScheduleEntry(1, "c1", 0, 300000),
        ])
        trace = replay(schedule, catalog, cores=8)
        ids = [r.query_id for r in trace.records]
        assert len(set(ids)) == 3
        for r in trace.records:
            comp = catalog.get("c1")
            np.testing.assert_array_equal(r.metrics, comp.feature.metrics)
            np.testing.assert_array_equal(r.operators, comp.feature.operators)

    def test_arrivals_are_schedule_starts(self, schema, catalog):
        schedule = Schedule([ScheduleEntry(0, "c2", 0, 42000)])
        trace = replay(schedule, catalog, cores=8)
        assert trace.records[0].arrival_ts == 42000

    def test_empty_schedule(self, schema, catalog):
        trace = replay(Schedule([]), catalog, cores=8)
        assert trace.records == []

    def test_window_operator_sums_recoverable(self, schema, catalog):
        # instances fully inside their windows: window operator sums are exact
        schedule = Schedule([
            ScheduleEntry(0, "c1", 0, 10000),
            ScheduleEntry(0, "c2", 0, 50000),
            ScheduleEntry(1, "c2", 0, 310000),
            ScheduleEntry(1, "c2", 1, 350000),
        ])
        trace = replay(schedule, catalog, cores=8)
        windows, _ = build_targets(trace, 300000, 30000, span=(0, 600000))
        np.testing.assert_array_equal(windows[0].feature.operators, [1, 1, 1, 0])
        np.testing.assert_array_equal(windows[1].feature.operators, [0, 2, 2, 0])
