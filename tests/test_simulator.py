import csv
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import catalog_row, make_catalog, make_schedule, rows_of
from wlsynth.features import MODE_COUNTS, FeatureSchema
from wlsynth.scheduler import SCHEDULE_COLUMNS, IntervalGrid, simulate_processor_sharing
from wlsynth.simulator import replay
from wlsynth.trace import build_targets, export_trace


@pytest.fixture
def catalog(schema):
    return make_catalog(schema, [
        ("c1", 30000, [60, 10, 1, 0, 0, 0]),
        ("c2", 20000, [20, 40, 0, 1, 1, 0]),
    ])


class TestReplay:
    def test_offered_load_above_cores_warns_once(self, schema, catalog, caplog):
        # 4 x 30 s of work over a 60 s grid: an offered load of 2
        schedule = make_schedule([(0, "c1", k, 0) for k in range(4)])
        grid = IntervalGrid(start_ts=0, interval_len_ms=30000, n_intervals=2)
        with caplog.at_level(logging.WARNING, logger="wlsynth"):
            quiet = replay(schedule, catalog, cores=1, mode=MODE_COUNTS)
            assert not caplog.records
            replay(schedule, catalog, cores=2, mode=MODE_COUNTS, grid=grid)
            assert not caplog.records
            warned = replay(schedule, catalog, cores=1, mode=MODE_COUNTS, grid=grid)
        assert [r.getMessage() for r in caplog.records] == [
            "offered load 2 exceeds cores = 1: the processor-sharing backlog grows "
            "across the horizon"
        ]
        assert rows_of(warned, "arrival_ts", "duration_ms") == \
            rows_of(quiet, "arrival_ts", "duration_ms")

    def test_uncontended_durations_match_profile(self, schema, catalog):
        schedule = make_schedule([
            (0, "c1", 0, 0),
            (0, "c2", 0, 100000),
        ])
        trace = replay(schedule, catalog, cores=8, mode=MODE_COUNTS)
        by_id = dict(rows_of(trace, "query_id", "duration_ms"))
        assert by_id["c1.w0.k0"] == 30000
        assert by_id["c2.w0.k0"] == 20000

    def test_contention_stretches_durations(self, schema, catalog):
        schedule = make_schedule([(0, "c1", k, 0) for k in range(4)])
        trace = replay(schedule, catalog, cores=2, mode=MODE_COUNTS)
        # 4 equal instances on 2 cores progress at rate 1/2
        for duration in trace.duration_ms.tolist():
            assert duration == 60000

    def test_durations_never_below_profile(self, schema, catalog):
        rng = np.random.default_rng(2)
        schedule = make_schedule([
            (0, "c1", k, int(rng.integers(0, 200000))) for k in range(6)
        ] + [
            (0, "c2", k, int(rng.integers(0, 200000))) for k in range(6)
        ])
        trace = replay(schedule, catalog, cores=3, mode=MODE_COUNTS)
        for query_id, duration in rows_of(trace, "query_id", "duration_ms"):
            profiled = catalog.duration_ms[catalog_row(catalog, query_id.split(".")[0])]
            assert duration >= profiled

    def test_ids_unique_and_features_copied(self, schema, catalog):
        schedule = make_schedule([
            (0, "c1", 0, 0),
            (0, "c1", 1, 5000),
            (1, "c1", 0, 300000),
        ])
        trace = replay(schedule, catalog, cores=8, mode=MODE_COUNTS)
        assert len(set(trace.query_id)) == 3
        m, c1 = schema.n_metrics, catalog_row(catalog, "c1")
        for metrics, operators in rows_of(trace, "metrics", "operators"):
            np.testing.assert_array_equal(metrics, catalog.features[c1, :m])
            np.testing.assert_array_equal(operators, catalog.features[c1, m:])

    def test_arrivals_are_schedule_starts(self, schema, catalog):
        schedule = make_schedule([(0, "c2", 0, 42000)])
        trace = replay(schedule, catalog, cores=8, mode=MODE_COUNTS)
        assert trace.arrival_ts[0] == 42000

    def test_empty_schedule(self, schema, catalog):
        trace = replay(make_schedule([]), catalog, cores=8, mode=MODE_COUNTS)
        assert rows_of(trace, "query_id") == []

    def test_window_operator_sums_recoverable(self, schema, catalog):
        # instances fully inside their windows: window operator sums are exact
        schedule = make_schedule([
            (0, "c1", 0, 10000),
            (0, "c2", 0, 50000),
            (1, "c2", 0, 310000),
            (1, "c2", 1, 350000),
        ])
        trace = replay(schedule, catalog, cores=8, mode=MODE_COUNTS)
        windows, _ = build_targets(trace, 300000, 30000, span=(0, 600000))
        operators = windows.features[:, schema.n_metrics:]
        np.testing.assert_array_equal(operators[0], [1, 1, 1, 0])
        np.testing.assert_array_equal(operators[1], [0, 2, 2, 0])


def _reference_replay(schedule, catalog, cores):
    """The per-instance loop replay replaced, kept as its oracle: the rows of
    the replayed trace.csv."""
    entries = rows_of(schedule, *SCHEDULE_COLUMNS)
    rows = [catalog.ids.index(component_id) for _, component_id, _, _ in entries]
    starts = np.array([start for *_, start in entries], dtype=float)
    works = catalog.duration_ms[rows]
    completions, _ = simulate_processor_sharing(starts, works, cores)

    def cell(value):
        return str(int(value)) if float(value).is_integer() else repr(float(value))

    return [
        [f"{component_id}.w{w}.k{k}", int(start),
         max(math.ceil(completion - start), math.ceil(works[i])),
         *map(cell, catalog.features[rows[i]])]
        for i, ((w, component_id, k, _), start, completion)
        in enumerate(zip(entries, starts, completions))
    ]


_REPLAY_SCHEMA = FeatureSchema(metrics=("m0", "m1"), operators=("o0",))


@settings(max_examples=100, deadline=None)
@given(
    # profiled durations are means of executor runs, so rarely integral
    durations=st.lists(st.floats(0.25, 90000), min_size=1, max_size=4),
    zero_work=st.booleans(),
    features=st.lists(st.one_of(st.integers(0, 50).map(float), st.floats(0, 1e6)),
                      min_size=12, max_size=12),
    rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 200000)),
                  max_size=25),
    cores=st.sampled_from([1, 2, 8]),
)
@example(durations=[1000.5], zero_work=False, features=[1.5] * 12, rows=[], cores=1)
def test_replay_matches_per_instance_loop(tmp_path_factory, durations, zero_work, features,
                                          rows, cores):
    """replay's vectorised durations and its trace.csv bytes equal the old loop's."""
    catalog = make_catalog(_REPLAY_SCHEMA, [
        (f"c{j}", duration, features[3 * j:3 * j + 3]) for j, duration in enumerate(durations)
    ])
    if zero_work:
        # past the constructor's check: a component that takes no time
        catalog.duration_ms[0] = 0.0
    schedule = make_schedule([(w, f"c{c % len(durations)}", k, start)
                              for k, (c, w, start) in enumerate(rows)])
    expected = _reference_replay(schedule, catalog, cores)

    trace = replay(schedule, catalog, cores, MODE_COUNTS)
    assert trace.duration_ms.tolist() == [row[2] for row in expected]
    assert trace.arrival_ts.tolist() == [row[1] for row in expected]
    assert trace.query_id == [row[0] for row in expected]

    out = tmp_path_factory.getbasetemp()
    export_trace(trace, out / "new.csv")
    with open(out / "old.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "arrival_ts", "duration_ms", "m0", "m1", "o0"])
        writer.writerows(expected)
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()
