import csv
import json
import logging
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_catalog, make_schedule, make_trace, rows_of, write_bench_inputs
from wlsynth.catalog import load_catalog
from wlsynth.cli import main
from wlsynth.config import Config, load_config
from wlsynth.errors import SchemaError, TraceParseError, ValidationError
from wlsynth.features import MODE_COUNTS
from wlsynth.scheduler import (
    SCHEDULE_COLUMNS,
    IntervalGrid,
    assign_timestamps,
    energy,
    expand,
    random_schedule,
    read_schedule,
    simulate_processor_sharing,
    write_schedule,
)
from wlsynth import scheduler as scheduler_module
from wlsynth import trace as trace_module
from wlsynth.selector import SelectionPlan
from wlsynth.simulator import replay
from wlsynth.trace import (
    IntervalTargets,
    build_targets,
    ingest_trace,
    read_targets,
    write_targets,
)


def interval_targets(values, interval_len_ms=30000, intervals_per_window=10):
    """values: 2-D array, one row per interval."""
    metrics = np.atleast_2d(np.asarray(values, dtype=float))
    return IntervalTargets(IntervalGrid(0, interval_len_ms, len(metrics)), intervals_per_window,
                           metrics)


class TestProcessorSharing:
    def test_single_instance_runs_at_full_rate(self):
        completions, _ = simulate_processor_sharing(
            np.array([0.0]), np.array([1000.0]), cores=4
        )
        assert completions[0] == pytest.approx(1000.0)

    def test_two_instances_share_one_core(self):
        completions, _ = simulate_processor_sharing(
            np.array([0.0, 0.0]), np.array([1000.0, 1000.0]), cores=1
        )
        np.testing.assert_allclose(completions, [2000.0, 2000.0])

    def test_staggered_arrival_hand_case(self):
        # A: [0, work 1000], B: [500, work 1000], one core.
        # A runs alone for 500, then both at rate 1/2; A finishes at 1500
        # with B at 500 done; B then runs alone and finishes at 2000.
        completions, _ = simulate_processor_sharing(
            np.array([0.0, 500.0]), np.array([1000.0, 1000.0]), cores=1
        )
        np.testing.assert_allclose(completions, [1500.0, 2000.0])

    def test_capacity_not_binding_below_cores(self):
        starts = np.zeros(4)
        works = np.array([100.0, 200.0, 300.0, 400.0])
        completions, _ = simulate_processor_sharing(starts, works, cores=8)
        np.testing.assert_allclose(completions, works)

    def test_metric_mass_spreads_over_replayed_span(self):
        # staggered hand case above; A carries metric 10
        grid = IntervalGrid(start_ts=0, interval_len_ms=500, n_intervals=4)
        completions, bins = simulate_processor_sharing(
            np.array([0.0, 500.0]), np.array([1000.0, 1000.0]), cores=1,
            metrics=np.array([[10.0], [0.0]]), grid=grid,
        )
        # A's replayed span is [0, 1500): its mass spreads evenly over three bins
        np.testing.assert_allclose(bins[:, 0], [10 / 3, 10 / 3, 10 / 3, 0.0], atol=1e-9)

    def test_work_conservation(self):
        rng = np.random.default_rng(9)
        starts = rng.uniform(0, 5000, size=10)
        works = rng.uniform(100, 3000, size=10)
        metrics = rng.uniform(1, 50, size=(10, 2))
        grid = IntervalGrid(start_ts=0, interval_len_ms=1000, n_intervals=40)
        completions, bins = simulate_processor_sharing(
            starts, works, cores=3, metrics=metrics, grid=grid
        )
        assert np.max(completions) < grid.end_ts
        np.testing.assert_allclose(bins.sum(axis=0), metrics.sum(axis=0), rtol=1e-9)

    def test_zero_work_completes_at_start(self):
        completions, _ = simulate_processor_sharing(
            np.array([123.0]), np.array([0.0]), cores=1
        )
        assert completions[0] == 123.0

    def test_grid_required_for_metrics(self):
        with pytest.raises(ValidationError):
            simulate_processor_sharing(np.zeros(1), np.ones(1), 1,
                                       metrics=np.ones((1, 1)))


class TestGrid:
    def test_from_targets(self):
        grid = IntervalGrid.from_targets(interval_targets(np.zeros((6, 1))))
        assert grid.start_ts == 0
        assert grid.interval_len_ms == 30000
        assert grid.n_intervals == 6

    def test_single_interval_keeps_its_length(self, schema, tmp_path):
        """A lone interval is as long as its window, also after a CSV round trip."""
        trace = make_trace(schema, [("q", 1000, 5000, [1.0, 2.0], np.zeros(4))])
        windows, intervals = build_targets(trace, 900000, 900000)
        paths = tmp_path / "windows.csv", tmp_path / "intervals.csv"
        write_targets(windows, intervals, *paths, schema)
        for targets in (intervals, read_targets(*paths, schema)[1]):
            assert IntervalGrid.from_targets(targets) == IntervalGrid(1000, 900000, 1)

    def test_spread_clips_segments_to_the_grid(self):
        """A segment that starts before the grid, one inside it, one that
        ends past it, a zero-duration one and two outside it: column j of
        the sums is row j's share of each interval."""
        grid = IntervalGrid(start_ts=0, interval_len_ms=10, n_intervals=3)
        sums = grid.spread(np.array([-5, 12, 25, 10, -20, 30]), np.array([8, 9, 15, 0, 5, 4]),
                           np.eye(6))
        assert sums.tolist() == [[3 / 8, 0, 0, 0, 0, 0],
                                 [0, 8 / 9, 0, 1, 0, 0],
                                 [0, 1 / 9, 5 / 15, 0, 0, 0]]


def planted_setup(schema):
    catalog = make_catalog(schema, [
        ("c1", 30000, [60, 10, 1, 0, 0, 0]),
        ("c2", 20000, [20, 40, 0, 1, 1, 0]),
    ])
    targets = interval_targets(np.zeros((10, 2)))
    plans = [SelectionPlan(0, {"c1": 2, "c2": 3}, np.zeros(6), 0.0)]
    return catalog, targets, plans


class TestRandomSchedule:
    def test_stays_inside_window_on_granularity(self, schema):
        catalog, targets, plans = planted_setup(schema)
        schedule = random_schedule(plans, targets, Config(), rng_seed=4)
        assert len(schedule) == 5
        for start in schedule.start_ts.tolist():
            assert 0 <= start < 300000
            assert start % 1000 == 0

    def test_seed_reproducible(self, schema):
        catalog, targets, plans = planted_setup(schema)
        a = random_schedule(plans, targets, Config(), rng_seed=4)
        b = random_schedule(plans, targets, Config(), rng_seed=4)
        assert rows_of(a, *SCHEDULE_COLUMNS) == rows_of(b, *SCHEDULE_COLUMNS)

    def test_unknown_window_rejected(self, schema):
        catalog, targets, _ = planted_setup(schema)
        with pytest.raises(ValidationError):
            random_schedule([SelectionPlan(5, {"c1": 1}, np.zeros(6), 0.0)],
                            targets, Config(), rng_seed=0)


def simulated_bins(schedule, catalog):
    """A schedule's per-interval metric sums at 8 cores on the ten 30 s
    intervals of window 0."""
    starts, works, features = expand(schedule, catalog)
    _, bins = simulate_processor_sharing(starts, works, 8,
                                         features[:, :catalog.schema.n_metrics],
                                         IntervalGrid(0, 30000, 10))
    return bins


class TestEnergy:
    def test_zero_for_perfect_schedule(self, schema):
        catalog, _, plans = planted_setup(schema)
        schedule = make_schedule([(0, "c1", 0, 0)])
        targets = interval_targets(simulated_bins(schedule, catalog))
        assert energy(schedule, targets, catalog, Config()) == pytest.approx(0.0)

    def test_matches_manual_sum(self, schema):
        catalog, _, _ = planted_setup(schema)
        schedule = make_schedule([(0, "c1", 0, 0)])
        # c1: work 30000 alone -> all mass in interval 0
        targets = interval_targets(np.zeros((10, 2)))
        got = energy(schedule, targets, catalog, Config({"cores": "8", "denom_floor": "1.0"}))
        assert got == pytest.approx(60.0 + 10.0)


class TestAnnealing:
    def make_instance(self, schema):
        catalog, _, plans = planted_setup(schema)
        planted = make_schedule([
            (0, "c1", 0, 0),
            (0, "c1", 1, 150000),
            (0, "c2", 0, 60000),
            (0, "c2", 1, 210000),
            (0, "c2", 2, 270000),
        ])
        targets = interval_targets(simulated_bins(planted, catalog))
        return catalog, targets, plans

    def test_improves_on_initial(self, schema):
        catalog, targets, plans = self.make_instance(schema)
        result = assign_timestamps(plans, targets, catalog, Config(), rng_seed=3)
        assert result.best_energy <= result.initial_energy

    def test_best_trace_non_increasing(self, schema):
        catalog, targets, plans = self.make_instance(schema)
        result = assign_timestamps(plans, targets, catalog, Config(), rng_seed=3)
        trace = result.best_energy_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_best_energy_consistent_with_schedule(self, schema):
        catalog, targets, plans = self.make_instance(schema)
        result = assign_timestamps(plans, targets, catalog, Config(), rng_seed=3)
        assert energy(result.schedule, targets, catalog, Config()) == pytest.approx(
            result.best_energy)

    def test_deterministic(self, schema):
        catalog, targets, plans = self.make_instance(schema)
        a = assign_timestamps(plans, targets, catalog, Config(), rng_seed=7)
        b = assign_timestamps(plans, targets, catalog, Config(), rng_seed=7)
        assert rows_of(a.schedule, *SCHEDULE_COLUMNS) == rows_of(b.schedule, *SCHEDULE_COLUMNS)
        assert a.best_energy == b.best_energy

    def test_initial_state_matches_random_baseline(self, schema):
        catalog, targets, plans = self.make_instance(schema)
        baseline = random_schedule(plans, targets, Config(), rng_seed=5)
        result = assign_timestamps(plans, targets, catalog, Config(), rng_seed=5)
        assert result.initial_energy == pytest.approx(
            energy(baseline, targets, catalog, Config()))

    def test_stops_after_no_improvement(self, schema):
        catalog, targets, plans = self.make_instance(schema)
        config = Config({"sa.no_improve": "10", "sa.max_steps": "100000"})
        result = assign_timestamps(plans, targets, catalog, config, rng_seed=3)
        assert result.steps < 100000

    def test_empty_plans(self, schema):
        """No instance: the reported energies are the empty schedule's, as
        `energy` scores it, not zero."""
        catalog, _, _ = planted_setup(schema)
        targets = interval_targets(np.full((10, 2), 5.0))
        result = assign_timestamps([], targets, catalog, Config(), rng_seed=0)
        assert len(result.schedule) == 0
        assert result.best_energy == energy(result.schedule, targets, catalog, Config())
        assert result.initial_energy == result.best_energy
        assert result.best_energy_trace == [result.best_energy]

    @pytest.mark.parametrize("cores", [1, 2])
    def test_best_energy_is_the_replayed_trace_error(self, schema, cores):
        """Under contention the best energy is the energy formula applied,
        exactly, to the intervals `evaluate` bins from the replayed trace."""
        catalog, _, _ = planted_setup(schema)
        planted = make_schedule([(0, "c1", k, 20000 * k) for k in range(5)]
                                + [(0, "c2", k, 10000 + 25000 * k) for k in range(6)])
        targets = interval_targets(simulated_bins(planted, catalog))
        plans = [SelectionPlan(0, {"c1": 5, "c2": 6}, np.zeros(6), 0.0)]
        result = assign_timestamps(plans, targets, catalog, Config({"cores": str(cores)}),
                                   rng_seed=3)
        _, replayed = build_targets(replay(result.schedule, catalog, cores, MODE_COUNTS),
                                    300000, 30000, span=(0, 300000))
        achieved = replayed.metrics
        target = targets.metrics
        assert result.best_energy == np.sum(np.abs(achieved - target)
                                            / np.maximum(target, 1.0))

    def test_confined_ranges_keep_every_visited_start_in_range(self, schema):
        """`_anneal` on ranges narrowed to one 30 s interval of the window:
        every start it scores, and every start of its result, lies on the
        range's granularity grid inside [lo, lo + span)."""
        catalog, targets, plans = self.make_instance(schema)
        cfg = Config({"sa.max_steps": "300", "sa.no_improve": "300"})
        rng = np.random.default_rng(3)
        schedule, _, _ = scheduler_module._initial_state(plans, targets, cfg, rng)
        lo = 30000 * np.array([0, 5, 2, 7, 9])
        span = np.full(len(schedule), 30000)
        schedule.start_ts = lo + 1000 * np.arange(len(schedule))
        _, score = scheduler_module._scorer(schedule, targets, catalog, cfg)
        visited = []

        def recording_score(starts):
            visited.append(starts.copy())
            return score(starts)

        result = scheduler_module._anneal(schedule, lo, span, recording_score, rng, cfg)
        assert result.steps >= 200
        assert len(visited) == 1 + 100 + result.steps  # initial, tuning moves, steps
        for starts in visited + [result.schedule.start_ts]:
            assert np.all((lo <= starts) & (starts < lo + span))
            assert np.all((starts - lo) % 1000 == 0)
        trace = result.best_energy_trace
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert energy(result.schedule, targets, catalog, cfg) == result.best_energy


class TestOfferedLoad:
    # 10 x 30 s + 10 x 20 s of work over the 300 s grid: an offered load of 5/3
    PLANS = [SelectionPlan(0, {"c1": 10, "c2": 10}, np.zeros(6), 0.0)]

    def anneal(self, schema, cores):
        catalog, targets, _ = planted_setup(schema)
        return assign_timestamps(self.PLANS, targets, catalog,
                                 Config({"sa.max_steps": "30", "cores": str(cores)}),
                                 rng_seed=3)

    def test_one_warning_names_load_and_cores(self, schema, caplog):
        with caplog.at_level(logging.WARNING, logger="wlsynth"):
            self.anneal(schema, cores=1)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "offered load 1.66667" in warnings[0]
        assert "cores = 1" in warnings[0]

    def test_no_warning_within_cores(self, schema, caplog):
        with caplog.at_level(logging.WARNING, logger="wlsynth"):
            self.anneal(schema, cores=2)
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]


def test_schedule_file_round_trip(tmp_path):
    schedule = make_schedule([
        (0, "c1", 0, 1000),
        (1, "c2", 3, 301000),
    ])
    path = tmp_path / "s.csv"
    write_schedule(schedule, path)
    assert rows_of(read_schedule(path), *SCHEDULE_COLUMNS) == rows_of(schedule, *SCHEDULE_COLUMNS)


def _scalar_random_schedule(plans, targets, rng_seed, granularity_ms):
    """The per-instance loop random_schedule replaced, kept as its oracle:
    one scalar rng.integers draw per instance, in plan order."""
    rng = np.random.default_rng(rng_seed)
    grid = targets.grid
    window_len = grid.interval_len_ms * targets.per_window
    entries = []
    for plan in plans:
        window_start = grid.start_ts + plan.window_index * window_len
        for component_id in sorted(plan.counts):
            for k in range(plan.counts[component_id]):
                slots = max(1, window_len // granularity_ms)
                offset = int(rng.integers(0, slots)) * granularity_ms
                entries.append((plan.window_index, component_id, k, window_start + offset))
    return entries, rng


@st.composite
def plan_cases(draw):
    # windows of 1-4 intervals; a 300 ms interval makes a window shorter
    # than the move granularity (one slot)
    interval = draw(st.sampled_from([300, 1000, 7000, 30000]))
    per_window, n_windows = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    targets = IntervalTargets(IntervalGrid(0, interval, n_windows * per_window), per_window,
                              np.zeros((n_windows * per_window, 1)))
    plans = [
        SelectionPlan(w, draw(st.dictionaries(st.sampled_from(["a", "b", "c10", "c2"]),
                                              st.integers(0, 6), max_size=4)),
                      np.zeros(1), 0.0)
        for w in draw(st.permutations(range(n_windows)))
    ]
    return plans, targets, draw(st.integers(0, 2 ** 32)), draw(st.sampled_from([1, 500, 1000,
                                                                                 4000]))


@settings(max_examples=100, deadline=None)
@given(plan_cases())
def test_array_draw_matches_scalar_draws(case):
    """random_schedule's one array draw yields the scalar loop's starts and
    leaves the generator where the loop left it."""
    plans, targets, seed, granularity = case
    expected, scalar_rng = _scalar_random_schedule(plans, targets, seed, granularity)
    cfg = Config({"sa.move_granularity_ms": str(granularity)})
    assert rows_of(random_schedule(plans, targets, cfg, seed), *SCHEDULE_COLUMNS) == expected

    rng = np.random.default_rng(seed)
    schedule, _, _ = scheduler_module._initial_state(plans, targets, cfg, rng)
    assert schedule.start_ts.tolist() == [start for *_, start in expected]
    assert rng.bit_generator.state == scalar_rng.bit_generator.state


def test_annealer_initial_state_is_random_schedule(schema):
    """With no steps the annealer returns its initial state, the random schedule."""
    catalog, targets, plans = planted_setup(schema)
    config = Config({"sa.move_granularity_ms": "7000"})
    config.values["sa.max_steps"] = 0  # past the table's rule, which rejects 0
    result = assign_timestamps(plans, targets, catalog, config, rng_seed=9)
    assert rows_of(result.schedule, *SCHEDULE_COLUMNS) == \
        rows_of(random_schedule(plans, targets, config, 9), *SCHEDULE_COLUMNS)


_ids = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
               max_size=5)
_ints = st.integers(-2 ** 62, 2 ** 62)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(_ints, _ids, _ints, _ints), max_size=20))
def test_schedule_csv_round_trip(tmp_path_factory, rows):
    """write_schedule then read_schedule gives back the same columns."""
    schedule = make_schedule(rows)
    path = tmp_path_factory.getbasetemp() / "schedule.csv"
    write_schedule(schedule, path)
    back = read_schedule(path)
    for name in SCHEDULE_COLUMNS:
        np.testing.assert_array_equal(getattr(back, name), getattr(schedule, name))
        assert getattr(back, name).dtype == getattr(schedule, name).dtype
    assert rows_of(back, *SCHEDULE_COLUMNS) == rows_of(schedule, *SCHEDULE_COLUMNS)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-2 ** 63, 2 ** 63 - 1),
                               st.text(st.characters(blacklist_categories=("Cs",)), max_size=5),
                               st.integers(-2 ** 63, 2 ** 63 - 1),
                               st.integers(-2 ** 63, 2 ** 63 - 1)), max_size=20),
       block=st.integers(1, 6))
@example(rows=[(0, 'c,"1"', -1, 2 ** 63 - 1), (-2 ** 63, "c\r\n", 9999, 10000)], block=1)
def test_schedule_csv_bytes(tmp_path_factory, rows, block):
    """write_schedule writes what a plain csv.writer writes for the columns,
    whatever the block size."""
    schedule = make_schedule(rows)
    out = tmp_path_factory.getbasetemp()
    with mock.patch.object(trace_module, "_CSV_BLOCK", block):
        write_schedule(schedule, out / "new.csv")
    with open(out / "old.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCHEDULE_COLUMNS)
        writer.writerows(zip(*(getattr(schedule, name).tolist() for name in SCHEDULE_COLUMNS)))
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


@pytest.mark.parametrize("body, error, message", [
    ("0,c1,0,1000\n0,c1,1,12.5\n", ValidationError,
     "row 3, column 'start_ts': non-integral value 12.5"),
    ("0,c1,0\n", TraceParseError, "row 2, column 'start_ts': missing value"),
    ("0,c1,x,1000\n", TraceParseError, "row 2, column 'instance_index': cannot parse 'x'"),
    ("0\n", TraceParseError, "row 2, column 'component_id': missing value"),
    ("inf,c1,0,1000\n", TraceParseError, "row 2, column 'window_index': non-finite"),
    ("0,c1,0,1000\n0,c1,1,9223372036854775808\n", ValidationError,
     "row 3, column 'start_ts': '9223372036854775808' is out of range"),
    # float() reads these two as 1.0 and -2**63
    ("0,c1,0,1000\n0,c1,1,1.0000000000000001\n", ValidationError,
     "row 3, column 'start_ts': non-integral value 1.0000000000000001"),
    ("0,c1,0,1000\n0,c1,1,-9223372036854775809.0\n", ValidationError,
     "row 3, column 'start_ts': '-9223372036854775809.0' is out of range"),
    # Schedule.component_id, a numpy str array, would read it as 'c1'
    ("0,c1,0,1000\n0,c1\x00,1,1000\n", ValidationError,
     r"row 3, column 'component_id': 'c1\\x00' ends in a NUL character"),
])
def test_malformed_schedule_rows_are_typed(tmp_path, body, error, message):
    path = tmp_path / "schedule.csv"
    path.write_text("window_index,component_id,instance_index,start_ts\n" + body)
    with pytest.raises(error, match=message):
        read_schedule(path)


@pytest.mark.parametrize("cell, start_ts", [
    ("9007199254740993.0", 2 ** 53 + 1), ("9223372036854775807.0", 2 ** 63 - 1),
    ("-9223372036854775808.0", -2 ** 63), ("1e3", 1000),
])
def test_integral_number_cells_read_exactly(tmp_path, cell, start_ts):
    """An int cell written as a number reads as its exact value, not as
    float()'s rounding of it."""
    path = tmp_path / "schedule.csv"
    path.write_text(f"window_index,component_id,instance_index,start_ts\n0,c1,0,{cell}\n")
    assert read_schedule(path).start_ts.tolist() == [start_ts]


def test_schedule_missing_column_is_typed(tmp_path):
    path = tmp_path / "schedule.csv"
    path.write_text("window_index,component_id,start_ts\n0,c1,1000\n")
    with pytest.raises(SchemaError, match="'instance_index'"):
        read_schedule(path)


def _standalone_schedule(tmp_path):
    """Run the demo up to `schedule` into tmp_path/out; return the argv of a
    later stage and the lines of the schedule file."""
    out = tmp_path / "out"
    assert main(["demo", "--out", str(tmp_path)]) == 0
    base = ["--config", str(tmp_path / "demo_config.txt"), "--out", str(out),
            "--catalog", str(tmp_path / "demo_catalog.csv")]
    assert main(["ingest", "--trace", str(tmp_path / "demo_trace.csv")] + base[:4]) == 0
    assert main(["targets"] + base[:4]) == 0
    assert main(["select"] + base) == 0
    assert main(["schedule", "--skip-ta"] + base) == 0
    return base, (out / "schedule/schedule.csv").read_text().splitlines()


def test_standalone_replay_rejects_fractional_start(tmp_path, capsys):
    base, lines = _standalone_schedule(tmp_path)
    lines[2] = lines[2].rsplit(",", 1)[0] + ",12.5"
    (tmp_path / "out/schedule/schedule.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay"] + base) == 2
    error = capsys.readouterr().err.strip().splitlines()[-1]
    assert error == ('{"stage": "replay", "error": "ValidationError", "message": '
                     '"row 3, column \'start_ts\': non-integral value 12.5"}')


def test_standalone_replay_rejects_unknown_component(tmp_path, capsys):
    """The schedule's ids are looked up in the catalog's rows: one it lacks
    stops replay with a typed error naming it."""
    base, lines = _standalone_schedule(tmp_path)
    window, _, rest = lines[2].split(",", 2)
    lines[2] = f"{window},no-such-component,{rest}"
    (tmp_path / "out/schedule/schedule.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay"] + base) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error == {"stage": "replay", "error": "ValidationError",
                     "message": "unknown component_id 'no-such-component'"}
    assert not (tmp_path / "out/replay").exists()


def _reference_completions(starts, works, cores):
    """The per-event simulation loop, kept as the oracle of
    simulate_processor_sharing's completions: every event passes over the
    remaining work of every running instance."""
    n = len(starts)
    completions = np.zeros(n)
    if n == 0:
        return completions

    order = sorted(range(n), key=lambda j: (starts[j], j))
    remaining = {}
    t = float(starts[order[0]])
    nxt = 0
    while remaining or nxt < n:
        while nxt < n and starts[order[nxt]] <= t + 1e-12:
            j = order[nxt]
            if works[j] <= 0:
                completions[j] = starts[j]
            else:
                remaining[j] = float(works[j])
            nxt += 1
        if not remaining:
            if nxt < n:
                t = float(starts[order[nxt]])
            continue
        rate = min(1.0, cores / len(remaining))
        t_finish = t + min(remaining.values()) / rate
        t_arrive = float(starts[order[nxt]]) if nxt < n else math.inf
        t_new = min(t_finish, t_arrive)
        dt = t_new - t
        if dt > 0:
            done = []
            for j in list(remaining):
                remaining[j] -= rate * dt
                if remaining[j] <= 1e-9 * max(1.0, works[j]):
                    done.append(j)
            for j in done:
                completions[j] = t_new
                del remaining[j]
        t = t_new
    return completions


def _reference_bins(starts, works, completions, metrics, grid):
    """A per-instance loop that spreads each instance's metrics evenly over
    its replayed span, kept as the oracle of the interval bins."""
    bins = np.zeros((grid.n_intervals, metrics.shape[1]))
    for j in range(len(starts)):
        length = max(math.ceil(completions[j] - starts[j]), math.ceil(works[j]), 1)
        lo = max(starts[j], grid.start_ts)
        hi = min(starts[j] + length, grid.end_ts)
        if hi <= lo:
            continue
        first = int((lo - grid.start_ts) // grid.interval_len_ms)
        last = int((hi - grid.start_ts) // grid.interval_len_ms)
        last = min(last, grid.n_intervals - 1)
        for k in range(first, last + 1):
            bin_a = grid.start_ts + k * grid.interval_len_ms
            overlap = min(hi, bin_a + grid.interval_len_ms) - max(lo, bin_a)
            if overlap > 0:
                bins[k] += metrics[j] * (overlap / length)
    return bins


def assert_completions_near_reference(completions, starts, works, cores):
    """Completions within what two correct simulations may disagree by.

    Both count an instance done once at most 1e-9 * max(1, w) of its work is
    left, which the slowest rate, cores / n, stretches to that much times
    n / cores in time; rtol covers the rounding of clocks that accumulate
    service in another order.  Measured: at most 1.0e-6 ms (a third of this
    bound) over 20,000 ps_cases schedules, 2.1e-9 ms on the several-blocks
    schedule and 1.7e-7 ms on 4,000 instances at offered load 36 on 4 cores.
    """
    atol = 1e-9 * max(1.0, float(np.max(works, initial=0))) * max(1.0, len(works) / cores)
    np.testing.assert_allclose(completions, _reference_completions(starts, works, cores),
                               rtol=1e-12, atol=atol)


def _max_running(starts, works):
    """The most instances with work that run at once if none waits."""
    live = works > 0
    return max((int(np.sum(live & (starts <= s) & (s < starts + works))) for s in starts),
               default=0)


@st.composite
def ps_cases(draw):
    # starts on and off the ms grid, zero works, and a grid that may begin
    # after the first start and end before the last completion
    n = draw(st.integers(0, 12))
    n_metrics = draw(st.integers(1, 3))
    start = st.one_of(st.integers(-3000, 12000).map(float),
                      st.floats(-3000, 12000, allow_nan=False, allow_infinity=False))
    work = st.one_of(st.just(0.0), st.integers(1, 6000).map(float),
                     st.floats(1e-3, 6000, allow_nan=False, allow_infinity=False))
    value = st.floats(0, 1e9, allow_nan=False, allow_infinity=False)
    starts = np.array(draw(st.lists(start, min_size=n, max_size=n)))
    works = np.array(draw(st.lists(work, min_size=n, max_size=n)))
    metrics = np.array(draw(st.lists(st.lists(value, min_size=n_metrics, max_size=n_metrics),
                                     min_size=n, max_size=n))).reshape(n, n_metrics)
    grid = IntervalGrid(draw(st.integers(-2000, 3000)), draw(st.sampled_from([1, 7, 500, 3000])),
                        draw(st.integers(1, 12)))
    return starts, works, draw(st.integers(1, 4)), metrics, grid


# A and B share the core until C arrives at 15; C looks uncontended if A and B
# ended at 10, but joins their busy period.  D arrives after it drains.
_RESUME_CASE = (np.array([0.0, 0.0, 15.0, 100.0]), np.array([10.0, 10.0, 5.0, 5.0]), 1,
                np.ones((4, 1)), IntervalGrid(0, 7, 16))


@settings(max_examples=200, deadline=None)
@given(ps_cases())
@example(_RESUME_CASE)
def test_processor_sharing_matches_per_instance_reference(case):
    """Completions are near the per-event loop's, and interval bins equal the
    per-instance spreading of them bit for bit."""
    starts, works, cores, metrics, grid = case
    completions, bins = simulate_processor_sharing(starts, works, cores, metrics, grid)
    assert_completions_near_reference(completions, starts, works, cores)
    np.testing.assert_array_equal(bins, _reference_bins(starts, works, completions, metrics,
                                                        grid))


def test_processor_sharing_resumes_after_a_contended_period():
    starts, works, cores, _, _ = _RESUME_CASE
    completions, _ = simulate_processor_sharing(starts, works, cores)
    assert completions.tolist() == [22.5, 22.5, 25.0, 105.0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-3000, 12000), st.integers(0, 6000)), max_size=12))
def test_uncontended_completions_are_start_plus_work(rows):
    """With integer starts and works and never more instances running than
    cores, each instance completes at start + work, as in the per-event loop,
    bit for bit."""
    starts, works = np.array(rows, dtype=float).reshape(-1, 2).T
    cores = max(1, _max_running(starts, works))
    completions, _ = simulate_processor_sharing(starts, works, cores)
    np.testing.assert_array_equal(completions, starts + works)
    np.testing.assert_array_equal(completions, _reference_completions(starts, works, cores))


def test_processor_sharing_bins_span_several_blocks():
    """With a triple budget of one, of five (under the intervals one
    backlogged instance spans) and of a few chunks of rows, and a backlog
    that stretches instances over many intervals, bins still equal the
    reference's."""
    rng = np.random.default_rng(17)
    n = 519
    starts = rng.uniform(-5000, 300000, n)
    works = np.where(rng.random(n) < 0.05, 0.0, rng.uniform(1, 9000, n))
    metrics = rng.uniform(0, 1e6, (n, 2))
    grid = IntervalGrid(-2000, 7000, 50)
    completions, whole = simulate_processor_sharing(starts, works, 2, metrics, grid)
    assert_completions_near_reference(completions, starts, works, 2)
    reference = _reference_bins(starts, works, completions, metrics, grid)
    np.testing.assert_array_equal(whole, reference)
    durations = scheduler_module.replayed_durations(starts, completions, works)
    lo = np.maximum(starts, grid.start_ts) - grid.start_ts
    hi = np.minimum(starts + np.maximum(durations, 1), grid.end_ts) - grid.start_ts
    spans = np.ceil(hi / grid.interval_len_ms) - lo // grid.interval_len_ms
    assert spans[hi > lo].max() > 5
    for budget in (1, 5, 256):
        with mock.patch.object(trace_module, "_TRIPLES", budget):
            _, bins = simulate_processor_sharing(starts, works, 2, metrics, grid)
        np.testing.assert_array_equal(bins, reference)


def test_overloaded_backlog_simulates_in_seconds():
    """An hour of 5-60 s instances at offered load 36 on 4 cores: each event
    costs O(log n), not a pass over the whole backlog."""
    rng = np.random.default_rng(36)
    starts = rng.integers(0, 3600000, 4000).astype(float)
    works = rng.integers(5000, 60001, 4000).astype(float)
    assert 35 < works.sum() / 3600000 < 37
    started = time.perf_counter()
    completions, _ = simulate_processor_sharing(starts, works, 4)
    assert time.perf_counter() - started < 2.0
    assert np.all(completions >= starts + works)
    assert completions.max() >= starts.min() + works.sum() / 4


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e300, exclude_min=True),
                min_size=1, max_size=100))
@example([1.0, 2.0])
@example([0.1, 0.2, 0.7, 0.3])
def test_median_is_np_median(values):
    """The annealer's median uphill step is `np.median`'s, bit for bit."""
    assert scheduler_module._median(values) == np.median(values)


@pytest.mark.parametrize("seed", [1, 1009])
def test_planted_schedule_of_dense_trace_has_zero_energy(tmp_path, monkeypatch, seed):
    """The benchmark's dense_trace is written from a planted schedule that its
    catalog can express: query `cid.wW.kK` is instance K of component cid in
    window W, started at its arrival.  Replayed, that schedule meets every
    interval target exactly, so timestamp assignment has a floor of 0."""
    _, inputs = write_bench_inputs(tmp_path, monkeypatch, "dense_trace", seed)
    cfg = load_config(inputs / "config.txt")
    trace = ingest_trace(inputs / "trace.csv", cfg.schema(), cfg["mode"])
    _, intervals = build_targets(trace, cfg["window_ms"], cfg["interval_ms"])
    cid, window, instance = zip(*(query_id.split(".") for query_id in trace.query_id))
    planted = make_schedule(zip([int(w[1:]) for w in window], cid,
                                [int(k[1:]) for k in instance], trace.arrival_ts))
    catalog = load_catalog(inputs / "catalog.csv", cfg.schema())
    assert energy(planted, intervals, catalog, cfg) == 0.0
