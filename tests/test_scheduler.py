import logging

import numpy as np
import pytest

from conftest import make_catalog
from wlsynth.errors import ValidationError
from wlsynth.features import PerformanceFeature
from wlsynth.scheduler import (
    IntervalGrid,
    SAConfig,
    Schedule,
    ScheduleEntry,
    assign_timestamps,
    energy,
    estimate_interval_features,
    random_schedule,
    read_schedule,
    simulate_processor_sharing,
    write_schedule,
)
from wlsynth.selector import SelectionPlan
from wlsynth.trace import IntervalTarget


def interval_targets(values, interval_len_ms=30000, intervals_per_window=10):
    """values: 2-D array, one row per interval."""
    out = []
    for k, row in enumerate(np.atleast_2d(np.asarray(values, dtype=float))):
        out.append(
            IntervalTarget(
                window_index=k // intervals_per_window,
                interval_index=k % intervals_per_window,
                interval_start_ts=k * interval_len_ms,
                metrics=row,
            )
        )
    return out


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

    def test_metric_deposit_follows_progress(self):
        # staggered hand case above; A carries metric 10
        grid = IntervalGrid(start_ts=0, interval_len_ms=500, n_intervals=4)
        completions, bins = simulate_processor_sharing(
            np.array([0.0, 500.0]), np.array([1000.0, 1000.0]), cores=1,
            metrics=np.array([[10.0], [0.0]]), grid=grid,
        )
        # A progresses 500 in bin 0, then 250 per bin for bins 1 and 2
        np.testing.assert_allclose(bins[:, 0], [5.0, 2.5, 2.5, 0.0], atol=1e-9)

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

    def test_nonuniform_rejected(self):
        targets = interval_targets(np.zeros((3, 1)))
        targets[2].interval_start_ts += 7
        with pytest.raises(ValidationError):
            IntervalGrid.from_targets(targets)


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
        schedule = random_schedule(plans, targets, rng_seed=4)
        assert len(schedule) == 5
        for e in schedule.entries:
            assert 0 <= e.start_ts < 300000
            assert e.start_ts % 1000 == 0

    def test_seed_reproducible(self, schema):
        catalog, targets, plans = planted_setup(schema)
        a = random_schedule(plans, targets, rng_seed=4)
        b = random_schedule(plans, targets, rng_seed=4)
        assert a.entries == b.entries

    def test_unknown_window_rejected(self, schema):
        catalog, targets, _ = planted_setup(schema)
        with pytest.raises(ValidationError):
            random_schedule([SelectionPlan(5, {"c1": 1}, np.zeros(6), 0.0)],
                            targets, rng_seed=0)


class TestEnergy:
    def test_zero_for_perfect_schedule(self, schema):
        catalog, _, plans = planted_setup(schema)
        schedule = Schedule([ScheduleEntry(0, "c1", 0, 0)])
        est = estimate_interval_features(
            schedule, catalog, 30000,
            cores=8, grid=IntervalGrid(0, 30000, 10),
        )
        targets = interval_targets([t.metrics for t in est])
        assert energy(schedule, targets, catalog, cores=8) == pytest.approx(0.0)

    def test_matches_manual_sum(self, schema):
        catalog, _, _ = planted_setup(schema)
        schedule = Schedule([ScheduleEntry(0, "c1", 0, 0)])
        # c1: work 30000 alone -> all mass in interval 0
        targets = interval_targets(np.zeros((10, 2)))
        got = energy(schedule, targets, catalog, cores=8, denom_floor=1.0)
        assert got == pytest.approx(60.0 + 10.0)


class TestAnnealing:
    def make_instance(self, schema):
        catalog, _, plans = planted_setup(schema)
        planted = Schedule([
            ScheduleEntry(0, "c1", 0, 0),
            ScheduleEntry(0, "c1", 1, 150000),
            ScheduleEntry(0, "c2", 0, 60000),
            ScheduleEntry(0, "c2", 1, 210000),
            ScheduleEntry(0, "c2", 2, 270000),
        ])
        est = estimate_interval_features(
            planted, catalog, 30000, cores=8, grid=IntervalGrid(0, 30000, 10)
        )
        targets = interval_targets([t.metrics for t in est])
        return catalog, targets, plans

    def test_improves_on_initial(self, schema):
        catalog, targets, plans = self.make_instance(schema)
        result = assign_timestamps(plans, targets, catalog, rng_seed=3, cores=8)
        assert result.best_energy <= result.initial_energy

    def test_best_trace_non_increasing(self, schema):
        catalog, targets, plans = self.make_instance(schema)
        result = assign_timestamps(plans, targets, catalog, rng_seed=3, cores=8)
        trace = result.best_energy_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_best_energy_consistent_with_schedule(self, schema):
        catalog, targets, plans = self.make_instance(schema)
        result = assign_timestamps(plans, targets, catalog, rng_seed=3, cores=8)
        assert energy(result.schedule, targets, catalog, 8) == pytest.approx(
            result.best_energy)

    def test_deterministic(self, schema):
        catalog, targets, plans = self.make_instance(schema)
        a = assign_timestamps(plans, targets, catalog, rng_seed=7, cores=8)
        b = assign_timestamps(plans, targets, catalog, rng_seed=7, cores=8)
        assert a.schedule.entries == b.schedule.entries
        assert a.best_energy == b.best_energy

    def test_initial_state_matches_random_baseline(self, schema):
        catalog, targets, plans = self.make_instance(schema)
        baseline = random_schedule(plans, targets, rng_seed=5)
        result = assign_timestamps(plans, targets, catalog, rng_seed=5, cores=8)
        assert result.initial_energy == pytest.approx(
            energy(baseline, targets, catalog, 8))

    def test_zero_temperature_is_hill_climbing(self, schema):
        catalog, targets, plans = self.make_instance(schema)
        config = SAConfig(v_max=0.0, v_min=0.0, max_steps=300)
        result = assign_timestamps(plans, targets, catalog, config,
                                   rng_seed=3, cores=8)
        assert result.best_energy <= result.initial_energy

    def test_stops_after_no_improvement(self, schema):
        catalog, targets, plans = self.make_instance(schema)
        config = SAConfig(no_improve_limit=10, max_steps=100000)
        result = assign_timestamps(plans, targets, catalog, config,
                                   rng_seed=3, cores=8)
        assert result.steps < 100000

    def test_empty_plans(self, schema):
        catalog, targets, _ = planted_setup(schema)
        result = assign_timestamps([], targets, catalog, rng_seed=0, cores=8)
        assert len(result.schedule) == 0


class TestOfferedLoad:
    # 10 x 30 s + 10 x 20 s of work over the 300 s grid: an offered load of 5/3
    PLANS = [SelectionPlan(0, {"c1": 10, "c2": 10}, np.zeros(6), 0.0)]

    def anneal(self, schema, cores):
        catalog, targets, _ = planted_setup(schema)
        return assign_timestamps(self.PLANS, targets, catalog, SAConfig(max_steps=30),
                                 rng_seed=3, cores=cores)

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
    schedule = Schedule([
        ScheduleEntry(0, "c1", 0, 1000),
        ScheduleEntry(1, "c2", 3, 301000),
    ])
    path = tmp_path / "s.csv"
    write_schedule(schedule, path)
    assert read_schedule(path).entries == schedule.entries
