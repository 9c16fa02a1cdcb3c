import hashlib
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import catalog_row, make_catalog, make_trace, write_bench_inputs
from test_selector import random_problem
from wlsynth import augmenter
from wlsynth.augmenter import (
    ACTION_CHANGE_DATABASE,
    ACTION_REWRITE,
    SCENARIO_BOTH_LOW_OR_HIGH,
    SCENARIO_HIGH_CPU_LOW_SB,
    SCENARIO_LOW_CPU_HIGH_SB,
    SCENARIO_LOW_CPU_LOW_SB,
    SCENARIO_RATIO_OFF,
    VERDICT_ACCEPTED,
    VERDICT_DATABASE_SWITCH,
    VERDICT_RETRY,
    HINT_SCENARIOS,
    GenerationTarget,
    HttpProvider,
    MockProvider,
    augment_catalog,
    bad_windows,
    build_prompt,
    classify_gap,
    generate_component,
    pick_database,
    retrieve_examples,
    switch_database,
    write_attempt_log,
    _cluster_targets,
    _gap_dimensions,
)
from wlsynth.catalog import DatabaseDescriptor, SimulatedExecutor, load_catalog
from wlsynth.config import Config, load_config
from wlsynth.errors import ProviderError, SolverError, ValidationError
from wlsynth.features import relative_gaps, row_groups
from wlsynth.selector import exceeds, finish_windows, relax_windows
from wlsynth.trace import WindowTargets, build_targets, ingest_trace


def feature(cpu, sb, ops=(0, 0, 0, 0)):
    return np.array([cpu, sb, *ops], float)


def annotated(cpu, sb, ops=(0, 0, 0, 0), duration=1000):
    names = ("filter_num", "aggregate_num", "join_num", "sort_num")
    parts = [f"duration_ms={duration}", f"cpu_time_ms={cpu}", f"scanned_bytes={sb}"]
    parts += [f"{n}={v}" for n, v in zip(names, ops)]
    return "SELECT 1 /* profile: " + "; ".join(parts) + "; */"


def target_for(cpu, sb, ops=(0, 0, 0, 0)):
    return GenerationTarget("t0", feature(cpu, sb, ops), (0,), 1)


def log_digest(report, path):
    """sha256 of the attempt log `write_attempt_log` writes for one report."""
    write_attempt_log([report], path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cluster(queries, k, seed):
    """_cluster_targets on (feature, source window) pairs."""
    matrix = np.array([f for f, _ in queries])
    return _cluster_targets(matrix, [w for _, w in queries], k, seed)


class TestClustering:
    def test_separated_clusters_recovered(self):
        rng = np.random.default_rng(1)
        low = [(feature(10 + rng.normal(0, 0.1), 5), 0) for _ in range(20)]
        high = [(feature(100 + rng.normal(0, 0.1), 50, (2, 0, 0, 0)), 1)
                for _ in range(20)]
        targets = cluster(low + high, k=2, seed=0)
        assert len(targets) == 2
        cpus = sorted(t.feature[0] for t in targets)
        assert cpus[0] == pytest.approx(10, abs=0.5)
        assert cpus[1] == pytest.approx(100, abs=0.5)
        assert {t.weight for t in targets} == {20}

    def test_fewer_distinct_points_than_k(self):
        queries = [(feature(5, 5), 0), (feature(5, 5), 1)]
        targets = cluster(queries, k=3, seed=0)
        assert len(targets) == 1
        assert targets[0].source_windows == (0, 1)
        assert targets[0].weight == 2

    def test_centroids_clamped_nonnegative(self):
        queries = [(feature(0, 0), 0), (feature(1, 1), 0)]
        targets = cluster(queries, k=1, seed=0)
        assert np.all(targets[0].feature >= 0)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        queries = [(feature(*rng.uniform(0, 50, 2)), int(rng.integers(0, 3)))
                   for _ in range(30)]
        a = cluster(queries, k=3, seed=4)
        b = cluster(queries, k=3, seed=4)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.feature, tb.feature)

    def test_empty_queries(self):
        assert _cluster_targets(np.empty((0, 6)), [], k=3, seed=0) == []


# a few values, so that rows repeat, -0.0 beside 0.0, and any finite float
_CELLS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5]),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(_CELLS, min_size=d, max_size=d), min_size=1, max_size=30)))
@example([[0.0, 1.0], [-0.0, 1.0], [2.5, 0.0], [0.0, 1.0]])
def test_row_groups_are_the_rows_np_unique_keeps(rows):
    """The distinct-row count `_cluster_targets` takes from `row_groups` is
    np.unique's, and each row's group is its row of np.unique's result."""
    matrix = np.array(rows)
    distinct = np.unique(matrix, axis=0)
    groups = row_groups(matrix)
    assert int(groups.max()) + 1 == len(distinct)
    assert (distinct[groups] == matrix).all()


class TestExamples:
    def make_cat(self, schema):
        return make_catalog(schema, [
            ("near1", 1000, [10, 10, 0, 0, 0, 0]),
            ("near2", 1000, [12, 11, 0, 0, 0, 0]),
            ("mid", 1000, [40, 40, 1, 1, 0, 0]),
            ("far1", 1000, [90, 95, 3, 2, 2, 2]),
            ("far2", 1000, [100, 100, 4, 2, 2, 2]),
        ])

    def test_nearest_and_farthest(self, schema):
        catalog = self.make_cat(schema)
        examples = retrieve_examples(target_for(11, 10), catalog, 2)
        assert [catalog.ids[j] for j, _ in examples.positives] == ["near1", "near2"]
        assert {catalog.ids[j] for j, _ in examples.negatives} == {"far1", "far2"}

    def test_sides_disjoint(self, schema):
        catalog = self.make_cat(schema)
        examples = retrieve_examples(target_for(11, 10), catalog, 3)
        pos = {catalog.ids[j] for j, _ in examples.positives}
        neg = {catalog.ids[j] for j, _ in examples.negatives}
        assert not pos & neg

    def test_pick_database_majority(self, schema):
        catalog = make_catalog(schema, [
            ("a", 1000, [10, 10, 0, 0, 0, 0]),
            ("b", 1000, [11, 10, 0, 0, 0, 0]),
            ("c", 1000, [12, 10, 0, 0, 0, 0]),
        ], benchmark=["tpcds", "tpch", "tpch"], scale_factor=[2.0, 1.0, 1.0])
        examples = retrieve_examples(target_for(11, 10), catalog, 3)
        assert pick_database(examples, catalog).benchmark_name == "tpch"


class TestPrompt:
    def test_deterministic_and_sectioned(self, schema):
        catalog = TestExamples().make_cat(schema)
        target = target_for(11, 10)
        examples = retrieve_examples(target, catalog, 2)
        db = pick_database(examples, catalog)
        a = build_prompt(target, examples, catalog, db)
        b = build_prompt(target, examples, catalog, db)
        assert a == b
        for section in ("DATABASE:", "TARGET FEATURE:", "POSITIVE EXAMPLES",
                        "NEGATIVE EXAMPLES", "Return only the SQL query."):
            assert section in a
        assert "HINTS" not in a

    def test_hints_appended(self, schema):
        catalog = TestExamples().make_cat(schema)
        target = target_for(11, 10)
        examples = retrieve_examples(target, catalog, 2)
        prompt = build_prompt(target, examples, catalog, pick_database(examples, catalog),
                              hints=("scan more data",))
        assert "HINTS:" in prompt and "scan more data" in prompt


class TestClassifyGap:
    @pytest.mark.parametrize("cpu,sb,expected", [
        (100, 100, None),
        (108, 96, None),                                # both in range, ratio close
        (40, 40, SCENARIO_BOTH_LOW_OR_HIGH),            # both far low
        (180, 190, SCENARIO_BOTH_LOW_OR_HIGH),          # both far high
        (160, 50, SCENARIO_HIGH_CPU_LOW_SB),
        (160, 100, SCENARIO_HIGH_CPU_LOW_SB),           # cpu high, sb in range
        (40, 160, SCENARIO_LOW_CPU_HIGH_SB),
        (100, 160, SCENARIO_LOW_CPU_HIGH_SB),           # cpu in range, sb high
        (40, 100, SCENARIO_LOW_CPU_LOW_SB),             # cpu low, sb in range
        (100, 40, SCENARIO_LOW_CPU_LOW_SB),             # sb low, cpu in range
        (112, 90, SCENARIO_RATIO_OFF),                  # both in range, ratio off
    ])
    def test_sign_table(self, schema, cpu, sb, expected):
        goal, achieved = feature(100, 100), feature(cpu, sb)
        scenario = classify_gap(relative_gaps(achieved, goal, 1e-9), goal, achieved,
                                _gap_dimensions(schema, Config()),
                                Config()["augment.accept_threshold"])
        if expected is None:
            assert scenario is None
        else:
            assert scenario.scenario_id == expected

    def test_actions(self):
        assert HINT_SCENARIOS[SCENARIO_LOW_CPU_LOW_SB].action == ACTION_REWRITE
        assert HINT_SCENARIOS[SCENARIO_BOTH_LOW_OR_HIGH].action == ACTION_CHANGE_DATABASE
        assert HINT_SCENARIOS[SCENARIO_RATIO_OFF].action == ACTION_CHANGE_DATABASE
        for sid in (SCENARIO_LOW_CPU_LOW_SB, SCENARIO_HIGH_CPU_LOW_SB,
                    SCENARIO_LOW_CPU_HIGH_SB, SCENARIO_BOTH_LOW_OR_HIGH,
                    SCENARIO_RATIO_OFF):
            assert HINT_SCENARIOS[sid].hint_texts


class TestSwitchDatabase:
    """The direction comes from the gaps: the sign of CPU's for the scale
    factor, CPU's against SB's for the skewness."""

    def switch(self, schema, db, scenario_id, cpu_gap, sb_gap):
        return switch_database(db, HINT_SCENARIOS[scenario_id], feature(cpu_gap, sb_gap),
                               _gap_dimensions(schema, Config()))

    def test_scale_doubles_when_low(self, schema):
        db = DatabaseDescriptor("tpch", 2.0, 1)
        out = self.switch(schema, db, SCENARIO_BOTH_LOW_OR_HIGH, -0.5, -0.5)
        assert out.scale_factor == 4.0 and out.skewness == 1

    def test_scale_halves_when_high(self, schema):
        db = DatabaseDescriptor("tpch", 2.0, 1)
        out = self.switch(schema, db, SCENARIO_BOTH_LOW_OR_HIGH, 0.5, 0.5)
        assert out.scale_factor == 1.0

    def test_skew_steps_and_clamps(self, schema):
        db = DatabaseDescriptor("tpch", 1.0, 4)
        out = self.switch(schema, db, SCENARIO_RATIO_OFF, 0.05, 0.15)
        assert out.skewness == 4  # clamped at the top
        out = self.switch(schema, db, SCENARIO_RATIO_OFF, 0.15, 0.05)
        assert out.skewness == 3


class TestGenerateComponent:
    def make_cat(self, schema):
        return TestExamples().make_cat(schema)

    def test_immediate_accept(self, schema):
        provider = MockProvider(lambda prompt, calls: annotated(50, 60))
        report = generate_component(
            target_for(50, 60), self.make_cat(schema), provider,
            SimulatedExecutor(schema), Config(), component_id="aug-000",
        )
        assert report.accepted
        assert report.component.ids == ["aug-000"]
        assert report.component.origin == ["augmented"]
        np.testing.assert_allclose(report.component.features[0, :2], [50, 60])
        assert [a.verdict for a in report.attempts] == [VERDICT_ACCEPTED]

    def test_retry_adds_hints(self, schema, tmp_path):
        responses = [annotated(10, 60), annotated(50, 60)]
        provider = MockProvider(lambda prompt, calls: responses[calls])
        report = generate_component(
            target_for(50, 60), self.make_cat(schema), provider,
            SimulatedExecutor(schema), Config(),
        )
        assert [a.verdict for a in report.attempts] == [VERDICT_RETRY, VERDICT_ACCEPTED]
        assert report.attempts[0].scenario_id == SCENARIO_LOW_CPU_LOW_SB
        first_hint = HINT_SCENARIOS[SCENARIO_LOW_CPU_LOW_SB].hint_texts[0]
        assert first_hint not in report.attempts[0].prompt
        assert first_hint in report.attempts[1].prompt
        # deltas, scenarios, verdicts and prompt digests, byte for byte
        assert log_digest(report, tmp_path / "attempts.jsonl") == (
            "730722c4b6c88b47c3dd729f6e3ead84850bbf0395bbf036b4a056f348e7fcc1")

    def test_exhaustion_returns_failure(self, schema):
        provider = MockProvider(lambda prompt, calls: annotated(10, 60))
        config = Config({"augment.max_attempts": "3"})
        report = generate_component(
            target_for(50, 60), self.make_cat(schema), provider,
            SimulatedExecutor(schema), config,
        )
        assert not report.accepted
        assert len(report.attempts) == 3
        assert report.database_switches == 0

    def test_database_switch_path(self, schema, tmp_path):
        # executor caps both metrics below the target at scale factor 1;
        # doubling the scale factor lifts the cap and the echo then lands
        provider = MockProvider(lambda prompt, calls: annotated(100, 100))
        executor = SimulatedExecutor(
            schema, metric_caps_per_sf={"cpu_time_ms": 60.0, "scanned_bytes": 60.0}
        )
        config = Config({"augment.max_attempts": "2", "augment.max_db_switches": "2"})
        report = generate_component(
            target_for(100, 100), self.make_cat(schema), provider, executor, config,
        )
        assert report.accepted
        assert report.database_switches == 1
        assert report.component.scale_factor.tolist() == [2.0]
        verdicts = [a.verdict for a in report.attempts]
        assert verdicts == [VERDICT_RETRY, VERDICT_DATABASE_SWITCH, VERDICT_ACCEPTED]
        assert report.attempts[1].scenario_id == SCENARIO_BOTH_LOW_OR_HIGH
        assert log_digest(report, tmp_path / "attempts.jsonl") == (
            "4dd5d1484ee32744bf28eb10036a8277b4610c0c852840f43eadabd2d59d1410")

    @pytest.mark.parametrize("field", ["cpu_dimension", "sb_dimension"])
    def test_dimension_checked_before_provider(self, schema, field):
        provider = MockProvider(lambda prompt, calls: annotated(50, 60))
        with pytest.raises(ValidationError, match=f"config key 'augment.{field}':"):
            generate_component(
                target_for(50, 60), self.make_cat(schema), provider,
                SimulatedExecutor(schema), Config({f"augment.{field}": "cpu_ms"}),
            )
        assert provider.calls == 0

    def test_unprofilable_response_retries(self, schema):
        responses = ["SELECT broken", annotated(50, 60)]
        provider = MockProvider(lambda prompt, calls: responses[calls])
        report = generate_component(
            target_for(50, 60), self.make_cat(schema), provider,
            SimulatedExecutor(schema), Config(),
        )
        assert report.accepted
        assert report.attempts[0].verdict == VERDICT_RETRY
        assert report.attempts[0].profiled is None

    def test_zero_duration_profile_retries(self, schema):
        responses = [annotated(50, 60, duration=0), annotated(50, 60)]
        provider = MockProvider(lambda prompt, calls: responses[calls])
        report = generate_component(
            target_for(50, 60), self.make_cat(schema), provider,
            SimulatedExecutor(schema), Config(),
        )
        assert [(a.verdict, a.profiled is None) for a in report.attempts] == [
            (VERDICT_RETRY, True), (VERDICT_ACCEPTED, False)]
        assert report.component.duration_ms.tolist() == [1000.0]

    @pytest.mark.parametrize("duration", ["nan", "inf", "1e400"])
    def test_non_finite_duration_profile_retries(self, schema, duration):
        """A profile of no finite duration is retried, as one of zero is: it
        never reaches the catalog, whose saved CSV would not load."""
        responses = [annotated(50, 60, duration=duration), annotated(50, 60)]
        provider = MockProvider(lambda prompt, calls: responses[calls])
        report = generate_component(
            target_for(50, 60), self.make_cat(schema), provider,
            SimulatedExecutor(schema), Config(),
        )
        assert [(a.verdict, a.profiled is None) for a in report.attempts] == [
            (VERDICT_RETRY, True), (VERDICT_ACCEPTED, False)]
        assert report.component.duration_ms.tolist() == [1000.0]

    @pytest.mark.parametrize("first", [
        annotated(-50, 60),                   # a negative metric
        annotated("nan", 60),                 # a NaN metric
        annotated(50, 60, ops=(-1, 0, 0, 0)),  # a negative operator
        annotated("inf", 60),                 # an infinite metric
        annotated(1e308, 60),                 # finite, but its three-run mean is not
    ])
    def test_unfit_feature_profile_retries(self, schema, first):
        """An answer whose profile no feature may hold is retried, as one of
        no finite duration is: the executor rejects an annotated value that
        is not finite and nonnegative, and the component a mean that is not."""
        responses = [first, annotated(50, 60)]
        provider = MockProvider(lambda prompt, calls: responses[calls])
        with np.errstate(over="ignore"):
            report = generate_component(
                target_for(50, 60), self.make_cat(schema), provider,
                SimulatedExecutor(schema), Config(),
            )
        assert [(a.verdict, a.profiled is None) for a in report.attempts] == [
            (VERDICT_RETRY, True), (VERDICT_ACCEPTED, False)]

    def test_unexpected_error_propagates(self, schema, monkeypatch):
        """Only the package's errors mark an answer unfit: any other is a
        fault of the program, raised rather than logged and retried."""
        def broken(*args):
            raise TypeError("broken profiler")

        monkeypatch.setattr(augmenter, "profile_query", broken)
        provider = MockProvider(lambda prompt, calls: annotated(50, 60))
        with pytest.raises(TypeError, match="broken profiler"):
            generate_component(target_for(50, 60), self.make_cat(schema), provider,
                               SimulatedExecutor(schema), Config())
        assert provider.calls == 1

    @pytest.mark.parametrize("duration", [0, -5])
    def test_accepted_component_needs_positive_duration(self, schema, duration):
        # the profiled duration comes from the provider's text; a profile
        # within the threshold but of no positive duration is retried
        provider = MockProvider(lambda prompt, calls: annotated(50, 60, duration=duration))
        report = generate_component(
            target_for(50, 60), self.make_cat(schema), provider,
            SimulatedExecutor(schema), Config(),
        )
        assert report.component is None
        assert len(report.attempts) == Config()["augment.max_attempts"]
        assert all(a.verdict == VERDICT_RETRY and a.profiled is None for a in report.attempts)


class TestAugmentCatalog:
    def make_inputs(self, schema):
        catalog = TestExamples().make_cat(schema)
        windows = WindowTargets(0, 300000, np.array([feature(500, 500), feature(20, 20)]),
                                np.array([2, 1]))
        # window 0's optimum is 1.816 (four near2), window 1's is 0.0
        relaxation = relax_windows(windows, catalog, Config())
        trace = make_trace(schema, [
            ("q1", 10000, 60000, [260.0, 240.0], np.zeros(4)),
            ("q2", 40000, 60000, [240.0, 260.0], np.zeros(4)),
            ("q3", 320000, 60000, [20.0, 20.0], np.zeros(4)),
        ])
        return trace, relaxation, windows, catalog

    def test_bad_windows_thresholded(self, schema):
        _, relaxation, _, _ = self.make_inputs(schema)
        assert bad_windows(*relaxation, 0.2) == [0]

    @pytest.mark.parametrize("seed", [3, 29, 101])
    def test_bad_windows_are_the_plans_over_the_threshold(self, schema, seed):
        """On seeded random windows over one catalog, bad_windows of their
        relaxation is, at every threshold, the windows whose finished plan's
        objective exceeds it: thresholds at each plan's objective, within 1e-6
        and 0.05 of it, and a few fixed ones.  Windows where the MIP hits the
        node limit (an approximate plan) are left out."""
        rng = np.random.default_rng(seed)
        drawn = [random_problem(rng, n_components=5, n_dims=6) for _ in range(6)]
        catalog = make_catalog(schema, [(cid, duration, features) for cid, duration, features
                                        in zip(drawn[0].component_ids, drawn[0].durations,
                                               drawn[0].features)])
        windows = WindowTargets(0, int(drawn[0].duration_budget_ms),
                                np.array([p.target for p in drawn]), np.ones(6, dtype=int))
        cfg = Config({"y": "3", "z": "8", "cores": "1"})
        problems, roots = relax_windows(windows, catalog, cfg)
        plans = finish_windows(problems, roots)
        kept = [w for w, plan in enumerate(plans) if not plan.approximate]
        assert len(kept) >= 4
        objectives = [plans[w].objective_value for w in kept]
        thresholds = {0.0, 0.2, 1.0, *(value + delta for value in objectives
                                       for delta in (-0.05, -1e-6, 0.0, 1e-6, 0.05))}
        for threshold in sorted(thresholds):
            assert bad_windows([problems[w] for w in kept], [roots[w] for w in kept],
                               threshold) == [plans[w].window_index for w in kept
                                              if plans[w].objective_value > threshold]

    def test_accepted_components_are_appended(self, schema):
        trace, relaxation, windows, catalog = self.make_inputs(schema)
        provider = MockProvider(lambda prompt, calls: annotated(250, 250))
        augmented, reports = augment_catalog(
            trace, bad_windows(*relaxation, 0.2), windows, catalog, provider,
            SimulatedExecutor(schema), Config({"augment.k": "1"}), seed=0,
        )
        assert len(catalog) == 5  # input untouched
        assert len(augmented) == 6
        assert reports[0].accepted
        new = catalog_row(augmented, "aug-000")
        assert augmented.origin[new] == "augmented"
        # only queries from the bad window feed the clustering
        np.testing.assert_allclose(augmented.features[new, :schema.n_metrics], [250, 250],
                                   atol=15)

    def test_zero_duration_answers_fail_only_their_target(self, schema):
        """A target whose every answer profiles at zero duration fails alone:
        the component accepted for the target before it is kept."""
        trace, relaxation, windows, catalog = self.make_inputs(schema)
        provider = MockProvider(
            lambda prompt, calls: annotated(250, 250, duration=0 if calls else 1000))
        augmented, reports = augment_catalog(
            trace, bad_windows(*relaxation, 0.2), windows, catalog, provider,
            SimulatedExecutor(schema), Config({"augment.k": "2"}), seed=0,
        )
        assert [report.accepted for report in reports] == [True, False]
        assert augmented.ids == catalog.ids + ["aug-000"]

    def test_zero_clusters_rejected(self, schema):
        trace, relaxation, windows, catalog = self.make_inputs(schema)
        provider = MockProvider(lambda prompt, calls: annotated(250, 250))
        cfg = Config()
        cfg.values["augment.k"] = 0  # past the table's rule: the stage checks k too
        with pytest.raises(ValidationError, match="k must be >= 1"):
            augment_catalog(trace, bad_windows(*relaxation, 0.2), windows, catalog, provider,
                            SimulatedExecutor(schema), cfg, seed=0)
        assert provider.calls == 0

    def test_no_bad_windows_is_a_no_op(self, schema):
        trace, relaxation, windows, catalog = self.make_inputs(schema)
        bad = bad_windows(*relaxation, 2.0)
        assert bad == []
        provider = MockProvider(lambda prompt, calls: annotated(1, 1))
        augmented, reports = augment_catalog(
            trace, bad, windows, catalog, provider,
            SimulatedExecutor(schema), Config(), seed=0)
        assert augmented is catalog
        assert reports == []
        assert provider.calls == 0

    def test_attempt_log_is_jsonl(self, schema, tmp_path):
        trace, relaxation, windows, catalog = self.make_inputs(schema)
        provider = MockProvider(lambda prompt, calls: annotated(250, 250))
        _, reports = augment_catalog(
            trace, bad_windows(*relaxation, 0.2), windows, catalog, provider,
            SimulatedExecutor(schema), Config({"augment.k": "1"}), seed=0,
        )
        path = tmp_path / "attempts.jsonl"
        write_attempt_log(reports, path)
        lines = path.read_text().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert {"target_id", "attempt_index", "prompt_sha256",
                    "scenario", "deltas", "verdict"} <= set(record)


class TestBadWindowsPool:
    """bad_windows runs its windows through `selector.map_windows`, as
    finish_windows does: on the benchmark's select_gap inputs."""

    @pytest.fixture
    def relaxation(self, tmp_path, monkeypatch):
        _, inputs = write_bench_inputs(tmp_path, monkeypatch, "select_gap")
        cfg = load_config(inputs / "config.txt")
        trace = ingest_trace(inputs / "trace.csv", cfg.schema(), cfg["mode"])
        windows, _ = build_targets(trace, cfg["window_ms"], cfg["interval_ms"])
        catalog = load_catalog(inputs / "catalog.csv", cfg.schema())
        return relax_windows(windows, catalog, cfg), cfg["augment.bad_window_threshold"]

    def test_threads_give_the_serial_bad_windows(self, relaxation):
        (problems, roots), threshold = relaxation
        serial = bad_windows(problems, roots, threshold)
        assert len(serial) == 5  # of 6 windows
        assert bad_windows(problems, roots, threshold, jobs=2) == serial

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_solver_error_names_its_window(self, relaxation, monkeypatch, jobs):
        (problems, roots), threshold = relaxation

        def failing(problem, root, threshold):
            if problem.window_index == 1:
                raise SolverError("infeasible")
            return exceeds(problem, root, threshold)

        monkeypatch.setattr(augmenter, "exceeds", failing)
        with pytest.raises(SolverError, match="^window 1: infeasible$"):
            bad_windows(problems, roots, threshold, jobs)


def _provider_reply(body: bytes):
    """`urllib.request.urlopen` stand-in that answers every request with `body`."""
    return mock.patch("urllib.request.urlopen", lambda request, timeout: io.BytesIO(body))


def test_http_provider_returns_the_completion():
    with _provider_reply(b'{"completion": "SELECT 1", "model": "m"}'):
        assert HttpProvider("http://localhost:1/complete", 1000).complete("p") == "SELECT 1"


@pytest.mark.parametrize("body", [
    b'"completion"', b"5", b'{"completion": null}', b'{"completion": 5}', b'{"text": "x"}',
    b"[]", b"not json",
])
def test_http_provider_rejects_a_body_without_a_string_completion(body):
    """Anything but a JSON object whose `completion` is a string is a
    ProviderError, which the stage reports as an exit-2 JSON line."""
    with _provider_reply(body), pytest.raises(ProviderError):
        HttpProvider("http://localhost:1/complete", 1000).complete("p")
