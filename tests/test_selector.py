import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from conftest import SOLVER_KNOBS, make_catalog, random_catalog
from selection_oracle import count_vector, enumerate_optimum
from wlsynth import highs, selector
from wlsynth.config import Config
from wlsynth.errors import SchemaError, SolverError, TraceParseError, ValidationError
from wlsynth.features import FeatureSchema
from wlsynth.selector import (
    ONE_TO_MANY,
    ONE_TO_ONE,
    SelectionPlan,
    SelectionProblem,
    build_problem,
    match_query,
    read_plans,
    solve_all_windows,
    solve_window,
    write_plans,
)
from wlsynth.trace import WindowTargets


_PLAN_HEADER = "window_index,component_id,count\n"


def random_problem(rng, n_components=4, n_dims=3, y=3, z=8):
    features = rng.integers(0, 10, size=(n_components, n_dims)).astype(float)
    durations = rng.integers(1000, 20000, size=n_components).astype(float)
    target = rng.integers(0, 25, size=n_dims).astype(float)
    return SelectionProblem(
        target=target,
        features=features,
        durations=durations,
        component_ids=[f"c{j}" for j in range(n_components)],
        y=y,
        z=z,
        duration_budget_ms=float(durations.sum() * z),
        **SOLVER_KNOBS,
    )


@pytest.fixture
def highs_calls(monkeypatch):
    """(is_mip, options) of every `highs.solve` call selector makes during the test."""
    calls = []
    solve = highs.solve

    def recording_solve(c, matrix, rows, cols, integrality, options):
        # integrality is read now: solve_window reuses the array for its MIP call
        calls.append((bool(integrality.any()), options))
        return solve(c, matrix, rows, cols, integrality, options)

    monkeypatch.setattr(highs, "solve", recording_solve)
    return calls


class TestSolveWindow:
    def test_exact_hit(self):
        problem = SelectionProblem(
            target=np.array([10.0, 6.0]),
            features=np.array([[5.0, 3.0], [2.0, 1.0]]),
            durations=np.array([1000.0, 1000.0]),
            component_ids=["a", "b"],
            y=5, z=10, duration_budget_ms=1e9,
            **SOLVER_KNOBS,
        )
        plan = solve_window(problem)
        assert plan.objective_value == pytest.approx(0.0, abs=1e-9)
        assert plan.counts == {"a": 2}
        np.testing.assert_allclose(plan.achieved, [10.0, 6.0])

    def test_matches_enumeration(self, highs_calls):
        rng = np.random.default_rng(11)
        solves = 0
        for n_components, y, z, n_problems in [(4, 3, 8, 30), (6, 2, 8, 6),
                                               (7, 2, 10, 6), (8, 2, 12, 6)]:
            for _ in range(n_problems):
                problem = random_problem(rng, n_components=n_components, y=y, z=z)
                plan = solve_window(problem)
                solves += 1
                best, _ = enumerate_optimum(problem)
                assert not plan.approximate
                assert plan.objective_value == pytest.approx(best, abs=1e-9)
                # reported achieved/objective must be self-consistent
                counts = count_vector(plan, problem.component_ids)
                assert problem.objective(counts) == pytest.approx(plan.objective_value)
        # both the integral-LP-root shortcut and the MIP solve were exercised
        is_mip = [mip for mip, _ in highs_calls]  # MIP (True) or LP relaxation (False)
        assert 0 < is_mip.count(True) < solves

    def test_repetition_cap(self):
        problem = SelectionProblem(
            target=np.array([100.0]),
            features=np.array([[1.0]]),
            durations=np.array([1000.0]),
            component_ids=["a"],
            y=3, z=50, duration_budget_ms=1e9,
            **SOLVER_KNOBS,
        )
        plan = solve_window(problem)
        assert plan.counts == {"a": 3}

    def test_total_cap(self):
        problem = SelectionProblem(
            target=np.array([100.0]),
            features=np.array([[1.0], [1.0]]),
            durations=np.array([1000.0, 1000.0]),
            component_ids=["a", "b"],
            y=10, z=4, duration_budget_ms=1e9,
            **SOLVER_KNOBS,
        )
        plan = solve_window(problem)
        assert plan.total_count() == 4

    def test_duration_budget(self):
        problem = SelectionProblem(
            target=np.array([10.0]),
            features=np.array([[1.0]]),
            durations=np.array([1000.0]),
            component_ids=["a"],
            y=10, z=10, duration_budget_ms=3000.0,
            **SOLVER_KNOBS,
        )
        plan = solve_window(problem)
        assert plan.counts.get("a", 0) <= 3

    def test_duplicate_components_lex_tie_break(self):
        # two identical components: counts must sit on the later id so the
        # count vector is lexicographically smallest
        problem = SelectionProblem(
            target=np.array([4.0]),
            features=np.array([[2.0], [2.0]]),
            durations=np.array([1000.0, 1000.0]),
            component_ids=["a", "b"],
            y=5, z=5, duration_budget_ms=1e9,
            **SOLVER_KNOBS,
        )
        plan = solve_window(problem)
        assert plan.counts == {"b": 2}

    @staticmethod
    def branching_problem():
        # seed chosen so that HiGHS cannot close this instance at its root node
        rng = np.random.default_rng(172)
        problem = random_problem(rng, n_components=6, n_dims=5, y=3, z=20)
        problem.duration_budget_ms = float(problem.durations.sum())
        return problem

    def test_node_budget_marks_approximate(self):
        problem = self.branching_problem()
        problem.node_limit = 1
        plan = solve_window(problem)
        assert plan.approximate
        # the incumbent is still feasible
        counts = count_vector(plan, problem.component_ids)
        assert counts.max() <= problem.y
        assert counts.sum() <= problem.z
        assert problem.durations @ counts <= problem.duration_budget_ms

    def test_default_budget_solves_branching_problem_exactly(self):
        problem = self.branching_problem()
        plan = solve_window(problem)
        best, _ = enumerate_optimum(problem)
        assert not plan.approximate
        assert plan.objective_value == pytest.approx(best, abs=1e-9)

    def test_heuristics_off_keeps_highs_default_optimum(self, monkeypatch, highs_calls):
        """The MIP options change how fast HiGHS closes the gap, never the plan."""
        rng = np.random.default_rng(2025)
        problems = []
        for i in range(24):
            problem = random_problem(rng, n_components=int(rng.integers(10, 16)), n_dims=5,
                                     y=int(rng.integers(3, 11)), z=int(rng.integers(16, 60)))
            if i % 2:  # a tight duration budget
                problem.duration_budget_ms = float(problem.durations.sum()) / 2
            problems.append(problem)
        tuned = [solve_window(p) for p in problems]
        assert sum(is_mip for is_mip, _ in highs_calls) >= len(problems) // 2
        monkeypatch.setattr(selector, "_MIP_OPTIONS", {})
        default = [solve_window(p) for p in problems]
        for a, b in zip(tuned, default):
            assert a.counts == b.counts
            assert a.objective_value == b.objective_value
            assert a.approximate == b.approximate

    def test_highs_accepts_every_mip_option(self, monkeypatch, highs_calls):
        # highs.solve raises SolverError for an option name HiGHS rejects
        solve_window(self.branching_problem())
        mip_options = [options for is_mip, options in highs_calls if is_mip]
        assert len(mip_options) == 1
        assert selector._MIP_OPTIONS.items() <= mip_options[0].items()
        monkeypatch.setitem(selector._MIP_OPTIONS, "mip_heuristic_run_unknown", False)
        with pytest.raises(SolverError, match="mip_heuristic_run_unknown"):
            solve_window(self.branching_problem())

    def test_repeated_solves_identical(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            problem = random_problem(rng, n_components=8, n_dims=4, y=5, z=20)
            first, second = solve_window(problem), solve_window(problem)
            assert first.counts == second.counts
            assert first.objective_value == second.objective_value

    def test_zero_target_uses_floor(self):
        problem = SelectionProblem(
            target=np.array([0.0, 5.0]),
            features=np.array([[1.0, 5.0]]),
            durations=np.array([1000.0]),
            component_ids=["a"],
            y=3, z=3, duration_budget_ms=1e9,
            **dict(SOLVER_KNOBS, denom_floor=1.0),
        )
        plan = solve_window(problem)
        # picking one instance costs 1/1 on the zero dim but saves 5/5 on the other
        best, _ = enumerate_optimum(problem)
        assert plan.objective_value == pytest.approx(best, abs=1e-9)


class TestWindowsAndIO:
    def make_targets(self, schema):
        return WindowTargets(0, 300000, np.array([[10.0, 4.0, 2.0, 1.0, 0.0, 0.0],
                                                  [3.0, 8.0, 0.0, 2.0, 2.0, 0.0]]),
                             np.array([2, 2]))

    def test_solve_all_windows_and_round_trip(self, schema, tmp_path):
        catalog = make_catalog(schema, [
            ("c1", 20000, [5, 2, 1, 0, 0, 0]),
            ("c2", 15000, [0, 1, 0, 1, 0, 0]),
            ("c3", 25000, [1.5, 4, 0, 1, 1, 0]),
        ])
        targets = self.make_targets(schema)
        plans = solve_all_windows(targets, catalog, Config())
        assert [p.window_index for p in plans] == [0, 1]
        path = tmp_path / "plan.csv"
        write_plans(plans, path)
        back = read_plans(path, targets, catalog, Config())
        for a, b in zip(plans, back):
            assert a.counts == b.counts
            assert a.objective_value == pytest.approx(b.objective_value)
            np.testing.assert_allclose(a.achieved, b.achieved)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_solve_all_windows_names_failing_window(self, schema, monkeypatch, jobs):
        catalog = make_catalog(schema, [("c1", 20000, [5, 2, 1, 0, 0, 0])])
        targets = self.make_targets(schema)
        plans = solve_all_windows(targets, catalog, Config(), jobs)
        assert [p.window_index for p in plans] == [0, 1]

        def failing(problem, root=None):
            if problem.window_index == 1:
                raise SolverError("infeasible")
            return solve_window(problem, root)

        monkeypatch.setattr(selector, "solve_window", failing)
        with pytest.raises(SolverError, match="^window 1: infeasible$"):
            solve_all_windows(targets, catalog, Config(), jobs)

    def test_solve_all_windows_solves_every_relaxation_in_one_call(self, schema, highs_calls):
        catalog = random_catalog(schema, 6, np.random.default_rng(4))
        rng = np.random.default_rng(8)
        targets = WindowTargets(0, 300000, np.array([
            np.concatenate([rng.uniform(1, 30, 2), rng.uniform(1, 30, 4)]) for _ in range(5)]),
            np.full(5, 2))
        assert len(solve_all_windows(targets, catalog, Config())) == len(targets)
        assert [is_mip for is_mip, _ in highs_calls].count(False) == 1

    def test_solve_all_windows_threads_give_the_serial_plans(self, schema, highs_calls):
        """With `jobs=2` the windows' MIPs run on two threads (the HiGHS
        binding releases the GIL in `run`); the plans are the serial ones."""
        catalog = random_catalog(schema, 8, np.random.default_rng(11))
        rng = np.random.default_rng(12)
        targets = WindowTargets(0, 300000, np.array([
            np.concatenate([rng.uniform(1, 60, 2), rng.uniform(1, 20, 4)]) for _ in range(8)]),
            np.full(8, 4))
        serial = solve_all_windows(targets, catalog, Config(), jobs=1)
        assert [is_mip for is_mip, _ in highs_calls].count(True) >= 3
        threaded = solve_all_windows(targets, catalog, Config(), jobs=2)
        assert [p.counts for p in threaded] == [p.counts for p in serial]
        assert [p.objective_value for p in threaded] == [p.objective_value for p in serial]
        assert [p.approximate for p in threaded] == [p.approximate for p in serial]

    def test_read_plans_objective_is_the_solver_objective(self, tmp_path):
        # eight dimensions: enough that two ways of summing the errors can
        # round differently, so both sides must come from the same code
        schema = FeatureSchema(metrics=("m0", "m1", "m2"),
                               operators=("o0", "o1", "o2", "o3", "o4"))
        rng = np.random.default_rng(2024)
        catalog = random_catalog(schema, 6, rng)
        targets = WindowTargets(0, 300000, np.array([
            np.concatenate([rng.uniform(0, 60, 3), rng.uniform(0, 9, 5)]) for _ in range(40)]),
            np.full(40, 3))
        plans = solve_all_windows(targets, catalog, Config())
        path = tmp_path / "plan.csv"
        write_plans(plans, path)
        back = read_plans(path, targets, catalog, Config())
        assert [p.objective_value for p in back] == [p.objective_value for p in plans]

    def test_empty_catalog_plans_no_instances(self, schema, tmp_path):
        targets = self.make_targets(schema)
        plans = solve_all_windows(targets, make_catalog(schema, []), Config())
        assert [p.counts for p in plans] == [{}] * len(targets)
        path = tmp_path / "plan.csv"
        write_plans(plans, path)
        back = read_plans(path, targets, make_catalog(schema, []), Config())
        assert [p.objective_value for p in back] == [p.objective_value for p in plans]

    def test_build_problem_derives_total_cap(self, schema):
        catalog = make_catalog(schema, [("c1", 20000, [5, 2, 1, 0, 0, 0])])
        problem = build_problem(self.make_targets(schema), 0, catalog, Config())
        assert problem.z == 4  # 2 queries * factor 2.0
        assert problem.duration_budget_ms == 300000 * 8

    def test_plan_for_unknown_window_rejected(self, schema, tmp_path):
        catalog = make_catalog(schema, [("c1", 20000, [5, 2, 1, 0, 0, 0])])
        targets = self.make_targets(schema)
        path = tmp_path / "plan.csv"
        path.write_text("window_index,component_id,count\n7,c1,1\n")
        with pytest.raises(ValidationError):
            read_plans(path, targets, catalog, Config())

    @pytest.mark.parametrize("text, error, message", [
        (_PLAN_HEADER + "0,c1,1.5\n", ValidationError,
         "row 2, column 'count': non-integral value 1.5"),
        (_PLAN_HEADER + "0,c1,x\n", TraceParseError, "row 2, column 'count': cannot parse 'x'"),
        (_PLAN_HEADER + "0,c1,1\n\n1,c1,\n", TraceParseError,
         "row 3, column 'count': cannot parse ''"),
        (_PLAN_HEADER + "0,c1\n", TraceParseError, "row 2, column 'count': missing value"),
        (_PLAN_HEADER + "0\n", TraceParseError, "row 2, column 'component_id': missing value"),
        (_PLAN_HEADER + "0.5,c1,1\n", ValidationError,
         "row 2, column 'window_index': non-integral value 0.5"),
        (_PLAN_HEADER + "0,c1,1\n1,c1,-4\n", ValidationError,
         "row 3, column 'count': negative count -4"),
        (_PLAN_HEADER + "0,c1,1\n1,c9,1\n", ValidationError,
         "row 3, column 'component_id': unknown component_id 'c9'"),
        (_PLAN_HEADER + "7,c1,1\n", ValidationError,
         "row 2, column 'window_index': plan references unknown window 7"),
        (_PLAN_HEADER + "0,c1,1\n0,c1,3\n", ValidationError,
         "row 3, column 'component_id': component_id 'c1' repeated in window 0"),
        ("window_index,component_id\n0,c1\n", SchemaError, "is missing column 'count'"),
    ])
    def test_malformed_plan_rows_are_typed(self, schema, tmp_path, text, error, message):
        catalog = make_catalog(schema, [("c1", 20000, [5, 2, 1, 0, 0, 0])])
        path = tmp_path / "plan.csv"
        path.write_text(text)
        with pytest.raises(error, match=message):
            read_plans(path, self.make_targets(schema), catalog, Config())


@st.composite
def plan_cases(draw):
    """Random windows, a random catalog and random plans over both."""
    n_metrics, n_operators = draw(st.integers(1, 4)), draw(st.integers(0, 8))
    schema = FeatureSchema(metrics=tuple(f"m{i}" for i in range(n_metrics)),
                           operators=tuple(f"o{i}" for i in range(n_operators)))
    values = st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False)

    def vector(size):
        return np.array(draw(st.lists(values, min_size=size, max_size=size)))

    ids = draw(st.lists(st.text("abcxyz0123456789_-", min_size=1, max_size=6),
                        min_size=1, max_size=6, unique=True))
    catalog = make_catalog(schema, [
        (cid, draw(st.integers(1, 100000)), vector(n_metrics + n_operators)) for cid in ids
    ])
    n_windows = draw(st.integers(1, 6))
    targets = WindowTargets(0, 300000,
                            np.array([vector(n_metrics + n_operators) for _ in range(n_windows)]),
                            np.array([draw(st.integers(0, 20)) for _ in range(n_windows)]))
    cfg = Config({"denom_floor": str(draw(st.sampled_from([1e-3, 1.0, 7.5])))})
    plans = []
    for w in range(n_windows):
        counts = np.array(draw(st.lists(st.integers(0, 12), min_size=len(ids),
                                        max_size=len(ids))))
        problem = build_problem(targets, w, catalog, cfg)
        plans.append(SelectionPlan(
            window_index=w,
            counts={cid: int(n) for cid, n in zip(ids, counts) if n > 0},
            achieved=problem.features.T @ counts,
            objective_value=problem.objective(counts),
        ))
    unknown = draw(st.integers(n_windows, 60))
    return catalog, targets, plans, cfg, unknown


@settings(max_examples=60, deadline=None)
@given(plan_cases())
def test_plan_csv_round_trip(tmp_path_factory, case):
    """write_plans -> read_plans keeps the counts, the achieved vector and the
    objective bit for bit; a row naming a window outside the targets is rejected."""
    catalog, targets, plans, cfg, unknown = case
    path = tmp_path_factory.mktemp("plans") / "plan.csv"
    write_plans(plans, path)
    back = read_plans(path, targets, catalog, cfg)
    by_window = {p.window_index: p for p in plans}
    assert [p.window_index for p in back] == sorted(by_window)
    for plan in back:
        assert plan.counts == by_window[plan.window_index].counts
        assert_array_equal(plan.achieved, by_window[plan.window_index].achieved)
        assert plan.objective_value == by_window[plan.window_index].objective_value
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{unknown},{catalog.ids[0]},1\n")
    with pytest.raises(ValidationError, match=f"unknown window {unknown}"):
        read_plans(path, targets, catalog, cfg)


@st.composite
def stacked_cases(draw):
    """A catalog with real-valued features and at most one component per
    dimension, so that every window has one optimal count vector, and windows
    whose target is zero (no solve), planted (mostly an integral relaxation) or
    random (mostly a fractional relaxation, then a MIP), each under a loose
    or a binding duration budget."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    schema = FeatureSchema(metrics=("m0", "m1"), operators=("o0", "o1", "o2", "o3"))
    n_components = draw(st.integers(1, 6))
    durations = rng.uniform(1000, 20000, n_components)
    features = rng.uniform(0.5, 10, (n_components, 6))
    catalog = make_catalog(schema, [(f"c{j}", durations[j], features[j])
                                    for j in range(n_components)])
    cfg = Config({"y": str(draw(st.integers(1, 5))), "z": str(draw(st.integers(1, 20))),
                  "cores": "1"})
    kinds = draw(st.lists(st.sampled_from(["zero", "planted", "random"]), min_size=1,
                          max_size=6))
    # the windows of one grid share their length, and so their duration budget
    budget = durations.sum() * (rng.uniform(0.2, 0.6) if draw(st.booleans()) else 10)
    vectors = []
    for kind in kinds:
        if kind == "zero":
            vectors.append(np.zeros(6))
        elif kind == "planted":
            vectors.append(features.T @ rng.integers(0, 4, n_components))
        else:
            vectors.append(rng.uniform(0, 30, 6))
    targets = WindowTargets(0, int(budget), np.array(vectors), np.ones(len(kinds), dtype=int))
    return catalog, targets, cfg


@settings(max_examples=40, deadline=None)
@given(stacked_cases())
def test_stacked_relaxation_gives_the_lone_plans(case):
    """solve_all_windows solves every window's relaxation in one call; each
    plan is the one a lone solve_window of that window gives."""
    catalog, targets, cfg = case
    for w, plan in zip(range(len(targets)), solve_all_windows(targets, catalog, cfg),
                       strict=True):
        alone = solve_window(build_problem(targets, w, catalog, cfg))
        assert plan.window_index == alone.window_index
        assert plan.counts == alone.counts
        assert plan.objective_value == alone.objective_value
        assert plan.approximate == alone.approximate


def _shift_by_scanning_every_pair(problem, counts):
    """The duplicate shift as a scan of every pair of components in id
    order, testing each pair's columns for equality."""
    order = np.argsort(np.array(problem.component_ids))
    cols = np.column_stack([problem.features, problem.durations])
    counts = counts.copy()
    for pos_a, a in enumerate(order):
        for b in reversed(order[pos_a + 1:]):
            if counts[a] > 0 and np.array_equal(cols[a], cols[b]):
                moved = min(problem.y - counts[b], counts[a])
                counts[b] += moved
                counts[a] -= moved
    return counts


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 12), st.integers(1, 4))
def test_duplicate_pairs_shift_as_a_scan_of_every_pair(seed, n, y):
    """Shifting counts over the catalog's duplicate pairs, found once, gives
    what a scan of every pair per window gives."""
    rng = np.random.default_rng(seed)
    problem = SelectionProblem(
        target=np.ones(2),
        features=rng.choice([0.0, -0.0, 1.0], size=(n, 2)),
        durations=rng.choice([1000.0, 2000.0], size=n),
        component_ids=[f"c{j}" for j in rng.permutation(n)],
        y=y, z=n * y + 1, duration_budget_ms=1e9,
        **SOLVER_KNOBS,
    )
    counts = rng.integers(0, y + 1, size=n)
    assert_array_equal(selector._lex_duplicate_shift(problem, counts),
                       _shift_by_scanning_every_pair(problem, counts))


class TestMatchQuery:
    def test_one_to_one_picks_nearest(self, schema):
        catalog = make_catalog(schema, [
            ("far", 1000, [100, 100, 5, 5, 5, 5]),
            ("near", 1000, [10, 11, 1, 0, 0, 0]),
        ])
        query = np.array([10.0, 10.0, 1.0, 0.0, 0.0, 0.0])
        plan = match_query(query, catalog, Config(), mode=ONE_TO_ONE)
        assert plan.counts == {"near": 1}
        assert_array_equal(plan.achieved, catalog.get("near").feature.as_vector())

    def test_one_to_one_tie_breaks_by_id(self, schema):
        catalog = make_catalog(schema, [
            ("b", 1000, [5, 5, 0, 0, 0, 0]),
            ("a", 1000, [5, 5, 0, 0, 0, 0]),
        ])
        query = np.array([5.0, 5.0, 0.0, 0.0, 0.0, 0.0])
        plan = match_query(query, catalog, Config(), mode=ONE_TO_ONE)
        assert plan.counts == {"a": 1}
        assert_array_equal(plan.achieved, catalog.get("a").feature.as_vector())

    def test_one_to_many_dominates(self, schema):
        rng = np.random.default_rng(21)
        catalog = random_catalog(schema, 6, rng)
        for _ in range(20):
            vals = rng.integers(0, 40, size=6).astype(float)
            single = match_query(vals, catalog, Config(), mode=ONE_TO_ONE)
            multi = match_query(vals, catalog, Config(), mode=ONE_TO_MANY)
            assert multi.objective_value <= single.objective_value + 1e-9

    def test_one_to_many_obeys_solver_keys(self, schema, monkeypatch):
        catalog = random_catalog(schema, 4, np.random.default_rng(3))
        problems = []
        monkeypatch.setattr(selector, "solve_window",
                            lambda problem: problems.append(problem) or solve_window(problem))
        cfg = Config({"solver.node_limit": "7", "solver.time_limit_s": "2.5"})
        match_query(np.ones(6), catalog, cfg, mode=ONE_TO_MANY)
        assert [(p.node_limit, p.time_limit_s) for p in problems] == [(7, 2.5)]

    def test_empty_catalog_rejected(self, schema):
        with pytest.raises(ValidationError):
            match_query(np.zeros(6), make_catalog(schema, []), Config(), mode=ONE_TO_ONE)


def test_only_features_divides_by_a_floor():
    """The relative-error rule is written once, in features.py: no other
    module divides by a floored denominator, whether numpy's or Python's."""
    package = Path(selector.__file__).parent
    dividers = sorted(p.name for p in package.glob("*.py") if re.search(
        r"/\s*(np\.maximum\(|floored\(|max\(abs\()", p.read_text(encoding="utf-8")))
    assert dividers == ["features.py"]
