import numpy as np
import pytest
from scipy.optimize import milp

from conftest import make_catalog, random_catalog
from wlsynth import selector
from wlsynth.errors import ValidationError
from wlsynth.features import PerformanceFeature
from wlsynth.selector import (
    ONE_TO_MANY,
    ONE_TO_ONE,
    SelectionConstraints,
    SelectionPlan,
    SelectionProblem,
    build_problem,
    enumerate_optimum,
    match_query,
    read_plans,
    solve_all_windows,
    solve_window,
    write_plans,
)
from wlsynth.trace import WindowTarget


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
    )


class TestSolveWindow:
    def test_exact_hit(self):
        problem = SelectionProblem(
            target=np.array([10.0, 6.0]),
            features=np.array([[5.0, 3.0], [2.0, 1.0]]),
            durations=np.array([1000.0, 1000.0]),
            component_ids=["a", "b"],
            y=5, z=10, duration_budget_ms=1e9,
        )
        plan = solve_window(problem)
        assert plan.objective_value == pytest.approx(0.0, abs=1e-9)
        assert plan.counts == {"a": 2}
        np.testing.assert_allclose(plan.achieved, [10.0, 6.0])

    def test_matches_enumeration(self, monkeypatch):
        is_mip = []  # one entry per milp call: MIP (True) or LP relaxation (False)

        def counting_milp(*args, **kwargs):
            is_mip.append(bool(kwargs["integrality"].any()))
            return milp(*args, **kwargs)

        monkeypatch.setattr(selector, "milp", counting_milp)
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
                counts = plan.count_vector(problem.component_ids)
                assert problem.objective(counts) == pytest.approx(plan.objective_value)
        # both the integral-LP-root shortcut and the MIP solve were exercised
        assert 0 < is_mip.count(True) < solves

    def test_repetition_cap(self):
        problem = SelectionProblem(
            target=np.array([100.0]),
            features=np.array([[1.0]]),
            durations=np.array([1000.0]),
            component_ids=["a"],
            y=3, z=50, duration_budget_ms=1e9,
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
        counts = plan.count_vector(problem.component_ids)
        assert counts.max() <= problem.y
        assert counts.sum() <= problem.z
        assert problem.durations @ counts <= problem.duration_budget_ms

    def test_default_budget_solves_branching_problem_exactly(self):
        problem = self.branching_problem()
        plan = solve_window(problem)
        best, _ = enumerate_optimum(problem)
        assert not plan.approximate
        assert plan.objective_value == pytest.approx(best, abs=1e-9)

    def test_repeated_solves_identical(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            problem = random_problem(rng, n_components=8, n_dims=4, y=5, z=20)
            first, second = solve_window(problem), solve_window(problem)
            assert first.counts == second.counts
            assert first.objective_value == second.objective_value

    def test_negative_weights_rejected(self):
        problem = random_problem(np.random.default_rng(3))
        problem.weights = np.array([1.0, -0.5, 1.0])
        with pytest.raises(ValidationError):
            solve_window(problem)

    def test_zero_target_uses_floor(self):
        problem = SelectionProblem(
            target=np.array([0.0, 5.0]),
            features=np.array([[1.0, 5.0]]),
            durations=np.array([1000.0]),
            component_ids=["a"],
            y=3, z=3, duration_budget_ms=1e9,
            denom_floor=1.0,
        )
        plan = solve_window(problem)
        # picking one instance costs 1/1 on the zero dim but saves 5/5 on the other
        best, _ = enumerate_optimum(problem)
        assert plan.objective_value == pytest.approx(best, abs=1e-9)


class TestWindowsAndIO:
    def make_targets(self, schema):
        return [
            WindowTarget(0, 0, 300000,
                         PerformanceFeature(np.array([10.0, 4.0]),
                                            np.array([2.0, 1.0, 0.0, 0.0])), 2),
            WindowTarget(1, 300000, 300000,
                         PerformanceFeature(np.array([3.0, 8.0]),
                                            np.array([0.0, 2.0, 2.0, 0.0])), 2),
        ]

    def test_solve_all_windows_and_round_trip(self, schema, tmp_path):
        catalog = make_catalog(schema, [
            ("c1", 20000, [5, 2, 1, 0, 0, 0]),
            ("c2", 15000, [0, 1, 0, 1, 0, 0]),
            ("c3", 25000, [1.5, 4, 0, 1, 1, 0]),
        ])
        targets = self.make_targets(schema)
        plans = solve_all_windows(targets, catalog, SelectionConstraints())
        assert [p.window_index for p in plans] == [0, 1]
        path = tmp_path / "plan.csv"
        write_plans(plans, path)
        back = read_plans(path, targets, catalog)
        for a, b in zip(plans, back):
            assert a.counts == b.counts
            assert a.objective_value == pytest.approx(b.objective_value)
            np.testing.assert_allclose(a.achieved, b.achieved)

    def test_build_problem_derives_total_cap(self, schema):
        catalog = make_catalog(schema, [("c1", 20000, [5, 2, 1, 0, 0, 0])])
        target = self.make_targets(schema)[0]
        problem = build_problem(target, catalog, SelectionConstraints())
        assert problem.z == 4  # 2 queries * factor 2.0
        assert problem.duration_budget_ms == 300000 * 8

    def test_plan_for_unknown_window_rejected(self, schema, tmp_path):
        catalog = make_catalog(schema, [("c1", 20000, [5, 2, 1, 0, 0, 0])])
        targets = self.make_targets(schema)
        path = tmp_path / "plan.csv"
        path.write_text("window_index,component_id,count\n7,c1,1\n")
        with pytest.raises(ValidationError):
            read_plans(path, targets, catalog)


class TestMatchQuery:
    def test_one_to_one_picks_nearest(self, schema):
        catalog = make_catalog(schema, [
            ("far", 1000, [100, 100, 5, 5, 5, 5]),
            ("near", 1000, [10, 11, 1, 0, 0, 0]),
        ])
        query = PerformanceFeature(np.array([10.0, 10.0]),
                                   np.array([1.0, 0.0, 0.0, 0.0]))
        plan = match_query(query, catalog, mode=ONE_TO_ONE)
        assert plan.counts == {"near": 1}

    def test_one_to_one_tie_breaks_by_id(self, schema):
        catalog = make_catalog(schema, [
            ("b", 1000, [5, 5, 0, 0, 0, 0]),
            ("a", 1000, [5, 5, 0, 0, 0, 0]),
        ])
        query = PerformanceFeature(np.array([5.0, 5.0]), np.zeros(4))
        plan = match_query(query, catalog, mode=ONE_TO_ONE)
        assert plan.counts == {"a": 1}

    def test_one_to_many_dominates(self, schema):
        rng = np.random.default_rng(21)
        catalog = random_catalog(schema, 6, rng)
        for _ in range(20):
            vals = rng.integers(0, 40, size=6).astype(float)
            query = PerformanceFeature(vals[:2], vals[2:])
            single = match_query(query, catalog, mode=ONE_TO_ONE)
            multi = match_query(query, catalog, mode=ONE_TO_MANY)
            assert multi.objective_value <= single.objective_value + 1e-9

    def test_empty_catalog_rejected(self, schema):
        from wlsynth.catalog import Catalog

        query = PerformanceFeature(np.zeros(2), np.zeros(4))
        with pytest.raises(ValidationError):
            match_query(query, Catalog([], schema), mode=ONE_TO_ONE)
