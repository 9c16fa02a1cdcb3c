"""`highs.solve` against scipy's `milp` on the same model, and how the
binding is loaded: without scipy's optimize package, and once per process."""
import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.linalg import block_diag
from scipy.sparse import csc_array

from conftest import SOLVER_KNOBS, run_fresh
from wlsynth import highs, selector
from wlsynth.errors import SolverError
from wlsynth.selector import SelectionProblem


def window_problems(seed, n_windows, n_components, n_dims):
    """Windows over one random catalog, some with a tight duration budget."""
    rng = np.random.default_rng(seed)
    features = rng.integers(0, 10, size=(n_components, n_dims)).astype(float)
    durations = rng.integers(1000, 20000, size=n_components).astype(float)
    problems = []
    for w in range(n_windows):
        z = int(rng.integers(1, 30))
        problems.append(SelectionProblem(
            target=rng.integers(0, 40, size=n_dims).astype(float),
            features=features, durations=durations,
            component_ids=[f"c{j}" for j in range(n_components)],
            y=int(rng.integers(1, 8)), z=z,
            duration_budget_ms=float(durations.sum() * rng.choice([0.3, z])),
            window_index=w, **SOLVER_KNOBS))
    return problems


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_windows=st.integers(1, 4),
       n_components=st.integers(1, 9), n_dims=st.integers(1, 5),
       kind=st.sampled_from(["lp", "mip", "mip_one_node"]))
def test_solve_matches_milp(seed, n_windows, n_components, n_dims, kind):
    problems = window_problems(seed, n_windows, n_components, n_dims)
    c, matrix, rows, cols = selector._milp_model(problems)
    integrality = np.zeros(c.shape[0])
    options = {}
    if kind != "lp":
        # every block's counts are integers
        integrality.reshape(n_windows, -1)[:, :n_components] = 1
        node_limit = 1 if kind == "mip_one_node" else SOLVER_KNOBS["node_limit"]
        options = {"mip_rel_gap": 0, "node_limit": node_limit, "time_limit": None,
                   **selector._MIP_OPTIONS}
    indptr, indices, data = matrix
    a = csc_array((data, indices, indptr), shape=(rows[1].size, c.size))
    expected = milp(c, constraints=LinearConstraint(a, *rows), bounds=Bounds(*cols),
                    integrality=integrality, options=dict(options))
    if "node_limit" in options:
        options["mip_max_nodes"] = options.pop("node_limit")
    status, x = highs.solve(c, matrix, rows, cols, integrality, options)
    assert status == expected.status
    assert (x is None) == (expected.x is None)
    if x is not None:
        assert np.array_equal(x, expected.x)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_windows=st.integers(1, 4),
       n_components=st.integers(1, 9), n_dims=st.integers(1, 5))
def test_model_matrix_is_csc_of_the_dense_model(seed, n_windows, n_components, n_dims):
    problems = window_problems(seed, n_windows, n_components, n_dims)
    # integer features hold zeros, which the CSC form drops
    problems[0].features[0, 0] = 0.0
    c, (indptr, indices, data), rows, cols = selector._milp_model(problems)
    blocks = []
    for p in problems:
        a = p.features.T
        denom = np.maximum(np.abs(p.target), p.denom_floor)
        slack = np.vstack([-np.diag(denom), -np.diag(denom), np.zeros((2, n_dims))])
        counts = np.vstack([a, -a, np.ones((1, n_components)), p.durations[None, :]])
        blocks.append(np.hstack([counts, slack]))
    expected = csc_array(block_diag(*blocks))
    assert_array_equal(indptr, expected.indptr)
    assert_array_equal(indices, expected.indices)
    assert_array_equal(data, expected.data)
    assert rows[1].size == expected.shape[0] and c.size == expected.shape[1]


@pytest.mark.parametrize("integrality", [0, 1])
@pytest.mark.parametrize("c, rows, cols", [
    ([1.0], ([2.0], [3.0]), (0.0, 1.0)),   # infeasible: 2 <= x <= 1
    ([-1.0], ([0.0], [np.inf]), (0.0, np.inf)),   # unbounded below
])
def test_failures_match_milp(c, rows, cols, integrality):
    matrix = (np.array([0, 1]), np.array([0]), np.array([1.0]))
    expected = milp(c, constraints=LinearConstraint(np.eye(1), *rows), bounds=Bounds(*cols),
                    integrality=integrality)
    status, x = highs.solve(c, matrix, rows, cols, integrality, {})
    assert expected.status != 0
    assert (status, x) == (expected.status, None)


def test_missing_binding_is_a_solver_error(tmp_path):
    with pytest.raises(SolverError) as info:
        highs.load(tmp_path)
    assert scipy.__version__ in str(info.value)
    assert str(tmp_path) in str(info.value)


def test_import_loads_neither_optimize_nor_sparse():
    assert run_fresh("import sys, wlsynth.cli\n"
                     "print('scipy.optimize' in sys.modules, 'scipy.sparse' in sys.modules)"
                     ) == ["False", "False"]


def test_milp_works_after_wlsynth_loaded_the_binding():
    assert run_fresh("import numpy as np\n"
                     "from wlsynth import highs\n"
                     "from scipy.optimize import milp\n"
                     "from scipy.optimize._highspy import _core\n"
                     "res = milp(np.array([1.0, 2.0]), bounds=(1, 3), integrality=1)\n"
                     "print(res.status, res.x.tolist(), _core is highs._h)"
                     ) == ["0", "[1.0,", "1.0]", "True"]


def test_wlsynth_reuses_the_binding_scipy_loaded():
    assert run_fresh("import scipy.optimize\n"
                     "from scipy.optimize._highspy import _core\n"
                     "from wlsynth import highs\n"
                     "print(highs._h is _core, highs.solve([1.0], ([0, 0], [], []), ([], []),"
                     " (2, 5), [0], {})[1].tolist())"
                     ) == ["True", "[2.0]"]
