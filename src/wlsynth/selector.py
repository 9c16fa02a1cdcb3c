"""Per-window component selection.

Chooses an integer multiplicity for every catalog component so that the
combined feature vector minimizes the summed relative error
(`relative_error`, the sum of `features.relative_errors`) against the window
target, subject to a per-component repetition cap, a total-count cap and a
duration budget.  Absolute values are linearized with one nonnegative
slack per feature dimension.  The integer program goes to HiGHS through
`highs.solve`, which hands it what scipy's `milp` would: its LP relaxation
first, and the MIP solver (branch and bound over LP relaxations, relative
gap 0) only when that root is fractional.
The MIP runs without HiGHS's sub-MIP primal heuristics (RINS, RENS and root
reduced-cost fixing) and without its feasibility-jump heuristic: on
window-sized problems they cost more time than they save, and the search
stays exact without them.  Windows share
nothing, so `relax_windows` solves every window's relaxation in one HiGHS
call on the block-diagonal stack of their models, and `finish_windows` then
solves each fractional window's MIP alone, in order or from a thread pool;
the CLI writes every plan set so, and `solve_all_windows` is the two in turn.
Whether a window's optimum exceeds a threshold (augment's bad windows),
`exceeds` answers from the same relaxation, mostly without the exact MIP: by
the LP bound, or by a MIP cut off at the threshold that stops at its first
solution under it.  Identical inputs give
identical counts; repetitions of components with identical feature and
duration columns sit on the latest of their ids, at most y each.  Where a
window has several optimal count vectors, which one the stacked call
returns can depend on the other windows in it.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import highs
from .catalog import Catalog
from .config import Config
from .errors import SchemaError, SolverError, ValidationError
from .features import FeatureSchema, floored, relative_errors, row_groups
from .trace import WindowTargets, read_columns

ONE_TO_ONE = "one_to_one"
ONE_TO_MANY = "one_to_many"

_TIE_EPS = 1e-9
_INT_EPS = 1e-6
# `exceeds` decides by a bound only when it clears the threshold by this much:
# more than HiGHS's mip_abs_gap (1e-6) plus its mip_feasibility_tolerance (1e-6)
_CUTOFF_MARGIN = 1e-5

# Sub-MIP heuristics cost window-sized MIPs more LP iterations than they
# save; feasibility jump, run before the root LP, about half of a MIP that
# needs no branching.
_MIP_OPTIONS = {
    "mip_heuristic_run_rins": False,
    "mip_heuristic_run_rens": False,
    "mip_heuristic_run_root_reduced_cost": False,
    "mip_heuristic_run_feasibility_jump": False,
}


@dataclass
class SelectionProblem:
    """One window's fully-resolved integer program."""

    target: np.ndarray        # metrics then operators
    features: np.ndarray      # shape (n_components, n_dims)
    durations: np.ndarray     # profiled duration per component, ms
    component_ids: list[str]
    y: int
    z: int
    duration_budget_ms: float
    denom_floor: float
    node_limit: int           # HiGHS MIP nodes
    time_limit_s: float | None
    window_index: int = 0
    # `_duplicate_groups` of the columns above; None finds them on first use
    duplicates: list[np.ndarray] | None = None

    def __post_init__(self):
        self.target = np.asarray(self.target, dtype=float)
        self.features = np.asarray(self.features, dtype=float)
        self.durations = np.asarray(self.durations, dtype=float)
        if self.features.shape[1] != self.target.shape[0]:
            raise SchemaError("component feature dimensions do not match the target")
        if self.y < 1 or self.z < 1 or self.duration_budget_ms <= 0 or self.denom_floor <= 0:
            raise ValidationError("require y >= 1, z >= 1, l > 0 and denom_floor > 0")

    def objective(self, counts: np.ndarray) -> float:
        """Exact relative-error objective of an integer count vector."""
        return relative_error(self.features.T @ counts, self.target, self.denom_floor)

    def plan(self, counts: np.ndarray, approximate: bool = False) -> "SelectionPlan":
        """The plan of a count vector: every SelectionPlan is built here, so a
        plan read back from its CSV carries the same achieved vector and
        objective, bit for bit, as the one the solver made."""
        achieved = self.features.T @ counts
        return SelectionPlan(
            window_index=self.window_index,
            counts={cid: int(n) for cid, n in zip(self.component_ids, counts) if n > 0},
            achieved=achieved,
            objective_value=relative_error(achieved, self.target, self.denom_floor),
            approximate=approximate,
        )


def relative_error(achieved: np.ndarray, target: np.ndarray, floor: float) -> float:
    """The selection and annealing objective: the sum of `features.relative_errors`."""
    return float(relative_errors(achieved, target, floor).sum())


@dataclass
class SelectionPlan:
    window_index: int
    counts: dict[str, int]
    achieved: np.ndarray
    objective_value: float
    approximate: bool = False

    def total_count(self) -> int:
        return sum(self.counts.values())


def _milp_model(problems: list[SelectionProblem]):
    """Slack linearization of windows that share one catalog, stacked
    block-diagonally, as the (c, matrix, rows, cols) `highs.solve` takes.

    Window k's block has its counts x then one slack per dimension as
    variables.  |A x - t| / denom <= s is scaled by denom to keep coefficients
    bounded: A x - denom * s <= t  and  -A x - denom * s <= -t.  Two more rows
    cap the total count at z and the summed duration at the budget.  Blocks
    share no variable and no row, so an optimum of the stack is an optimum of
    every window.  The count columns [A; -A; 1; durations] are the catalog's
    in every block; only the slack diagonal and the right-hand sides differ.
    The matrix is built straight into CSC with zeros dropped, so a single
    block is the CSC form of the dense one-window model.
    """
    first = problems[0]
    k, (v, ndim) = len(problems), first.features.shape
    rows, width = 2 * ndim + 2, v + ndim
    A = first.features.T  # (ndim, v)
    count_cols = np.vstack([A, -A, np.ones((1, v)), first.durations[None, :]]).T
    # each count column's nonzeros, by column and then by row
    nz_col, nz_row = np.nonzero(count_cols)
    count_data = count_cols[nz_col, nz_row]
    dims = np.arange(ndim)
    # one block's CSC: the count columns, then slack column d at rows d and ndim + d
    indices = np.concatenate([nz_row, np.column_stack([dims, ndim + dims]).ravel()])
    indptr = np.concatenate([np.searchsorted(nz_col, np.arange(v + 1)),
                             count_data.size + 2 * (dims + 1)])
    nnz = indices.shape[0]
    blocks = np.arange(k)[:, None]
    targets = np.array([p.target for p in problems])
    denoms = floored(targets, np.array([[p.denom_floor] for p in problems]))
    data = np.hstack([np.broadcast_to(count_data, (k, count_data.size)),
                      np.repeat(-denoms, 2, axis=1)])
    matrix = (np.append((indptr[:-1] + nnz * blocks).ravel(), k * nnz),
              (indices + rows * blocks).ravel(), data.ravel())
    b_ub = np.hstack([targets, -targets, [[p.z, p.duration_budget_ms] for p in problems]])
    c = np.tile(np.concatenate([np.zeros(v), np.ones(ndim)]), k)
    upper = np.hstack([np.repeat([[float(p.y)] for p in problems], v, axis=1),
                       np.full((k, ndim), np.inf)])
    return c, matrix, (-np.inf, b_ub.ravel()), (0.0, upper.ravel())


def _relaxation_points(problems: list[SelectionProblem]) -> list[np.ndarray | None]:
    """Each window's point of the LP relaxation of `_milp_model(problems)`,
    all solved in one HiGHS call; None for every window when HiGHS returns
    no point."""
    c, matrix, rows, cols = _milp_model(problems)
    _, x = highs.solve(c, matrix, rows, cols, np.zeros(c.shape[0]), {})
    if x is None:
        return [None] * len(problems)
    return np.split(x, len(problems))


def _duplicate_groups(features: np.ndarray, durations: np.ndarray,
                      component_ids) -> list[np.ndarray]:
    """The rows of each group of two or more components with identical
    feature and duration columns, in id order.  A catalog's groups are found
    once and shared by its windows' problems."""
    groups = row_groups(np.column_stack([features, durations]))
    order = np.lexsort((np.array(component_ids), groups))
    starts = np.flatnonzero(np.diff(groups[order])) + 1
    return [rows for rows in np.split(order, starts) if len(rows) > 1]


def _lex_duplicate_shift(problem: SelectionProblem, counts: np.ndarray) -> np.ndarray:
    """Put each duplicate group's total count on its latest ids, at most y each.

    Components with identical feature and duration columns are
    interchangeable: moving repetitions between them keeps the objective and
    all constraints intact, so which of them the solver happened to pick
    does not show in the plan.
    """
    if problem.duplicates is None:
        problem.duplicates = _duplicate_groups(problem.features, problem.durations,
                                               problem.component_ids)
    counts, y = counts.copy(), problem.y
    for rows in problem.duplicates:
        counts[rows[::-1]] = np.clip(counts[rows].sum() - y * np.arange(len(rows)), 0, y)
    return counts


def solve_window(problem: SelectionProblem, root: np.ndarray | None = None) -> SelectionPlan:
    """Exact solve of one window's selection problem with HiGHS.

    `root` is the window's point of its LP relaxation when the caller has
    solved it already, as `relax_windows` does for every window in one
    call; without one the window's own relaxation is solved here.  When the
    root's counts are integral and feasible they are optimal and no MIP is
    needed.  Otherwise one HiGHS MIP solve of this window alone (branch and
    bound over LP relaxations, relative gap 0, sub-MIP primal heuristics off
    as set in `_MIP_OPTIONS`) runs under `node_limit` MIP nodes and
    `time_limit_s` seconds.  If either budget is exhausted the best
    incumbent is returned with `approximate=True`; the all-zeros vector is
    always feasible and is the (approximate) fallback when HiGHS returns no
    integral, feasible incumbent.  Ties: identical inputs give identical
    counts, and repetitions of components with identical feature and
    duration columns go to the latest of their ids, at most y each.
    """
    v = problem.features.shape[0]
    best_counts = np.zeros(v, dtype=int)
    zero_obj = problem.objective(best_counts)
    approximate = False

    if v > 0 and zero_obj > 0:
        if root is None:
            root = _relaxation_points([problem])[0]
        counts = _rounded_counts(problem, root)
        if counts is None:
            status, x = _window_mip(problem, {})
            counts = _rounded_counts(problem, x)
            approximate = status != 0 or counts is None
        if counts is not None and problem.objective(counts) < zero_obj - _TIE_EPS:
            best_counts = counts

    return problem.plan(_lex_duplicate_shift(problem, best_counts), approximate)


def _window_mip(problem: SelectionProblem, options: dict) -> tuple[int, np.ndarray | None]:
    """One HiGHS MIP of this window alone: relative gap 0, `_MIP_OPTIONS`,
    the problem's node and time limits, then `options`."""
    c, matrix, rows, cols = _milp_model([problem])
    integrality = np.zeros(c.shape[0])
    integrality[:problem.features.shape[0]] = 1
    return highs.solve(c, matrix, rows, cols, integrality, {
        "mip_rel_gap": 0,
        "mip_max_nodes": problem.node_limit,
        "time_limit": problem.time_limit_s,
        **_MIP_OPTIONS,
        **options,
    })


def exceeds(problem: SelectionProblem, root: np.ndarray | None, threshold: float) -> bool:
    """`solve_window(problem, root).objective_value > threshold`, mostly
    without its exact MIP.

    The plan is never worse than the all-zeros vector, so a zero vector at or
    under the threshold answers False.  An integral root is the plan, up to
    `solve_window`'s tie rules.  A fractional root's slack sum is a lower
    bound on the optimum: above the threshold by `_CUTOFF_MARGIN`, True.
    Otherwise one MIP runs under `solve_window`'s node and time limits, cut
    off at the threshold plus the margin and stopped at its first solution
    under the cutoff.  An integral root or incumbent at most the threshold
    minus the margin answers False; a search that ends (optimal or
    infeasible) with nothing under the cutoff answers True.  Anything else (a
    limit hit, a point within the margin of the threshold, no point) falls
    back to `solve_window`.  So the two answers can differ only where
    `solve_window`'s own MIP would stop at `node_limit` or `time_limit_s`
    with an approximate plan.
    """
    v = problem.features.shape[0]
    zero_obj = problem.objective(np.zeros(v, dtype=int))
    if zero_obj <= threshold or v == 0:
        return zero_obj > threshold
    if root is None:
        root = _relaxation_points([problem])[0]
    counts = _rounded_counts(problem, root)
    finished = counts is not None  # an integral root is optimal
    if root is not None and counts is None:
        cutoff = threshold + _CUTOFF_MARGIN
        if float(root[v:].sum()) > cutoff:
            return True
        status, x = _window_mip(problem, {"objective_bound": cutoff,
                                          "mip_max_improving_sols": 1})
        if status == 2 and x is None:  # infeasible under the cutoff
            return True
        counts, finished = _rounded_counts(problem, x), status == 0
    if counts is not None:
        found = problem.objective(counts)
        if found <= threshold - _CUTOFF_MARGIN:
            return False
        if finished and found >= threshold + _CUTOFF_MARGIN:
            return True
    return solve_window(problem, root).objective_value > threshold


def _rounded_counts(problem: SelectionProblem, x: np.ndarray | None) -> np.ndarray | None:
    """Integer counts of a solver point, or None unless they are integral and feasible."""
    if x is None:
        return None
    x = x[: problem.features.shape[0]]
    counts = x.round().astype(int)
    if (abs(x - counts) > _INT_EPS).any() or not _feasible(problem, counts):
        return None
    return counts


def _feasible(problem: SelectionProblem, counts: np.ndarray) -> bool:
    if (counts < 0).any() or (counts > problem.y).any():
        return False
    if counts.sum() > problem.z:
        return False
    return float(problem.durations @ counts) <= problem.duration_budget_ms + 1e-9


def build_problem(windows: WindowTargets, w: int, catalog: Catalog,
                  cfg: Config) -> SelectionProblem:
    """Window w's problem under the `y`, `z` (or `z_per_query_factor` times
    its query count), `cores`, `denom_floor` and `solver.*` keys."""
    return _build_problems(windows, catalog, cfg, [w])[0]


def _build_problems(windows: WindowTargets, catalog: Catalog, cfg: Config,
                    ws) -> list[SelectionProblem]:
    """`build_problem` of each window in `ws`; the problems share the
    catalog's features, durations and ids columns and its duplicate groups."""
    duplicates = _duplicate_groups(catalog.features, catalog.duration_ms, catalog.ids)
    return [_catalog_problem(
        catalog, cfg, windows.features[w], cfg["y"],
        cfg["z"] or max(1, round(cfg["z_per_query_factor"] * int(windows.query_counts[w]))),
        float(windows.len_ms * cfg["cores"]), window_index=w, duplicates=duplicates,
    ) for w in ws]


def _catalog_problem(catalog: Catalog, cfg: Config, target, y: int, z: int,
                     duration_budget_ms: float, **fields) -> SelectionProblem:
    """`target`'s problem over the catalog's columns under these caps and the
    `denom_floor` and `solver.*` keys; `fields` sets the rest.  Every
    SelectionProblem the package builds is built here."""
    return SelectionProblem(target, catalog.features, catalog.duration_ms, catalog.ids, y, z,
                            duration_budget_ms, denom_floor=cfg["denom_floor"],
                            node_limit=cfg["solver.node_limit"],
                            time_limit_s=cfg["solver.time_limit_s"], **fields)


def relax_windows(windows: WindowTargets, catalog: Catalog, cfg: Config
                  ) -> tuple[list[SelectionProblem], list[np.ndarray | None]]:
    """Every window's problem (`build_problem`) and its point of the LP
    relaxation, all solved in one HiGHS call on their block-diagonal stack
    (`_milp_model`); None for every window when that call returns no point."""
    problems = _build_problems(windows, catalog, cfg, range(len(windows)))
    return problems, _relaxation_points(problems) if problems else []


def finish_windows(problems: list[SelectionProblem], roots: list[np.ndarray | None],
                   jobs: int = 1) -> list[SelectionPlan]:
    """`solve_window` of each problem from its root, with a MIP of its own
    where the root is fractional, and its own relaxation where the root is
    None.  With `jobs > 1` the calls, and so only the MIPs, run from a pool of
    that many threads.  Plans come back in window order either way, and a
    `SolverError` names the window it came from."""
    def solve(problem: SelectionProblem, root: np.ndarray | None) -> SelectionPlan:
        try:
            return solve_window(problem, root)
        except SolverError as exc:
            raise SolverError(f"window {problem.window_index}: {exc}") from exc

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor  # a serial run never loads it

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(solve, problems, roots))
    return [solve(problem, root) for problem, root in zip(problems, roots)]


def solve_all_windows(windows: WindowTargets, catalog: Catalog, cfg: Config,
                      jobs: int = 1) -> list[SelectionPlan]:
    """Solve every window (the objective is separable over windows):
    `finish_windows` over `relax_windows`.  Where a window has several
    optimal count vectors, which one comes back can depend on the other
    windows in the same stacked call; the optimal objective does not.
    """
    return finish_windows(*relax_windows(windows, catalog, cfg), jobs)


def write_plans(plans: list[SelectionPlan], path) -> None:
    """Plan CSV: one row per (window, component) with a positive count."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_index", "component_id", "count"])
        for plan in sorted(plans, key=lambda p: p.window_index):
            for component_id in sorted(plan.counts):
                writer.writerow([plan.window_index, component_id, plan.counts[component_id]])


def read_plans(path, windows: WindowTargets, catalog: Catalog,
               cfg: Config) -> list[SelectionPlan]:
    """Rebuild every window's plan from a plan CSV read through
    `trace.read_columns`, each by `SelectionProblem.plan` of the window's
    `build_problem`.  A window outside `windows`, a component outside
    `catalog`, a repeated (window, component) pair or a negative count is a
    ValidationError naming the row and the column."""
    columns = read_columns(path, "plan",
                           {"window_index": int, "component_id": str, "count": int}, {})
    seen: set[tuple[int, str]] = set()
    for rownum, (w, cid, n) in enumerate(zip(*columns.values()), start=2):
        if not 0 <= w < len(windows):
            raise ValidationError(
                f"row {rownum}, column 'window_index': plan references unknown window {w}")
        if cid not in catalog:
            raise ValidationError(
                f"row {rownum}, column 'component_id': unknown component_id {cid!r}")
        if (w, cid) in seen:
            raise ValidationError(f"row {rownum}, column 'component_id': component_id "
                                  f"{cid!r} repeated in window {w}")
        if n < 0:
            raise ValidationError(f"row {rownum}, column 'count': negative count {n}")
        seen.add((w, cid))
    counts = np.zeros((len(windows), len(catalog)), dtype=int)
    counts[np.asarray(columns["window_index"], dtype=np.intp),
           catalog.index(columns["component_id"])] = columns["count"]
    return [problem.plan(counts[problem.window_index])
            for problem in _build_problems(windows, catalog, cfg, range(len(windows)))]


def write_plan_summary(
    plans: list[SelectionPlan], windows: WindowTargets, schema: FeatureSchema, path
) -> None:
    """Per-window objective plus per-dimension achieved/target/error rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["window_index", "objective", "approximate", "dimension",
             "target", "achieved", "abs_error"]
        )
        for plan in sorted(plans, key=lambda p: p.window_index):
            target = windows.features[plan.window_index]
            for d, dim in enumerate(schema.dimensions):
                writer.writerow(
                    [
                        plan.window_index,
                        repr(plan.objective_value),
                        int(plan.approximate),
                        dim,
                        repr(float(target[d])),
                        repr(float(plan.achieved[d])),
                        repr(abs(float(plan.achieved[d] - target[d]))),
                    ]
                )


def znorm_stats(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and standard deviations, a zero deviation read as 1."""
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return mean, std


def rank_components(features: np.ndarray, ids: list[str],
                    point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Catalog rows (`features`, one per component id) by ascending Euclidean
    distance from `point` on z-normalized features (statistics from the
    rows), ties broken by component id, and every row's distance."""
    mean, std = znorm_stats(features)
    distances = np.linalg.norm((features - mean) / std - (point - mean) / std, axis=1)
    return np.lexsort((np.array(ids), distances)), distances


def match_query(
    target: np.ndarray,
    catalog: Catalog,
    cfg: Config,
    mode: str = ONE_TO_ONE,
    z_q: int = 5,
) -> SelectionPlan:
    """Query-level matching: nearest single component or a small ILP combination.

    `target` is the query's feature vector, metrics then operators.
    one_to_one picks the nearest component by `rank_components`.
    one_to_many solves the window problem with the query's feature as the
    target, capped at z_q total instances and no duration budget, under the
    `denom_floor` and `solver.*` keys.  Both report the relative-error
    objective so the two modes are comparable.
    """
    if len(catalog) == 0:
        raise ValidationError("cannot match against an empty catalog")
    problem = _catalog_problem(catalog, cfg, target, z_q, z_q,
                               float(catalog.duration_ms.sum() * z_q + 1.0))
    if mode == ONE_TO_MANY:
        return solve_window(problem)
    if mode != ONE_TO_ONE:
        raise ValidationError(f"unknown match mode {mode!r}")
    counts = np.zeros(len(catalog), dtype=int)
    counts[rank_components(catalog.features, catalog.ids, problem.target)[0][0]] = 1
    return problem.plan(counts)
