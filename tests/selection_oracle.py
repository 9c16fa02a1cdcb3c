"""Exhaustive selection oracle for the tests: every count vector of a small
window problem, scored by the problem's own objective."""
import itertools

import numpy as np

from wlsynth.errors import SolverError
from wlsynth.selector import _TIE_EPS, SelectionPlan, SelectionProblem, _feasible


def enumerate_optimum(problem: SelectionProblem) -> tuple[float, list[np.ndarray]]:
    """Exhaustive enumeration oracle; only viable for small component counts."""
    v = problem.features.shape[0]
    best = None
    argbest: list[np.ndarray] = []
    for combo in itertools.product(range(problem.y + 1), repeat=v):
        counts = np.array(combo, dtype=int)
        if not _feasible(problem, counts):
            continue
        obj = problem.objective(counts)
        if best is None or obj < best - _TIE_EPS:
            best, argbest = obj, [counts]
        elif abs(obj - best) <= _TIE_EPS:
            argbest.append(counts)
    if best is None:
        raise SolverError("no feasible count vector (cannot happen with z, l > 0)")
    return best, argbest


def count_vector(plan: SelectionPlan, component_ids: list[str]) -> np.ndarray:
    """The plan's counts in the order of `component_ids`."""
    return np.array([plan.counts.get(cid, 0) for cid in component_ids], dtype=int)
