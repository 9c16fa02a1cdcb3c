"""HiGHS through the pybind11 binding that scipy ships.

scipy's `milp` solves with HiGHS (Huangfu & Hall, *Math. Prog. Comp.*
2018) through the binding `scipy/optimize/_highspy/_core`, but importing
scipy's optimize package costs more than a whole pipeline run.  This
module loads that binding alone, from its file and under its real module
name (MODULE), so a later import of the package finds it in `sys.modules`;
when the package came first, its binding is reused.  Either way the binding
is initialised once per process.  `solve` hands HiGHS the model and options
that `milp` hands it through `_highs_wrapper`, and reads back only the
primal point.
"""
from __future__ import annotations

import importlib.util
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from types import ModuleType

import numpy as np

from .errors import SolverError

MODULE = "scipy.optimize._highspy._core"


def load(directory: Path) -> ModuleType:
    """The binding `_core` in `directory`, loaded and registered as MODULE."""
    for suffix in EXTENSION_SUFFIXES:
        path = Path(directory) / f"_core{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(MODULE, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[MODULE] = module
            spec.loader.exec_module(module)
            return module
    import scipy
    raise SolverError(f"scipy {scipy.__version__} ships no HiGHS binding _core in {directory}")


_h = sys.modules.get(MODULE) or load(
    Path(importlib.util.find_spec("scipy").origin).parent / "optimize" / "_highspy")
_Status = _h.HighsModelStatus
_LIMITS = (_Status.kTimeLimit, _Status.kIterationLimit, _Status.kSolutionLimit)
# milp's status codes: 0 optimal, 1 time or iteration limit, 2 infeasible,
# 3 unbounded, 4 anything else
_CODES = {_Status.kOptimal: 0, _Status.kTimeLimit: 1, _Status.kIterationLimit: 1,
          _Status.kInfeasible: 2, _Status.kModelError: 2, _Status.kUnbounded: 3}


def solve(c, matrix, rows, cols, integrality, options) -> tuple[int, np.ndarray | None]:
    """min c @ x  s.t.  rows[0] <= A @ x <= rows[1],  cols[0] <= x <= cols[1].

    `matrix` is A in CSC form as (indptr, indices, data), with one column
    per entry of `c`; the row bounds broadcast against each other, the
    column bounds to the shape of `c`.  `options` holds HiGHS option names
    (`mip_max_nodes` where `milp` says `node_limit`); a None value is
    skipped, and a name or value HiGHS rejects is a SolverError.  Returns
    `milp`'s status code and its `x`: the primal point, or None where
    `milp` gives None (an LP that is not optimal, a MIP without an
    incumbent).
    """
    c = np.asarray(c, dtype=float)
    row_lower, row_upper = np.broadcast_arrays(*(np.asarray(b, dtype=float) for b in rows))
    col_lower, col_upper = (np.broadcast_to(np.asarray(b, dtype=float), c.shape) for b in cols)
    integrality = np.broadcast_to(integrality, c.shape).astype(np.uint8)
    lp = _h.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = c.size
    lp.num_row_ = lp.a_matrix_.num_row_ = row_upper.size
    lp.a_matrix_.format_ = _h.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = matrix
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, col_lower, col_upper
    lp.row_lower_, lp.row_upper_ = row_lower, row_upper
    lp.integrality_ = [_h.HighsVarType(i) for i in integrality]

    highs, highs_options = _h._Highs(), _h.HighsOptions()
    highs_options.log_to_console = False
    for key, value in options.items():
        if value is not None:
            try:
                setattr(highs_options, key, value)
            except (AttributeError, TypeError) as exc:
                raise SolverError(f"HiGHS option {key}={value!r}: {exc}") from None
    if highs.passOptions(highs_options) == _h.HighsStatus.kError:
        raise SolverError(f"HiGHS rejects the options {options}")
    if highs.passModel(lp) == _h.HighsStatus.kError:
        return _CODES[_Status.kModelError], None
    if highs.run() == _h.HighsStatus.kError:
        return _CODES.get(highs.getModelStatus(), 4), None
    status = highs.getModelStatus()
    if integrality.any():
        solved = status == _Status.kOptimal or (
            status in _LIMITS and highs.getInfo().objective_function_value != _h.kHighsInf)
    else:
        solved = status == _Status.kOptimal
    x = np.array(highs.getSolution().col_value) if solved else None
    return _CODES.get(status, 4), x
