"""Fidelity metrics between target and replayed features.

MAE, GMAPE and GMQE per dimension at window level, and for metrics at
interval level.  Geometric means are computed as means of logs so long,
badly-matched series neither overflow nor underflow.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .features import floored, relative_errors
from .trace import IntervalTargets, Trace, WindowTargets, build_targets, write_columns

EPS_DEFAULT = 1e-9


def _check_lengths(targets, achieved) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(targets, dtype=float)
    a = np.asarray(achieved, dtype=float)
    if t.shape != a.shape or t.ndim != 1 or t.size == 0:
        raise ValidationError("series must be nonempty 1-D arrays of equal length")
    return t, a


def mae(targets, achieved) -> float:
    t, a = _check_lengths(targets, achieved)
    return float(np.mean(np.abs(t - a)))


def gmape(targets, achieved, eps: float = EPS_DEFAULT) -> float:
    """Geometric mean of (`features.relative_errors` + 1), minus 1: the
    selection objective's rule, with zero targets floored at eps."""
    t, a = _check_lengths(targets, achieved)
    return float(np.expm1(np.mean(np.log1p(relative_errors(a, t, eps)))))


def gmqe(targets, achieved, eps: float = EPS_DEFAULT) -> float:
    """Geometric mean of max(F/F~, F~/F) per point, both values floored at eps."""
    t, a = (floored(x, eps) for x in _check_lengths(targets, achieved))
    q = np.maximum(np.log(t) - np.log(a), np.log(a) - np.log(t))
    return float(np.exp(np.mean(q)))


@dataclass
class DimensionScores:
    mae: float
    gmape: float
    gmqe: float
    n: int


@dataclass
class FidelityReport:
    window_level: dict[str, DimensionScores]
    interval_level: dict[str, DimensionScores]
    # (ts, dimension, target, replayed): interval series for metrics,
    # window series for operators
    plot_data: list[tuple[int, str, float, float]]

    def rows(self) -> list[tuple[str, str, str, float, int]]:
        out = []
        for level, scores in (("window", self.window_level), ("interval", self.interval_level)):
            for dim in sorted(scores):
                s = scores[dim]
                out.append((level, dim, "mae", s.mae, s.n))
                out.append((level, dim, "gmape", s.gmape, s.n))
                out.append((level, dim, "gmqe", s.gmqe, s.n))
        return out


def _scores(target_series: np.ndarray, achieved_series: np.ndarray, eps: float) -> DimensionScores:
    return DimensionScores(
        mae=mae(target_series, achieved_series),
        gmape=gmape(target_series, achieved_series, eps),
        gmqe=gmqe(target_series, achieved_series, eps),
        n=len(target_series),
    )


def report(
    window_targets: WindowTargets,
    interval_targets: IntervalTargets,
    replayed: Trace,
    eps: float,
) -> FidelityReport:
    """Compare the replayed trace against the original targets on their grid."""
    grid = interval_targets.grid
    # on the targets' own grid, so a target and a replayed series have equal lengths
    windows, intervals = build_targets(replayed, window_targets.len_ms, grid.interval_len_ms,
                                       span=(grid.start_ts, grid.end_ts))
    schema = replayed.schema
    tgt_w, tgt_i = window_targets.features, interval_targets.metrics
    rep_w, rep_i = windows.features, intervals.metrics
    window_level = {
        dim: _scores(tgt_w[:, d], rep_w[:, d], eps) for d, dim in enumerate(schema.dimensions)
    }
    interval_level = {
        m: _scores(tgt_i[:, d], rep_i[:, d], eps) for d, m in enumerate(schema.metrics)
    }
    interval_ts = (grid.start_ts + grid.interval_len_ms * np.arange(grid.n_intervals)).tolist()
    window_ts = (window_targets.start_ts
                 + window_targets.len_ms * np.arange(len(window_targets))).tolist()
    plot_data = [(ts, m, float(tgt_i[row, d]), float(rep_i[row, d]))
                 for d, m in enumerate(schema.metrics) for row, ts in enumerate(interval_ts)]
    plot_data += [(ts, op, float(tgt_w[row, d]), float(rep_w[row, d]))
                  for d, op in enumerate(schema.operators, schema.n_metrics)
                  for row, ts in enumerate(window_ts)]

    return FidelityReport(window_level, interval_level, plot_data)


def write_report(rep: FidelityReport, scores_path, plot_path) -> None:
    """`rep.rows()` to scores.csv and `rep.plot_data` to plot_data.csv, every
    float written by `repr`."""
    scores = np.array(rep.rows(), dtype=object).reshape(-1, 5)
    write_columns(scores_path, ["level", "dimension", "metric", "value", "n"],
                  [scores[:, 0].tolist(), scores[:, 1].tolist(), scores[:, 2].tolist(),
                   list(map(repr, scores[:, 3].tolist())), scores[:, 4].astype(np.int64)])
    plot = np.array(rep.plot_data, dtype=object).reshape(-1, 4)
    write_columns(plot_path, ["ts", "dimension", "target", "replayed"],
                  [plot[:, 0].astype(np.int64), plot[:, 1].tolist(),
                   list(map(repr, plot[:, 2].tolist())), list(map(repr, plot[:, 3].tolist()))])
