"""Fidelity metrics between target and replayed features.

MAE, GMAPE and GMQE per dimension at window level, and for metrics at
interval level.  Geometric means are computed as means of logs so long,
badly-matched series neither overflow nor underflow.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .features import floored, relative_errors
from .trace import IntervalGrid, IntervalTarget, Trace, WindowTarget, bin_trace, target_matrix
# the benchmark's traced run wraps metrics.build_targets, so the name stays importable here
from .trace import build_targets  # noqa: F401

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
    window_targets: list[WindowTarget],
    interval_targets: list[IntervalTarget],
    replayed: Trace,
    eps: float,
) -> FidelityReport:
    """Compare the replayed trace against the original targets on their grid."""
    if not window_targets:
        raise ValidationError("no window targets")
    grid = IntervalGrid.from_targets(interval_targets)
    _, rep_i, rep_w, _ = bin_trace(replayed, window_targets[0].window_len_ms,
                                   grid.interval_len_ms, span=(grid.start_ts, grid.end_ts))
    if len(rep_w) != len(window_targets) or len(rep_i) != len(interval_targets):
        raise ValidationError("replayed trace grid does not match the target grid")

    # bin_trace returns windows and intervals in time order
    schema = replayed.schema
    windows = sorted(window_targets, key=lambda w: w.window_index)
    tgt_w = np.array([w.feature.as_vector() for w in windows])
    tgt_i = target_matrix(interval_targets)
    window_level = {
        dim: _scores(tgt_w[:, d], rep_w[:, d], eps) for d, dim in enumerate(schema.dimensions)
    }
    interval_level = {
        m: _scores(tgt_i[:, d], rep_i[:, d], eps) for d, m in enumerate(schema.metrics)
    }
    interval_ts = (grid.start_ts + grid.interval_len_ms * np.arange(grid.n_intervals)).tolist()
    plot_data = [(ts, m, float(tgt_i[row, d]), float(rep_i[row, d]))
                 for d, m in enumerate(schema.metrics) for row, ts in enumerate(interval_ts)]
    plot_data += [(w.window_start_ts, op, float(tgt_w[row, d]), float(rep_w[row, d]))
                  for d, op in enumerate(schema.operators, schema.n_metrics)
                  for row, w in enumerate(windows)]

    return FidelityReport(window_level, interval_level, plot_data)


def write_report(rep: FidelityReport, scores_path, plot_path) -> None:
    with open(scores_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "dimension", "metric", "value", "n"])
        for level, dim, name, value, n in rep.rows():
            writer.writerow([level, dim, name, repr(value), n])
    with open(plot_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ts", "dimension", "target", "replayed"])
        for ts, dim, target, replayed in rep.plot_data:
            writer.writerow([ts, dim, repr(target), repr(replayed)])
