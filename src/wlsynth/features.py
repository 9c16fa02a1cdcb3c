"""Feature vectors: named performance metrics plus named operator statistics."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Operator columns either hold per-query counts or per-operator
# execution-time shares, depending on what the source trace exposes.
MODE_COUNTS = "counts"
MODE_TIME_SHARES = "time_shares"
MODES = (MODE_COUNTS, MODE_TIME_SHARES)


def floored(values, floor: float) -> np.ndarray:
    """|values| floored at `floor`: a zero stays a finite divisor and logarithm."""
    return np.maximum(np.abs(values), floor)


def relative_gaps(achieved, target, floor: float) -> np.ndarray:
    """(achieved - target) / max(|target|, floor), elementwise: the signed
    relative error.  The augmenter accepts a generated component when every
    metric gap is within its threshold and reads the signs for its hints."""
    return (achieved - target) / floored(target, floor)


def relative_errors(achieved, target, floor: float) -> np.ndarray:
    """|relative_gaps|, elementwise.  Selection and annealing minimise its sum
    (`selector.relative_error`); GMAPE is its geometric mean (`metrics.gmape`)."""
    return np.abs(relative_gaps(achieved, target, floor))


def check_feature(values: np.ndarray) -> None:
    """A feature's entries must all be finite, then all be nonnegative."""
    if not np.isfinite(values).all():
        raise ValidationError("feature entries must be finite")
    if (values < 0).any():
        raise ValidationError("feature entries must be nonnegative")


def row_groups(matrix: np.ndarray) -> np.ndarray:
    """Each row's group number: rows whose entries are all equal (`==`, so
    -0.0 joins 0.0 and a row with a NaN is alone) share one, and the groups
    are numbered from 0 in the lexicographic order of their rows.  One
    np.lexsort, then each sorted row against the next; `np.unique(matrix,
    axis=0)` finds the same groups but loads numpy.ma to do it."""
    order = np.lexsort(matrix.T[::-1])
    ordered = matrix[order]
    starts = np.ones(len(matrix), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    groups = np.empty(len(matrix), dtype=np.intp)
    groups[order] = np.cumsum(starts) - 1
    return groups


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered metric and operator dimension names, fixed per trace."""

    metrics: tuple[str, ...]
    operators: tuple[str, ...]

    def __post_init__(self):
        names = self.metrics + self.operators
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate dimension names in schema: {names}")

    @property
    def dimensions(self) -> tuple[str, ...]:
        return self.metrics + self.operators

    @property
    def n_metrics(self) -> int:
        return len(self.metrics)

    @property
    def n_operators(self) -> int:
        return len(self.operators)


@dataclass
class PerformanceFeature:
    """One point in feature space: metric vector M and operator vector O."""

    metrics: np.ndarray
    operators: np.ndarray

    def __post_init__(self):
        self.metrics = np.asarray(self.metrics, dtype=float)
        self.operators = np.asarray(self.operators, dtype=float)
        check_feature(self.as_vector())

    def as_vector(self) -> np.ndarray:
        """Metrics followed by operators, matching FeatureSchema.dimensions order."""
        return np.concatenate([self.metrics, self.operators])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PerformanceFeature):
            return NotImplemented
        return np.array_equal(self.metrics, other.metrics) and np.array_equal(
            self.operators, other.operators
        )
