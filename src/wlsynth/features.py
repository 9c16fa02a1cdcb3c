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

    def metric_index(self, name: str) -> int:
        return self.metrics.index(name)


@dataclass
class PerformanceFeature:
    """One point in feature space: metric vector M and operator vector O."""

    metrics: np.ndarray
    operators: np.ndarray

    def __post_init__(self):
        self.metrics = np.asarray(self.metrics, dtype=float)
        self.operators = np.asarray(self.operators, dtype=float)
        if not np.all(np.isfinite(self.metrics)) or not np.all(np.isfinite(self.operators)):
            raise ValidationError("feature entries must be finite")
        if np.any(self.metrics < 0) or np.any(self.operators < 0):
            raise ValidationError("feature entries must be nonnegative")

    def as_vector(self) -> np.ndarray:
        """Metrics followed by operators, matching FeatureSchema.dimensions order."""
        return np.concatenate([self.metrics, self.operators])

    @classmethod
    def from_vector(cls, vec: np.ndarray, schema: FeatureSchema) -> "PerformanceFeature":
        vec = np.asarray(vec, dtype=float)
        return cls(vec[: schema.n_metrics], vec[schema.n_metrics :])

    @classmethod
    def zeros(cls, schema: FeatureSchema) -> "PerformanceFeature":
        return cls(np.zeros(schema.n_metrics), np.zeros(schema.n_operators))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PerformanceFeature):
            return NotImplemented
        return np.array_equal(self.metrics, other.metrics) and np.array_equal(
            self.operators, other.operators
        )
