"""Workload component catalog: benchmark queries with profiled features.

Each component pairs a query with a populated benchmark database reference
and carries the feature and duration measured by an executor.  A `Catalog`
holds the columns of catalog.csv, and its constructor is the one check of a
row: a query that `profile_query` has profiled becomes a one-row catalog,
which `Catalog.appended` joins to another.  A `WorkloadComponent` is one row
as `Catalog.row` presents it.  The executor is an interface; a deterministic
simulated executor ships with the package so the whole pipeline runs without
a real warehouse.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Protocol

import numpy as np
from numpy.random import default_rng

from .errors import ProfilingError, SchemaError, ValidationError
from .features import FeatureSchema, PerformanceFeature, check_feature
from .trace import read_columns, write_columns

ORIGIN_BENCHMARK = "benchmark"
ORIGIN_AUGMENTED = "augmented"

CATALOG_FIXED_COLUMNS = ("component_id", "benchmark", "scale_factor", "skewness", "duration_ms")


@dataclass(frozen=True)
class DatabaseDescriptor:
    """A populated benchmark database variant."""

    benchmark_name: str
    scale_factor: float
    skewness: int = 0

    def __post_init__(self):
        if not 0 < self.scale_factor < np.inf:  # NaN too
            rule = "positive" if np.isfinite(self.scale_factor) else "finite"
            raise ValidationError(f"scale_factor must be {rule}")
        if not 0 <= self.skewness <= 4:
            raise ValidationError("skewness level must be in 0..4")


@dataclass
class WorkloadComponent:
    """One catalog row, as `Catalog.row` presents it; bench/child.py reads
    it through `Catalog.get`."""

    component_id: str
    query_ref: str
    database_ref: DatabaseDescriptor
    duration_ms: float
    feature: PerformanceFeature
    origin: str = ORIGIN_BENCHMARK


class Catalog:
    """The columns of catalog.csv, in its order: the lists of strings `ids`
    and `benchmark`, the float64 `scale_factor`, the int64 `skewness`, the
    float64 `duration_ms`, one (components x dimensions) float64 `features`
    table, and the lists `query_ref` and `origin`.  The constructor checks
    them all at once and names the first offending component; no method
    changes them, and `appended` returns a new catalog.
    """

    def __init__(self, ids: list[str], benchmark: list[str], scale_factor, skewness,
                 duration_ms, features: np.ndarray, query_ref: list[str], origin: list[str],
                 schema: FeatureSchema):
        self.ids, self.benchmark = list(ids), list(benchmark)
        self.scale_factor = np.asarray(scale_factor, dtype=float)
        self.skewness = np.asarray(skewness, dtype=np.int64)
        self.duration_ms = np.asarray(duration_ms, dtype=float)
        self.features = np.asarray(features, dtype=float)
        self.query_ref, self.origin = list(query_ref), list(origin)
        self.schema = schema
        n = len(self.ids)
        # each id's first row
        self._rows = dict(zip(reversed(self.ids), range(n - 1, -1, -1)))
        if any(len(column) != n for column in self.columns):
            raise ValidationError("catalog columns differ in length")
        if not n:
            self.features = self.features.reshape(0, len(schema.dimensions))
        if self.features.ndim != 2 or self.features.shape[1] != len(schema.dimensions):
            raise SchemaError(f"component {self.ids[0]!r} feature dimensions do not match schema")
        # in the order one component's fields were checked
        faults = (
            # a numpy str array, such as Schedule.component_id, drops trailing NULs
            (np.array([i.endswith("\0") for i in self.ids], dtype=bool),
             "component {!r}: component_id ends in a NUL character"),
            (~np.isfinite(self.scale_factor), "component {!r}: scale_factor must be finite"),
            (self.scale_factor <= 0, "component {!r}: scale_factor must be positive"),
            ((self.skewness < 0) | (self.skewness > 4),
             "component {!r}: skewness level must be in 0..4"),
            (~np.isfinite(self.features).all(axis=1),
             "component {!r}: feature entries must be finite"),
            ((self.features < 0).any(axis=1),
             "component {!r}: feature entries must be nonnegative"),
            (~np.isfinite(self.duration_ms), "component {!r}: duration_ms must be finite"),
            (self.duration_ms <= 0, "component {!r}: duration_ms must be positive"),
            (self.index(self.ids) != np.arange(n), "duplicate component_id {!r}"),
        )
        bad = np.flatnonzero(np.any([mask for mask, _ in faults], axis=0))
        if bad.size:
            j = int(bad[0])
            raise ValidationError(next(m for mask, m in faults if mask[j]).format(self.ids[j]))

    @property
    def columns(self) -> tuple:
        """The constructor's arguments but the schema."""
        return (self.ids, self.benchmark, self.scale_factor, self.skewness, self.duration_ms,
                self.features, self.query_ref, self.origin)

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, component_id: str) -> bool:
        return component_id in self._rows

    def index(self, ids) -> np.ndarray:
        """The row of each of `ids`; an id the catalog lacks is a ValidationError."""
        try:
            return np.fromiter(map(self._rows.__getitem__, ids), dtype=np.intp, count=len(ids))
        except KeyError as exc:
            raise ValidationError(f"unknown component_id {str(exc.args[0])!r}") from None

    def row(self, j: int) -> WorkloadComponent:
        """Row j as a component, built from the columns."""
        m = self.schema.n_metrics
        return WorkloadComponent(
            self.ids[j], self.query_ref[j],
            DatabaseDescriptor(self.benchmark[j], float(self.scale_factor[j]),
                               int(self.skewness[j])),
            float(self.duration_ms[j]),
            PerformanceFeature(self.features[j, :m], self.features[j, m:]), self.origin[j])

    def get(self, component_id: str) -> WorkloadComponent:
        """`row` of the component's row; only bench/child.py reads components by id."""
        return self.row(int(self.index([component_id])[0]))

    def appended(self, rows: "Catalog") -> "Catalog":
        """A new catalog of these rows, then those of `rows`, a catalog of
        the same schema; this one is unchanged."""
        if rows.schema != self.schema:
            raise SchemaError("appended rows' feature schema differs from the catalog's")
        return Catalog(*(mine + theirs if isinstance(mine, list) else np.concatenate([mine, theirs])
                         for mine, theirs in zip(self.columns, rows.columns)), self.schema)


def load_catalog(path, schema: FeatureSchema) -> Catalog:
    """Read a catalog CSV through `read_columns`.  A header without the
    trailing `query_ref` or `origin` column reads them as empty and as
    benchmark."""
    # the features come before duration_ms, so a row cut short after
    # skewness names the first feature column
    columns = read_columns(path, "catalog", {
        "component_id": str, "benchmark": str, "scale_factor": float, "skewness": int,
        **dict.fromkeys(schema.dimensions, float), "duration_ms": float,
        "query_ref": str, "origin": str,
    }, {"query_ref": "", "origin": ORIGIN_BENCHMARK})
    return Catalog(*(columns[c] for c in CATALOG_FIXED_COLUMNS),
                   np.column_stack([columns[c] for c in schema.dimensions]),
                   columns["query_ref"], columns["origin"], schema)


def save_catalog(catalog: Catalog, path) -> None:
    """Write the columns through `write_columns`, in the order `load_catalog` reads."""
    write_columns(path, [*CATALOG_FIXED_COLUMNS, *catalog.schema.dimensions, "query_ref",
                         "origin"], list(catalog.columns))


class Executor(Protocol):
    """Runs one query against one database and reports duration + feature vector."""

    def run(self, query_ref: str, database_ref: DatabaseDescriptor) -> tuple[float, np.ndarray]:
        ...


_ANNOTATION_RE = re.compile(r"/\*\s*profile:\s*(?P<body>[^*]*)\*/")


class SimulatedExecutor:
    """Deterministic stand-in for running queries on a real cluster.

    Each run reads the profile from an inline annotation in the query text:
    ``/* profile: duration_ms=120; cpu_time_ms=40; ... */``.
    Metric values can be capped proportionally to the database's scale factor
    (``metric_caps_per_sf``), modelling queries that cannot consume more than
    the database offers.  Optional multiplicative noise (one draw per run,
    seeded) models varying cache conditions.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        noise_sigma: float = 0.0,
        seed: int = 0,
        metric_caps_per_sf: dict[str, float] | None = None,
    ):
        self.schema = schema
        self.noise_sigma = noise_sigma
        self.metric_caps_per_sf = dict(metric_caps_per_sf or {})
        self._rng = default_rng(seed)

    def run(self, query_ref: str, database_ref: DatabaseDescriptor) -> tuple[float, np.ndarray]:
        match = _ANNOTATION_RE.search(query_ref)
        if match is None:
            raise ValidationError(
                f"simulated executor has no profile annotation for {query_ref!r}")
        values: dict[str, float] = {}
        for part in match.group("body").split(";"):
            part = part.strip()
            if not part:
                continue
            key, _, raw = part.partition("=")
            values[key.strip()] = float(raw)
        duration = values.pop("duration_ms", 1000.0)
        feature = np.array([values.get(d, 0.0) for d in self.schema.dimensions])
        # the query text is outside input: an annotated value no feature may
        # hold fails the run, before the noise draw
        check_feature(feature)
        for name, cap in self.metric_caps_per_sf.items():
            if name in self.schema.metrics:
                idx = self.schema.metrics.index(name)
                feature[idx] = min(feature[idx], cap * database_ref.scale_factor)
        if self.noise_sigma > 0:
            factor = 1.0 + self.noise_sigma * float(self._rng.standard_normal())
            factor = max(factor, 0.01)
            feature[:self.schema.n_metrics] *= factor
            duration = duration * factor
        return float(duration), feature


def profile_query(executor: Executor, query_ref: str, database: DatabaseDescriptor,
                  repetitions: int) -> tuple[float, np.ndarray]:
    """The mean duration and the mean feature vector of `repetitions`
    executor runs of the query; a failed run raises ProfilingError carrying
    the run index."""
    if repetitions < 1:
        raise ValidationError("repetitions must be >= 1")
    runs = []
    for run_index in range(repetitions):
        try:
            runs.append(executor.run(query_ref, database))
        except Exception as exc:
            raise ProfilingError(f"executor failed on run {run_index}: {exc}",
                                 run_index=run_index) from exc
    durations, features = zip(*runs)
    return float(np.mean(durations)), np.mean(features, axis=0)
