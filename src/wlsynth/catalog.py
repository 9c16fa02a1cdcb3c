"""Workload component catalog: benchmark queries with profiled features.

Each component pairs a query with a populated benchmark database reference
and carries the feature and duration measured by an executor.  The executor
is an interface; a deterministic simulated executor ships with the package
so the whole pipeline runs without a real warehouse.
"""
from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from typing import Protocol

import numpy as np
from numpy.random import default_rng

from .errors import ProfilingError, SchemaError, ValidationError
from .features import FeatureSchema, PerformanceFeature
from .trace import _format_number, read_columns

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
        if self.scale_factor <= 0:
            raise ValidationError("scale_factor must be positive")
        if not 0 <= self.skewness <= 4:
            raise ValidationError("skewness level must be in 0..4")

    @property
    def key(self) -> tuple[str, float, int]:
        return (self.benchmark_name, self.scale_factor, self.skewness)


@dataclass
class WorkloadComponent:
    """A benchmark query plus database with its profiled feature and duration."""

    component_id: str
    query_ref: str
    database_ref: DatabaseDescriptor
    duration_ms: float
    feature: PerformanceFeature
    origin: str = ORIGIN_BENCHMARK

    def __post_init__(self):
        if self.duration_ms <= 0:
            raise ValidationError(
                f"component {self.component_id!r}: duration_ms must be positive"
            )


class Catalog:
    """Read-mostly pool of components with id lookup and shared schema."""

    def __init__(self, components: list[WorkloadComponent], schema: FeatureSchema):
        self.schema = schema
        self.components: list[WorkloadComponent] = []
        self._by_id: dict[str, WorkloadComponent] = {}
        for comp in components:
            self.add(comp)

    def add(self, component: WorkloadComponent) -> None:
        if component.component_id in self._by_id:
            raise ValidationError(f"duplicate component_id {component.component_id!r}")
        if component.feature.metrics.shape[0] != self.schema.n_metrics or \
                component.feature.operators.shape[0] != self.schema.n_operators:
            raise SchemaError(
                f"component {component.component_id!r} feature dimensions do not match schema"
            )
        self.components.append(component)
        self._by_id[component.component_id] = component

    def get(self, component_id: str) -> WorkloadComponent:
        try:
            return self._by_id[component_id]
        except KeyError:
            raise ValidationError(f"unknown component_id {component_id!r}") from None

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __contains__(self, component_id: str) -> bool:
        return component_id in self._by_id

    def feature_matrix(self) -> np.ndarray:
        """Components as rows, dimensions in schema order."""
        return np.array([c.feature.as_vector() for c in self.components]).reshape(
            len(self.components), len(self.schema.dimensions))

    def copy(self) -> "Catalog":
        return Catalog(list(self.components), self.schema)


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
    features = np.column_stack([columns[c] for c in schema.dimensions])
    return Catalog([
        WorkloadComponent(component_id, query_ref, DatabaseDescriptor(benchmark, sf, skewness),
                          duration, PerformanceFeature.from_vector(vector, schema), origin)
        for component_id, benchmark, sf, skewness, duration, query_ref, origin, vector in zip(
            *(columns[c] for c in CATALOG_FIXED_COLUMNS + ("query_ref", "origin")), features)
    ], schema)


def save_catalog(catalog: Catalog, path) -> None:
    schema = catalog.schema
    header = list(CATALOG_FIXED_COLUMNS) + list(schema.dimensions) + ["query_ref", "origin"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for comp in catalog:
            row = [
                comp.component_id,
                comp.database_ref.benchmark_name,
                _format_number(comp.database_ref.scale_factor),
                comp.database_ref.skewness,
                _format_number(comp.duration_ms),
            ]
            row += [_format_number(v) for v in comp.feature.as_vector()]
            row += [comp.query_ref, comp.origin]
            writer.writerow(row)


class Executor(Protocol):
    """Runs one query against one database and reports duration + feature."""

    def run(self, query_ref: str, database_ref: DatabaseDescriptor
            ) -> tuple[float, PerformanceFeature]:
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

    def _parse_annotation(self, query_ref: str) -> tuple[float, PerformanceFeature]:
        match = _ANNOTATION_RE.search(query_ref)
        if match is None:
            raise ValidationError(
                f"simulated executor has no profile annotation for {query_ref!r}"
            )
        values: dict[str, float] = {}
        for part in match.group("body").split(";"):
            part = part.strip()
            if not part:
                continue
            key, _, raw = part.partition("=")
            values[key.strip()] = float(raw)
        duration = values.pop("duration_ms", 1000.0)
        feature = PerformanceFeature(
            np.array([values.get(m, 0.0) for m in self.schema.metrics]),
            np.array([values.get(o, 0.0) for o in self.schema.operators]),
        )
        return duration, feature

    def run(self, query_ref: str, database_ref: DatabaseDescriptor
            ) -> tuple[float, PerformanceFeature]:
        duration, feature = self._parse_annotation(query_ref)
        metrics = feature.metrics.copy()
        for name, cap in self.metric_caps_per_sf.items():
            if name in self.schema.metrics:
                idx = self.schema.metric_index(name)
                metrics[idx] = min(metrics[idx], cap * database_ref.scale_factor)
        if self.noise_sigma > 0:
            factor = 1.0 + self.noise_sigma * float(self._rng.standard_normal())
            factor = max(factor, 0.01)
            metrics = metrics * factor
            duration = duration * factor
        return float(duration), PerformanceFeature(metrics, feature.operators.copy())


def profile_component(
    component: WorkloadComponent, executor: Executor, repetitions: int = 3
) -> WorkloadComponent:
    """Profile a component as the mean of `repetitions` executor runs.

    The entry is updated in place only after every run succeeds; a failed run
    raises ProfilingError carrying the run index and leaves it untouched.
    """
    if repetitions < 1:
        raise ValidationError("repetitions must be >= 1")
    durations = []
    metric_rows = []
    operator_rows = []
    for run_index in range(repetitions):
        try:
            duration, feature = executor.run(component.query_ref, component.database_ref)
        except Exception as exc:
            raise ProfilingError(
                f"executor failed on run {run_index} for {component.component_id!r}: {exc}",
                run_index=run_index,
            ) from exc
        durations.append(duration)
        metric_rows.append(feature.metrics)
        operator_rows.append(feature.operators)
    component.duration_ms = float(np.mean(durations))
    component.feature = PerformanceFeature(
        np.mean(metric_rows, axis=0), np.mean(operator_rows, axis=0)
    )
    return component
