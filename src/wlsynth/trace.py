"""Trace ingestion and aggregation into window/interval generation targets.

A trace row carries one query's observable statistics: arrival timestamp,
duration, performance metrics and operator statistics.  Aggregation spreads
each query's metric mass uniformly over its execution span and sums it per
time interval; operator statistics are aggregated at window granularity only.
"""
from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SchemaError, TraceParseError, ValidationError
from .features import MODE_COUNTS, MODE_TIME_SHARES, MODES, FeatureSchema, PerformanceFeature

log = logging.getLogger(__name__)

MANDATORY_COLUMNS = ("query_id", "arrival_ts", "duration_ms")


@dataclass
class QueryRecord:
    """One trace row."""

    query_id: str
    arrival_ts: int
    duration_ms: int
    metrics: np.ndarray
    operators: np.ndarray

    @property
    def end_ts(self) -> int:
        return self.arrival_ts + self.duration_ms


@dataclass
class Trace:
    """A list of query records plus the schema and operator mode they share."""

    records: list[QueryRecord]
    schema: FeatureSchema
    mode: str = MODE_COUNTS

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown operator mode {self.mode!r}, expected one of {MODES}")

    def span(self) -> tuple[int, int]:
        """Smallest [start, end) covering every record's execution."""
        if not self.records:
            raise ValidationError("empty trace has no span")
        start = min(r.arrival_ts for r in self.records)
        end = max(max(r.end_ts, r.arrival_ts + 1) for r in self.records)
        return start, end


@dataclass
class WindowTarget:
    """Aggregated generation target for one coarse time window."""

    window_index: int
    window_start_ts: int
    window_len_ms: int
    feature: PerformanceFeature
    query_count: int


@dataclass
class IntervalTarget:
    """Fine-grained metric target for one interval inside a window."""

    window_index: int
    interval_index: int
    interval_start_ts: int
    metrics: np.ndarray


def _parse_number(raw: str, row: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise TraceParseError(f"row {row}, column {column!r}: cannot parse {raw!r}") from exc
    if math.isnan(value) or math.isinf(value):
        raise TraceParseError(f"row {row}, column {column!r}: non-finite value {raw!r}")
    return value


def ingest_trace(path, schema: FeatureSchema, mode: str = MODE_COUNTS) -> Trace:
    """Read a trace CSV into a Trace.

    The header must declare query_id, arrival_ts, duration_ms and every
    metric/operator column named by the schema.  Row order is preserved.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in MANDATORY_COLUMNS + schema.dimensions:
            if col not in header:
                raise SchemaError(f"trace file {path} is missing column {col!r}")
        records = []
        for rownum, row in enumerate(reader, start=2):
            arrival = _parse_number(row["arrival_ts"], rownum, "arrival_ts")
            duration = _parse_number(row["duration_ms"], rownum, "duration_ms")
            if duration < 0:
                raise ValidationError(f"row {rownum}: negative duration_ms {duration}")
            metrics = np.array(
                [_parse_number(row[m], rownum, m) for m in schema.metrics], dtype=float
            )
            operators = np.array(
                [_parse_number(row[o], rownum, o) for o in schema.operators], dtype=float
            )
            if np.any(metrics < 0) or np.any(operators < 0):
                raise ValidationError(f"row {rownum}: negative metric or operator value")
            records.append(
                QueryRecord(
                    query_id=row["query_id"],
                    arrival_ts=int(arrival),
                    duration_ms=int(duration),
                    metrics=metrics,
                    operators=operators,
                )
            )
    return Trace(records=records, schema=schema, mode=mode)


def _format_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def export_trace(trace: Trace, path) -> None:
    """Write a trace back out under the same CSV contract as ingest_trace."""
    schema = trace.schema
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(MANDATORY_COLUMNS) + list(schema.dimensions))
        for rec in trace.records:
            writer.writerow(
                [rec.query_id, rec.arrival_ts, rec.duration_ms]
                + [_format_number(v) for v in rec.metrics]
                + [_format_number(v) for v in rec.operators]
            )


def write_targets(
    windows: list[WindowTarget],
    intervals: list[IntervalTarget],
    windows_path,
    intervals_path,
    schema: FeatureSchema,
) -> None:
    with open(windows_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["window_index", "window_start_ts", "window_len_ms", "query_count"]
            + list(schema.dimensions)
        )
        for w in windows:
            writer.writerow(
                [w.window_index, w.window_start_ts, w.window_len_ms, w.query_count]
                + [_format_number(v) for v in w.feature.as_vector()]
            )
    with open(intervals_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["window_index", "interval_index", "interval_start_ts"] + list(schema.metrics)
        )
        for t in intervals:
            writer.writerow(
                [t.window_index, t.interval_index, t.interval_start_ts]
                + [_format_number(v) for v in t.metrics]
            )


def read_targets(
    windows_path, intervals_path, schema: FeatureSchema
) -> tuple[list[WindowTarget], list[IntervalTarget]]:
    windows = []
    with open(windows_path, newline="", encoding="utf-8") as fh:
        for rownum, row in enumerate(csv.DictReader(fh), start=2):
            feature = PerformanceFeature(
                np.array([_parse_number(row[m], rownum, m) for m in schema.metrics]),
                np.array([_parse_number(row[o], rownum, o) for o in schema.operators]),
            )
            windows.append(
                WindowTarget(
                    window_index=int(row["window_index"]),
                    window_start_ts=int(row["window_start_ts"]),
                    window_len_ms=int(row["window_len_ms"]),
                    feature=feature,
                    query_count=int(row["query_count"]),
                )
            )
    intervals = []
    with open(intervals_path, newline="", encoding="utf-8") as fh:
        for rownum, row in enumerate(csv.DictReader(fh), start=2):
            intervals.append(
                IntervalTarget(
                    window_index=int(row["window_index"]),
                    interval_index=int(row["interval_index"]),
                    interval_start_ts=int(row["interval_start_ts"]),
                    metrics=np.array(
                        [_parse_number(row[m], rownum, m) for m in schema.metrics]
                    ),
                )
            )
    return windows, intervals


def _spread_mass(bins: np.ndarray, grid_start: int, bin_len: int, a: float, b: float,
                 values: np.ndarray) -> None:
    """Add `values`, spread uniformly over [a, b), into time bins. Clips to the grid."""
    n_bins = bins.shape[0]
    grid_end = grid_start + n_bins * bin_len
    if b <= a:
        return
    total = b - a
    lo = max(a, grid_start)
    hi = min(b, grid_end)
    if hi <= lo:
        return
    first = int((lo - grid_start) // bin_len)
    last = int((hi - 1 - grid_start) // bin_len)
    for k in range(first, last + 1):
        bin_a = grid_start + k * bin_len
        overlap = min(hi, bin_a + bin_len) - max(lo, bin_a)
        if overlap > 0:
            bins[k] += values * (overlap / total)


def build_targets(
    trace: Trace,
    window_len_ms: int,
    interval_len_ms: int,
    span: tuple[int, int] | None = None,
) -> tuple[list[WindowTarget], list[IntervalTarget]]:
    """Aggregate query statistics into window- and interval-level targets.

    Metric mass is spread uniformly over [arrival, arrival + duration) and
    summed per interval; window metrics are the sums of their intervals.
    Zero-duration queries deposit all mass into the interval containing the
    arrival.  Operator statistics and query counts attach to the window
    containing the arrival: plain sums in counts mode, duration-weighted
    means in time_shares mode.  Mass outside the span is clipped and logged.
    """
    if window_len_ms <= 0 or interval_len_ms <= 0:
        raise ConfigError("window_len_ms and interval_len_ms must be positive")
    if window_len_ms % interval_len_ms != 0:
        raise ConfigError(
            f"window_len_ms ({window_len_ms}) must be a multiple of "
            f"interval_len_ms ({interval_len_ms})"
        )
    if not trace.records:
        raise ValidationError("cannot build targets from an empty trace")

    if span is None:
        start, end = trace.span()
    else:
        start, end = span
    n_windows = max(1, math.ceil((end - start) / window_len_ms))
    intervals_per_window = window_len_ms // interval_len_ms
    n_intervals = n_windows * intervals_per_window
    span_end = start + n_windows * window_len_ms

    schema = trace.schema
    interval_metrics = np.zeros((n_intervals, schema.n_metrics))
    window_ops = np.zeros((n_windows, schema.n_operators))
    window_op_weight = np.zeros(n_windows)
    query_counts = np.zeros(n_windows, dtype=int)
    clipped_mass = 0.0

    for rec in trace.records:
        a, d = rec.arrival_ts, rec.duration_ms
        if d == 0:
            k = int((a - start) // interval_len_ms)
            if 0 <= k < n_intervals:
                interval_metrics[k] += rec.metrics
            else:
                clipped_mass += float(np.sum(rec.metrics))
        else:
            inside = max(0.0, min(a + d, span_end) - max(a, start))
            clipped_mass += float(np.sum(rec.metrics)) * (1.0 - inside / d)
            _spread_mass(interval_metrics, start, interval_len_ms, a, a + d, rec.metrics)

        w = int((a - start) // window_len_ms)
        if 0 <= w < n_windows:
            query_counts[w] += 1
            if trace.mode == MODE_COUNTS:
                window_ops[w] += rec.operators
            else:
                weight = max(d, 1)
                window_ops[w] += rec.operators * weight
                window_op_weight[w] += weight

    if trace.mode == MODE_TIME_SHARES:
        nonzero = window_op_weight > 0
        window_ops[nonzero] /= window_op_weight[nonzero, None]

    if clipped_mass > 0:
        log.info("clipped %.6g units of metric mass outside the trace span", clipped_mass)

    windows: list[WindowTarget] = []
    intervals: list[IntervalTarget] = []
    for w in range(n_windows):
        rows = interval_metrics[w * intervals_per_window : (w + 1) * intervals_per_window]
        windows.append(
            WindowTarget(
                window_index=w,
                window_start_ts=start + w * window_len_ms,
                window_len_ms=window_len_ms,
                feature=PerformanceFeature(rows.sum(axis=0), window_ops[w].copy()),
                query_count=int(query_counts[w]),
            )
        )
        for j in range(intervals_per_window):
            intervals.append(
                IntervalTarget(
                    window_index=w,
                    interval_index=j,
                    interval_start_ts=start + w * window_len_ms + j * interval_len_ms,
                    metrics=rows[j].copy(),
                )
            )
    return windows, intervals
