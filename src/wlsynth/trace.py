"""Trace ingestion and aggregation into window/interval generation targets.

A trace row carries one query's observable statistics: arrival timestamp,
duration, performance metrics and operator statistics.  Aggregation spreads
each query's metric mass uniformly over its execution span and sums it per
time interval; operator statistics are aggregated at window granularity only.

The row loops run as bulk numpy code.  Ingest parses every row's numeric
cells into one table and checks it column-wise.  Aggregation expands each
query into (record, interval, share) triples a block of records at a time
and applies them with `np.add.at`, which keeps the per-record summation
order, so targets do not depend on the block size.  Export formats a block
of rows at a time and writes them with one `writerows`.
"""
from __future__ import annotations

import csv
import logging
import math
from array import array
from dataclasses import dataclass
from itertools import islice
from operator import eq, itemgetter

import numpy as np

from .errors import ConfigError, SchemaError, TraceParseError, ValidationError
from .features import MODE_COUNTS, MODE_TIME_SHARES, MODES, FeatureSchema, PerformanceFeature

log = logging.getLogger(__name__)

MANDATORY_COLUMNS = ("query_id", "arrival_ts", "duration_ms")

# Records per block in ingest_trace, build_targets and export_trace; bounds the size
# of temporaries, whose heap churn otherwise shows in peak RSS.
_BLOCK = 256


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


def _parse_number(raw: str | None, row: int, column: str) -> float:
    if raw is None:
        raise TraceParseError(f"row {row}, column {column!r}: missing value")
    try:
        value = float(raw)
    except ValueError as exc:
        raise TraceParseError(f"row {row}, column {column!r}: cannot parse {raw!r}") from exc
    if math.isnan(value) or math.isinf(value):
        raise TraceParseError(f"row {row}, column {column!r}: non-finite value {raw!r}")
    return value


def _check_row(row: dict, rownum: int, schema: FeatureSchema) -> None:
    """Raise the error for the first contract breach in one trace row, read as by DictReader."""
    arrival = _parse_number(row.get("arrival_ts"), rownum, "arrival_ts")
    duration = _parse_number(row.get("duration_ms"), rownum, "duration_ms")
    if duration < 0:
        raise ValidationError(f"row {rownum}: negative duration_ms {duration}")
    values = [_parse_number(row.get(c), rownum, c) for c in schema.dimensions]
    if any(v < 0 for v in values):
        raise ValidationError(f"row {rownum}: negative metric or operator value")
    for column, value in (("arrival_ts", arrival), ("duration_ms", duration)):
        if not value.is_integer():
            raise ValidationError(f"row {rownum}, column {column!r}: non-integral value {value!r}")
    if row.get("query_id") is None:
        raise TraceParseError(f"row {rownum}, column 'query_id': missing value")


def _read_row(path, index: int) -> list[str]:
    """The cells of data row `index` (0-based, blank lines skipped) of a CSV file."""
    with open(path, newline="", encoding="utf-8") as fh:
        return next(islice(filter(None, csv.reader(fh)), index + 1, None))


def _check_unique(ids: list[str]) -> None:
    """Reject a repeated query_id, naming the row where it repeats."""
    # a sorted copy holds far less memory than a set of every id
    ordered = sorted(ids)
    if any(map(eq, ordered, islice(ordered, 1, None))):
        first_row: dict[str, int] = {}
        for rownum, qid in enumerate(ids, start=2):
            if first_row.setdefault(qid, rownum) != rownum:
                raise ValidationError(
                    f"row {rownum}: duplicate query_id {qid!r} (first at row {first_row[qid]})"
                )


def ingest_trace(path, schema: FeatureSchema, mode: str = MODE_COUNTS) -> Trace:
    """Read a trace CSV into a Trace.

    The header must declare query_id, arrival_ts, duration_ms and every
    metric/operator column named by the schema.  Row order is preserved.
    The numeric cells of all rows are parsed into one table, which is
    checked as a whole: values must be finite, durations, metrics and
    operators nonnegative, and arrival_ts and duration_ms integral.  The
    first offending row is read again and checked cell by cell to name the
    error.  A repeated query_id is rejected.  Records hold row views of the
    table.
    """
    columns = ("arrival_ts", "duration_ms") + schema.dimensions
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for col in MANDATORY_COLUMNS + schema.dimensions:
            if col not in header:
                raise SchemaError(f"trace file {path} is missing column {col!r}")
        # a repeated column name reads as its last occurrence, as with DictReader
        position = {name: i for i, name in enumerate(header)}
        query_id = itemgetter(position["query_id"])
        numeric = itemgetter(*(position[c] for c in columns))
        ids: list[str] = []
        values = array("d")
        failed = None
        try:
            for row in filter(None, reader):  # DictReader skips blank lines too
                values.extend(map(float, numeric(row)))
                ids.append(query_id(row))
        except (IndexError, ValueError):
            failed = len(ids)
            del values[failed * len(columns):]

    table = np.frombuffer(values, dtype=float).reshape(len(ids), len(columns))
    times = table[:, :2]
    bad = np.flatnonzero(
        ~np.isfinite(table).all(axis=1)
        | (table[:, 1:] < 0).any(axis=1)
        | (np.floor(times) != times).any(axis=1)
    )
    if bad.size or failed is not None:
        index = int(bad[0]) if bad.size else failed
        _check_row(dict(zip(header, _read_row(path, index))), index + 2, schema)
    _check_unique(ids)

    m = 2 + schema.n_metrics
    records: list[QueryRecord] = []
    for b in range(0, len(ids), _BLOCK):
        rows = table[b:b + _BLOCK]
        records += map(
            QueryRecord,
            ids[b:b + _BLOCK],
            map(int, rows[:, 0].tolist()),
            map(int, rows[:, 1].tolist()),
            rows[:, 2:m],
            rows[:, m:],
        )
    return Trace(records=records, schema=schema, mode=mode)


def _format_float(value: float) -> str:
    return str(int(value)) if value.is_integer() else repr(value)


def _format_number(value: float) -> str:
    return _format_float(float(value))


def _table(rows: list, width: int) -> np.ndarray:
    """Stack equal-length vectors into an (n, width) float array."""
    return np.array(rows, dtype=float).reshape(len(rows), width)


def export_trace(trace: Trace, path) -> None:
    """Write a trace back out under the same CSV contract as ingest_trace."""
    schema = trace.schema
    records = trace.records

    def rows():
        for b in range(0, len(records), _BLOCK):
            block = records[b:b + _BLOCK]
            values = np.hstack((_table([r.metrics for r in block], schema.n_metrics),
                                _table([r.operators for r in block], schema.n_operators)))
            for rec, cells in zip(block, values.tolist()):
                yield (rec.query_id, rec.arrival_ts, rec.duration_ms, *map(_format_float, cells))

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(MANDATORY_COLUMNS) + list(schema.dimensions))
        writer.writerows(rows())


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
    means in time_shares mode.  Mass outside the span, by default the
    smallest one covering every execution, is clipped and logged.

    The work runs on arrays, a block of records at a time.  Each query
    expands into one (record, interval, overlap / duration) triple per
    interval it overlaps, one triple with share 1 for a zero-duration query.
    `np.add.at` applies repeated indices one after another in the order
    given, and the triples come in record order, so every interval and
    window receives its terms in trace order: the sums are bit-identical to
    a per-record loop and do not depend on the block size.
    """
    if window_len_ms <= 0 or interval_len_ms <= 0:
        raise ConfigError("window_len_ms and interval_len_ms must be positive")
    if window_len_ms % interval_len_ms != 0:
        raise ConfigError(
            f"window_len_ms ({window_len_ms}) must be a multiple of "
            f"interval_len_ms ({interval_len_ms})"
        )
    records = trace.records
    if not records:
        raise ValidationError("cannot build targets from an empty trace")

    schema = trace.schema
    n = len(records)
    arrival = np.fromiter((r.arrival_ts for r in records), dtype=np.int64, count=n)
    duration = np.fromiter((r.duration_ms for r in records), dtype=np.int64, count=n)
    if span is None:
        ends = np.maximum(duration, 1)
        ends += arrival
        start, end = int(arrival.min()), int(ends.max())
    else:
        start, end = span
    n_windows = max(1, math.ceil((end - start) / window_len_ms))
    intervals_per_window = window_len_ms // interval_len_ms
    n_intervals = n_windows * intervals_per_window
    span_end = start + n_windows * window_len_ms

    interval_metrics = np.zeros((n_intervals, schema.n_metrics))
    window_ops = np.zeros((n_windows, schema.n_operators))
    window_op_weight = np.zeros(n_windows)
    query_counts = np.zeros(n_windows, dtype=int)
    clipped_mass = 0.0

    for b in range(0, n, _BLOCK):
        a, d = arrival[b:b + _BLOCK], duration[b:b + _BLOCK]
        point = d == 0
        # each query's execution clipped to the grid, and the intervals it touches
        lo = np.maximum(a, start)
        hi = np.minimum(a + d, span_end)
        first = np.where(point, a - start, lo - start) // interval_len_ms
        last = np.where(point, first, (hi - 1 - start) // interval_len_ms)
        inside = np.where(point, (first >= 0) & (first < n_intervals), hi > lo)
        n_bins = np.where(inside, last - first + 1, 0)

        # one triple per (query, interval), queries in order, intervals ascending
        rec = np.repeat(np.arange(a.size), n_bins)
        k = first[rec] + np.arange(rec.size) - np.repeat(np.cumsum(n_bins) - n_bins, n_bins)
        bin_a = start + k * interval_len_ms
        overlap = np.minimum(hi[rec], bin_a + interval_len_ms) - np.maximum(lo[rec], bin_a)
        share = np.where(point[rec], 1.0, overlap / np.maximum(d[rec], 1))
        block = records[b:b + _BLOCK]
        block_metrics = _table([r.metrics for r in block], schema.n_metrics)
        np.add.at(interval_metrics, k, block_metrics[rec] * share[:, None])
        kept = np.where(point, inside, np.maximum(hi - lo, 0) / np.maximum(d, 1))
        clipped_mass += float(np.sum(block_metrics.sum(axis=1) * (1.0 - kept)))

        w = (a - start) // window_len_ms
        ok = (w >= 0) & (w < n_windows)
        w = w[ok]
        query_counts += np.bincount(w, minlength=n_windows)
        ops = _table([r.operators for r in block], schema.n_operators)[ok]
        if trace.mode == MODE_COUNTS:
            np.add.at(window_ops, w, ops)
        else:
            weight = np.maximum(d[ok], 1).astype(float)
            np.add.at(window_ops, w, ops * weight[:, None])
            np.add.at(window_op_weight, w, weight)

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
