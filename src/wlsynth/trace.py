"""Trace ingestion and aggregation into window/interval generation targets.

A trace row carries one query's observable statistics: arrival timestamp,
duration, performance metrics and operator statistics.  Aggregation spreads
each query's metric mass uniformly over its execution span and sums it per
time interval; operator statistics are aggregated at window granularity only.

A Trace holds its rows as columns, and every stage works on the columns
as bulk numpy code.  Ingest parses every row's numeric cells into one table
and checks it column-wise.  Aggregation spreads a block of rows at a time
through `IntervalGrid.spread`, which the scheduler's energy and the
fidelity report share, and which keeps the per-row summation order, so
targets do not depend on the block size.
Export formats a block of rows at a time and writes them with one
`writerows`.
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

# Rows per block in build_targets and export_trace; bounds the size of
# temporaries, whose heap churn otherwise shows in peak RSS.
_BLOCK = 256


@dataclass
class QueryRecord:
    """One trace row, as `Trace.records` presents it."""

    query_id: str
    arrival_ts: int
    duration_ms: int
    metrics: np.ndarray
    operators: np.ndarray

    @property
    def end_ts(self) -> int:
        return self.arrival_ts + self.duration_ms


class Trace:
    """Query rows held as columns, plus the schema and operator mode they share.

    `query_id` is a list of strings, `arrival_ts` and `duration_ms` are int64
    arrays, and `features` is one (rows x dimensions) float64 table, metrics
    then operators in schema order.  The constructor converts a list of
    records once; `from_columns` takes the columns as they are.
    """

    def __init__(self, records: list[QueryRecord], schema: FeatureSchema,
                 mode: str = MODE_COUNTS):
        features = np.array([np.concatenate((r.metrics, r.operators)) for r in records],
                            dtype=float).reshape(len(records), len(schema.dimensions))
        self._set([r.query_id for r in records], [r.arrival_ts for r in records],
                  [r.duration_ms for r in records], features, schema, mode)

    @classmethod
    def from_columns(cls, query_id: list[str], arrival_ts, duration_ms, features: np.ndarray,
                     schema: FeatureSchema, mode: str = MODE_COUNTS) -> "Trace":
        trace = cls.__new__(cls)
        trace._set(query_id, arrival_ts, duration_ms, features, schema, mode)
        return trace

    def _set(self, query_id, arrival_ts, duration_ms, features, schema, mode) -> None:
        if mode not in MODES:
            raise ConfigError(f"unknown operator mode {mode!r}, expected one of {MODES}")
        self.query_id = list(query_id)
        self.arrival_ts = np.asarray(arrival_ts, dtype=np.int64)
        self.duration_ms = np.asarray(duration_ms, dtype=np.int64)
        self.features = features
        self.schema = schema
        self.mode = mode

    def __len__(self) -> int:
        return len(self.query_id)

    @property
    def metrics(self) -> np.ndarray:
        return self.features[:, :self.schema.n_metrics]

    @property
    def operators(self) -> np.ndarray:
        return self.features[:, self.schema.n_metrics:]

    @property
    def records(self) -> list[QueryRecord]:
        """The rows as records whose vectors are views of the feature table."""
        return list(map(QueryRecord, self.query_id, self.arrival_ts.tolist(),
                        self.duration_ms.tolist(), self.metrics, self.operators))


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
    interval_len_ms: int
    metrics: np.ndarray


@dataclass(frozen=True)
class IntervalGrid:
    """Uniform contiguous interval grid covering the synthesis horizon.

    The one way the package splits time into intervals: targets, the
    annealer's energy and the fidelity report all bin through `overlaps`.
    """

    start_ts: int
    interval_len_ms: int
    n_intervals: int

    @property
    def end_ts(self) -> int:
        return self.start_ts + self.interval_len_ms * self.n_intervals

    @classmethod
    def from_targets(cls, targets: list[IntervalTarget]) -> "IntervalGrid":
        if not targets:
            raise ValidationError("empty interval target list")
        starts = np.sort([t.interval_start_ts for t in targets])
        lengths = {t.interval_len_ms for t in targets}
        grid = cls(int(starts[0]), int(lengths.pop()), len(starts))
        if lengths or grid.interval_len_ms <= 0 or np.any(
                starts != grid.start_ts + grid.interval_len_ms * np.arange(len(starts))):
            raise ValidationError("interval targets do not form a uniform grid")
        return grid

    def overlaps(self, lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(segment, interval, overlap) triples of the half-open segments
        [lo, hi) clipped to the grid, one per interval a segment overlaps.

        Segments come in order and intervals ascend within each, so
        `np.add.at` over the triples sums every interval's terms in segment
        order.  Works for integer and float bounds alike.
        """
        lo = np.maximum(lo, self.start_ts)
        hi = np.minimum(hi, self.end_ts)
        first = (lo - self.start_ts) // self.interval_len_ms
        # ceil((hi - start) / len) - 1, exact for integers
        last = -((self.start_ts - hi) // self.interval_len_ms) - 1
        count = np.where(hi > lo, last - first + 1, 0).astype(np.intp)
        segment = np.repeat(np.arange(count.size), count)
        interval = first[segment] + (np.arange(segment.size)
                                     - np.repeat(np.cumsum(count) - count, count))
        bin_lo = self.start_ts + interval * self.interval_len_ms
        overlap = (np.minimum(hi[segment], bin_lo + self.interval_len_ms)
                   - np.maximum(lo[segment], bin_lo))
        return segment, interval.astype(np.intp), overlap

    def spread(self, start, duration, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Add each row of `values`, spread evenly over [start, start +
        max(duration, 1)), to the interval rows of `out`; return the share of
        each row that fell inside the grid.

        A zero-duration row is a 1 ms segment, all of whose mass goes to the
        interval of its start.  Every interval receives its terms in row
        order, values * (overlap / length) each, so the sums depend neither
        on how the rows are split into calls nor on whether the bounds are
        integers or floats holding the same values.
        """
        length = np.maximum(duration, 1)
        row, k, overlap = self.overlaps(start, start + length)
        np.add.at(out, k, values[row] * (overlap / length[row])[:, None])
        return np.bincount(row, overlap, minlength=length.size) / length


def target_matrix(targets: list[IntervalTarget]) -> np.ndarray:
    """The (intervals x metrics) matrix of interval targets in time order."""
    return np.array([t.metrics for t in sorted(targets, key=lambda t: t.interval_start_ts)])


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


def _parse_int(raw: str | None, row: int, column: str) -> int:
    """An int64 cell; a fractional or out-of-range number is a ValidationError."""
    try:
        value = int(raw)
    except (TypeError, ValueError):
        number = _parse_number(raw, row, column)
        if not number.is_integer():
            raise ValidationError(f"row {row}, column {column!r}: non-integral value {number!r}")
        value = int(number)
    if not -2 ** 63 <= value < 2 ** 63:
        raise ValidationError(f"row {row}, column {column!r}: {raw!r} is out of range")
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
        if abs(value) >= 2.0 ** 63:
            raise ValidationError(f"row {rownum}, column {column!r}: {value!r} is out of range")
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
    error.  Times must fit int64, and a repeated query_id is rejected.  The
    trace's feature table is a view of the parsed table.
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
        | (np.abs(times) >= 2.0 ** 63).any(axis=1)
    )
    if bad.size or failed is not None:
        index = int(bad[0]) if bad.size else failed
        _check_row(dict(zip(header, _read_row(path, index))), index + 2, schema)
    _check_unique(ids)

    return Trace.from_columns(ids, times[:, 0], times[:, 1], table[:, 2:], schema, mode)


def _format_number(value: float) -> str:
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


def _cells(values: np.ndarray) -> np.ndarray:
    """`values` as objects that csv writes under the `_format_number` rule:
    ints for integral values, floats (written by repr) for the rest."""
    cells = values.astype(object)
    whole = np.floor(values) == values
    small = whole & (np.abs(values) < 2.0 ** 53)
    cells[small] = values[small].astype(np.int64)
    for i, j in zip(*np.nonzero(whole & ~small & np.isfinite(values))):
        cells[i, j] = int(values[i, j])
    return cells


def export_trace(trace: Trace, path) -> None:
    """Write a trace back out under the same CSV contract as ingest_trace."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(MANDATORY_COLUMNS) + list(trace.schema.dimensions))
        for b in range(0, len(trace), _BLOCK):
            rows = slice(b, b + _BLOCK)
            writer.writerows(zip(trace.query_id[rows], trace.arrival_ts[rows].tolist(),
                                 trace.duration_ms[rows].tolist(),
                                 *_cells(trace.features[rows]).T.tolist()))


def write_targets(
    windows: list[WindowTarget],
    intervals: list[IntervalTarget],
    windows_path,
    intervals_path,
    schema: FeatureSchema,
) -> None:
    with open(windows_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_index", "window_start_ts", "window_len_ms", "query_count",
                         *schema.dimensions])
        writer.writerows([w.window_index, w.window_start_ts, w.window_len_ms, w.query_count,
                          *map(_format_number, w.feature.as_vector())] for w in windows)
    with open(intervals_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_index", "interval_index", "interval_start_ts", *schema.metrics])
        writer.writerows([t.window_index, t.interval_index, t.interval_start_ts,
                          *map(_format_number, t.metrics)] for t in intervals)


def read_targets(
    windows_path, intervals_path, schema: FeatureSchema
) -> tuple[list[WindowTarget], list[IntervalTarget]]:
    """Read the files write_targets wrote.  A missing or malformed cell is a
    TraceParseError, a non-integral index or time a ValidationError.  The
    interval length is the windows' summed length over the interval count."""
    def rows(path, int_columns, float_columns):
        with open(path, newline="", encoding="utf-8") as fh:
            for rownum, row in enumerate(csv.DictReader(fh), start=2):
                yield ([_parse_int(row.get(c), rownum, c) for c in int_columns],
                       np.array([_parse_number(row.get(c), rownum, c) for c in float_columns]))

    windows = [
        WindowTarget(index, start, length, PerformanceFeature.from_vector(vector, schema), count)
        for (index, start, length, count), vector in rows(
            windows_path, ("window_index", "window_start_ts", "window_len_ms", "query_count"),
            schema.dimensions)
    ]
    interval_rows = list(rows(intervals_path,
                              ("window_index", "interval_index", "interval_start_ts"),
                              schema.metrics))
    # the windows tile the span that the intervals split evenly
    length = sum(w.window_len_ms for w in windows) // max(len(interval_rows), 1)
    intervals = [IntervalTarget(window, index, start, length, vector)
                 for (window, index, start), vector in interval_rows]
    return windows, intervals


def build_targets(
    trace: Trace,
    window_len_ms: int,
    interval_len_ms: int,
    span: tuple[int, int] | None = None,
) -> tuple[list[WindowTarget], list[IntervalTarget]]:
    """Aggregate query statistics into window- and interval-level targets.

    Metric mass is spread uniformly over [arrival, arrival + max(duration, 1))
    and summed per interval; window metrics are the sums of their intervals.
    A zero-duration query is thus a 1 ms segment that deposits all its mass
    into the interval containing the arrival.  Operator statistics and query
    counts attach to the window containing the arrival: plain sums in counts
    mode, duration-weighted means in time_shares mode.  Mass outside the
    span, by default the smallest one covering every execution, is clipped
    and logged.

    The work runs on the trace's columns, a block of rows at a time.
    `IntervalGrid.spread` bins the metric mass; every interval and window
    receives its terms in trace order, so the sums are bit-identical to a
    per-record loop and do not depend on the block size.
    """
    if window_len_ms <= 0 or interval_len_ms <= 0:
        raise ConfigError("window_len_ms and interval_len_ms must be positive")
    if window_len_ms % interval_len_ms != 0:
        raise ConfigError(
            f"window_len_ms ({window_len_ms}) must be a multiple of "
            f"interval_len_ms ({interval_len_ms})"
        )
    n = len(trace)
    if not n:
        raise ValidationError("cannot build targets from an empty trace")

    schema = trace.schema
    arrival, duration = trace.arrival_ts, trace.duration_ms
    if span is None:
        ends = np.maximum(duration, 1)
        ends += arrival
        start, end = int(arrival.min()), int(ends.max())
    else:
        start, end = span
    n_windows = max(1, math.ceil((end - start) / window_len_ms))
    intervals_per_window = window_len_ms // interval_len_ms
    grid = IntervalGrid(start, interval_len_ms, n_windows * intervals_per_window)

    interval_metrics = np.zeros((grid.n_intervals, schema.n_metrics))
    window_ops = np.zeros((n_windows, schema.n_operators))
    window_op_weight = np.zeros(n_windows)
    query_counts = np.zeros(n_windows, dtype=int)
    clipped_mass = 0.0

    for b in range(0, n, _BLOCK):
        a, d = arrival[b:b + _BLOCK], duration[b:b + _BLOCK]
        block_metrics = trace.metrics[b:b + _BLOCK]
        kept = grid.spread(a, d, block_metrics, interval_metrics)
        clipped_mass += float(np.sum(block_metrics.sum(axis=1) * (1.0 - kept)))

        w = (a - start) // window_len_ms
        ok = (w >= 0) & (w < n_windows)
        w = w[ok]
        query_counts += np.bincount(w, minlength=n_windows)
        ops = trace.operators[b:b + _BLOCK][ok]
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
                    interval_len_ms=interval_len_ms,
                    metrics=rows[j].copy(),
                )
            )
    return windows, intervals
