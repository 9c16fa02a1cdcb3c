"""Trace ingestion and aggregation into window/interval generation targets.

A trace row carries one query's observable statistics: arrival timestamp,
duration, performance metrics and operator statistics.  Aggregation spreads
each query's metric mass uniformly over its execution span and sums it per
time interval; operator statistics are aggregated at window granularity only.

A Trace holds its rows as columns, and every stage works on the columns
as bulk numpy code.  The targets are columns too: `WindowTargets` holds one
feature row and query count per window, `IntervalTargets` one metric row
per interval of its `IntervalGrid`, and a window's position on the grid is
its index.  Ingest parses each row once: one `np.loadtxt` call reads
every id and numeric cell, and the table is checked column-wise; a file
np.loadtxt may misread, or whose table fails the check, is read again by
`read_columns`, the one parser of every CSV cell, to name the error.  Times
are int64 under the one integer rule of every CSV, `_parse_int`'s, within
+-2**53.  Aggregation bins the whole trace in one call of
`IntervalGrid.spread`, the one binning kernel, which the scheduler's energy
and the fidelity report share: it cuts the rows at the intervals, a chunk
of rows within a fixed budget of (row, interval) pairs at a time, and adds
each column's terms with `np.add.at`.  Every interval adds its terms from
zero in row order, so the sums equal a per-row loop's bit for bit.
`write_columns` writes every CSV the package writes, its header included:
the trace, the targets, the plans and their summary, the schedule and its
energy trace, the catalog, and the report's scores and plot data.  It
formats the numbers of a block of rows in numpy and writes the bytes
csv.writer would, CRLF line ends included; only the schedule's
energy.csv, whose bytes pin the annealer's trajectory, ends its lines in
a bare LF instead.  The targets, plans, schedules and catalogs are read
back column by column through `read_columns`; csv is used here only to
read.
"""
from __future__ import annotations

import csv
import logging
import math
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import islice
from operator import eq

import numpy as np

from .errors import ConfigError, SchemaError, TraceParseError, ValidationError
from .features import MODE_COUNTS, MODE_TIME_SHARES, MODES, FeatureSchema

log = logging.getLogger(__name__)

MANDATORY_COLUMNS = ("query_id", "arrival_ts", "duration_ms")

# Most (row, interval) pairs IntervalGrid.spread cuts at once, so that its
# temporaries stay bounded also when a backlog stretches instances over
# hundreds of intervals.
_TRIPLES = 1 << 15
# Rows per block that write_columns formats: from 256 to 1024 the
# per-block overhead fell by a third, beyond it barely.
_CSV_BLOCK = 1024
# np.loadtxt strips these around a number and float() does not, so
# `_read_bulk` declines a file that holds one
_SEPARATORS = "\x1c\x1d\x1e\x1f"


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
    then operators in schema order.  The constructor takes the columns as
    they are.
    """

    def __init__(self, query_id: list[str], arrival_ts, duration_ms, features: np.ndarray,
                 schema: FeatureSchema, mode: str = MODE_COUNTS):
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
        """The rows as records whose vectors are views of the feature table;
        only bench/child.py reads them."""
        return list(map(QueryRecord, self.query_id, self.arrival_ts.tolist(),
                        self.duration_ms.tolist(), self.metrics, self.operators))


@dataclass(frozen=True)
class IntervalGrid:
    """Uniform contiguous interval grid covering the synthesis horizon.

    The one way the package splits time into intervals: targets, the
    annealer's energy and the fidelity report all bin through `spread`.
    """

    start_ts: int
    interval_len_ms: int
    n_intervals: int

    @property
    def end_ts(self) -> int:
        return self.start_ts + self.interval_len_ms * self.n_intervals

    @classmethod
    def from_targets(cls, targets: IntervalTargets) -> "IntervalGrid":
        """`targets.grid`; bench/child.py reads the grid through this name."""
        return targets.grid

    def spread(self, start, duration, values: np.ndarray) -> np.ndarray:
        """Spread each row of `values` evenly over [start, start +
        max(duration, 1)) and return the (intervals x columns) sums.

        A zero-duration row is a 1 ms segment, all of whose mass goes to the
        interval of its start.  The segments are clipped to the grid and cut
        at its intervals, and each column's terms, values * (overlap /
        length), are added with np.add.at, at most `_TRIPLES` (row,
        interval) pairs at a time.  Every interval thus receives its terms
        from zero in row order, so the sums equal a per-row loop's bit for
        bit, whatever `_TRIPLES` is, and do not depend on whether the bounds
        are integers or floats holding the same values.
        """
        length = np.maximum(duration, 1)
        end = start + length
        # the first interval of each segment clipped to the grid, and the
        # number it overlaps: ceil((end - start_ts) / len) - first, exact
        # for integers, and none for a segment off the grid
        first = ((np.maximum(start, self.start_ts) - self.start_ts)
                 // self.interval_len_ms).astype(np.intp, copy=False)
        count = (-((self.start_ts - np.minimum(end, self.end_ts))
                   // self.interval_len_ms)).astype(np.intp, copy=False)
        count -= first
        np.maximum(count, 0, out=count)
        ends = np.cumsum(count)
        begins = ends - count  # each row's first pair among the call's
        sums = np.zeros((self.n_intervals, values.shape[1]))
        b = 0
        while b < count.size:
            # the rows from b whose pairs fit the budget, at least one
            e = max(b + 1, int(np.searchsorted(ends, begins[b] + _TRIPLES, "right")))
            row = np.repeat(np.arange(b, e), count[b:e])
            # each pair's interval: its row's first plus its place among the row's pairs
            k = np.arange(begins[b], ends[e - 1])
            k += np.repeat(first[b:e] - begins[b:e], count[b:e])
            # in the bounds' dtype, so that the overlap is computed in place;
            # an interval's own bounds clip each segment to the grid
            bin_lo = (k * self.interval_len_ms + self.start_ts).astype(
                np.result_type(start, end), copy=False)
            overlap = bin_lo + self.interval_len_ms
            np.minimum(overlap, end[row], out=overlap)
            overlap -= np.maximum(bin_lo, start[row], out=bin_lo)
            share = overlap / length[row]
            for accumulator, column in zip(sums.T, values.T):
                terms = column[row]
                terms *= share
                np.add.at(accumulator, k, terms)
            b = e
        return sums


@dataclass
class WindowTargets:
    """Window targets as columns: window w starts at start_ts + w * len_ms,
    row w of the (windows x dimensions) float64 `features` table is its
    metrics then operators, and `query_counts[w]` its int64 arrival count."""

    start_ts: int
    len_ms: int
    features: np.ndarray
    query_counts: np.ndarray

    def __len__(self) -> int:
        return len(self.query_counts)


@dataclass
class IntervalTargets:
    """Interval metric targets as columns: row k of the (intervals x metrics)
    float64 `metrics` table is interval k of `grid`, and window w holds rows
    w * per_window up to (w + 1) * per_window."""

    grid: IntervalGrid
    per_window: int
    metrics: np.ndarray

    def __len__(self) -> int:
        return self.grid.n_intervals


def _parse_number(raw: str | None, row: int, column: str) -> float:
    try:
        value = float(_parse_str(raw, row, column))
    except ValueError as exc:
        raise TraceParseError(f"row {row}, column {column!r}: cannot parse {raw!r}") from exc
    if math.isnan(value) or math.isinf(value):
        raise TraceParseError(f"row {row}, column {column!r}: non-finite value {raw!r}")
    return value


def _parse_int(raw: str | None, row: int, column: str) -> int:
    """An int64 cell; a fractional or out-of-range number is a ValidationError.

    Integrality and range are decided on the cell's exact decimal value:
    float() would read 1.0000000000000001 as 1, and 9007199254740993.0 as
    9007199254740992.
    """
    try:
        value = int(raw)
    except (TypeError, ValueError):
        _parse_number(raw, row, column)  # raises on a missing, unparseable or non-finite cell
        from decimal import Decimal  # a run whose int cells are all digits never loads it
        try:
            exact = Decimal(raw)
        except ArithmeticError:  # an exponent past Decimal's range, which float() reads
            raise TraceParseError(f"row {row}, column {column!r}: cannot parse {raw!r}") from None
        if exact != exact.to_integral_value():
            raise ValidationError(f"row {row}, column {column!r}: non-integral value {exact}")
        value = int(exact)
    if not -2 ** 63 <= value < 2 ** 63:
        raise ValidationError(f"row {row}, column {column!r}: {raw!r} is out of range")
    return value


def _parse_str(raw: str | None, row: int, column: str) -> str:
    if raw is None:
        raise TraceParseError(f"row {row}, column {column!r}: missing value")
    return raw


def _parse_time(raw: str | None, row: int, column: str) -> int:
    """A trace time: an int by `_parse_int`'s rule, at most 2**53 in magnitude."""
    value = _parse_int(raw, row, column)
    if not -2 ** 53 <= value <= 2 ** 53:
        raise ValidationError(f"row {row}, column {column!r}: {raw!r} is out of range")
    return value


def _parse_duration(raw: str | None, row: int, column: str) -> int:
    value = _parse_time(raw, row, column)
    if value < 0:
        raise ValidationError(f"row {row}: negative duration_ms {value}")
    return value


def _parse_feature(raw: str | None, row: int, column: str) -> float:
    value = _parse_number(raw, row, column)
    if value < 0:
        raise ValidationError(f"row {row}: negative metric or operator value")
    return value


_PARSERS = {int: _parse_int, float: _parse_number, str: _parse_str}


def _csv_rows(path, what: str):
    """csv.reader's rows of a CSV file; one that is not UTF-8, or that
    csv.reader rejects (a field over `csv.field_size_limit()`), is a
    TraceParseError naming the file, and the line for the latter."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            yield from reader
        except UnicodeDecodeError:
            raise TraceParseError(f"{what} file {path} is not valid UTF-8") from None
        except csv.Error as exc:
            raise TraceParseError(f"{what} file {path}, line {reader.line_num}: {exc}") from None


def read_columns(path, what: str, kinds: dict, defaults: dict) -> dict[str, list]:
    """Parse the columns `kinds` names from a CSV file.  A kind is int, float
    or str, or a function of (cell, row, column) such as `_parse_time`.  Every
    CSV the package reads goes through here, a trace when `_read_bulk`
    declines it.

    A column the header lacks is a SchemaError unless `defaults` gives the
    value it reads as in every row.  Blank lines are skipped and not
    counted, the first data row is row 2, and a repeated column name reads
    as its last occurrence.  A missing cell (a short row) or an unparseable
    or non-finite number is a TraceParseError; a fractional or out-of-range
    int a ValidationError.  Each error names the row and the column.  An
    input with several faults reports the first offending row's, and in
    that row the first column's in the order of `kinds`: the columns are
    parsed one at a time, each up to the first offending row found so far.
    """
    reader = _csv_rows(path, what)
    positions = _positions(reader, path, what, kinds, defaults)
    rows = list(filter(None, reader))
    columns, fault, stop = {}, None, len(rows)
    for (name, kind), i in zip(kinds.items(), positions):
        if i is None:
            columns[name] = [defaults[name]] * len(rows)
            continue
        parse, cells = _PARSERS.get(kind, kind), []
        columns[name] = cells
        try:
            for rownum, row in enumerate(rows[:stop], start=2):
                cells.append(parse(row[i] if i < len(row) else None, rownum, name))
        except (TraceParseError, ValidationError) as exc:
            fault, stop = exc, len(cells)
    if fault is not None:
        raise fault
    return columns


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


def _positions(reader, path, what: str, names, optional=()) -> list[int | None]:
    """Each of `names`' position in the header, the first row `reader`
    gives, at a name's last occurrence.  A name the header lacks is a
    SchemaError, or None where `optional` holds it."""
    position = {name: i for i, name in enumerate(next(reader, []))}
    for name in names:
        if name not in position and name not in optional:
            raise SchemaError(f"{what} file {path} is missing column {name!r}")
    return [position.get(name) for name in names]


def _read_bulk(path, columns: tuple[str, ...]) -> tuple | None:
    """A trace file's ids, int64 times and float64 features, or None where
    unsure: one np.loadtxt call reads every row's id, times and features,
    splitting quoted cells as csv.reader does, which reads only the header.
    It declines a csv.Error, invalid UTF-8, a cell np.loadtxt rejects (a
    short row, `1_0`, a float-form time), any of \\x1c to \\x1f (np.loadtxt
    strips them, int() and float() do not), a line over
    `csv.field_size_limit()` and a value that breaks the contract or is a
    time of magnitude 2**53 or more."""
    limit = csv.field_size_limit()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            positions = _positions(reader, path, "trace", ("query_id",) + columns)
            skip = reader.line_num
            fh.seek(0)
            # csv.reader raises on a field over the limit and np.loadtxt does
            # not, so a longer line is declined.  Chunks of at most limit + 1
            # hold no whole line that long: only one running over chunks is.
            line, quoted, ascii_only = 0, False, True
            for chunk in iter(partial(fh.read, min(1 << 16, limit + 1)), ""):
                head = len(chunk.split("\n", 1)[0].split("\r", 1)[0])
                if any(c in chunk for c in _SEPARATORS) or line + head > limit:
                    return None
                line = line + head if head == len(chunk) else len(
                    chunk.rsplit("\n", 1)[-1].rsplit("\r", 1)[-1])
                quoted = quoted or '"' in chunk
                ascii_only = ascii_only and chunk.isascii()
            if quoted:  # a quoted field may run over lines: csv.reader measures it
                fh.seek(0)
                for _ in csv.reader(fh):
                    pass
        except (csv.Error, UnicodeDecodeError):
            return None
        fh.seek(0)
        dtype = [("query_id", object), ("arrival_ts", np.int64), ("duration_ms", np.int64),
                 ("values", float, (len(columns) - 2,))]
        # np.loadtxt's int parser reads some non-ASCII characters as digits:
        # where the file holds any, int() parses the times
        converters = None if ascii_only else dict.fromkeys(positions[1:3], int)
        try:
            with warnings.catch_warnings():
                # numpy before 2.0 reads a float cell such as 1.0 into an int
                # field, truncated, and warns; a file without data warns too
                warnings.simplefilter("error", DeprecationWarning)
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                records = np.loadtxt(fh, dtype, delimiter=",", quotechar='"', skiprows=skip,
                                     usecols=positions, comments=None, ndmin=1,
                                     converters=converters)
        except (ValueError, DeprecationWarning):
            return None
    arrival, duration, values = records["arrival_ts"], records["duration_ms"], records["values"]
    bounded = (-2 ** 53 < arrival) & (arrival < 2 ** 53) & (0 <= duration) & (duration < 2 ** 53)
    if not bounded.all() or not np.isfinite(values).all() or (values < 0).any():
        return None
    return records["query_id"].tolist(), arrival, duration, values


def ingest_trace(path, schema: FeatureSchema, mode: str = MODE_COUNTS) -> Trace:
    """Read a trace CSV into a Trace, in row order.

    The header must name query_id, arrival_ts, duration_ms and the schema's
    columns.  Times must be integers by `_parse_int`'s rule within +-2**53,
    values finite, durations, metrics and operators nonnegative, and ids
    unique.  A file `_read_bulk` declines is read by `read_columns`, which
    names the first offending row, and in it the first offending column in
    that order.  The columns are the readers', as read.
    """
    columns = ("arrival_ts", "duration_ms") + schema.dimensions
    table = _read_bulk(path, columns)
    if table is None:
        kinds = dict(zip(MANDATORY_COLUMNS, (str, _parse_time, _parse_duration)))
        cells = list(read_columns(path, "trace", kinds | dict.fromkeys(
            schema.dimensions, _parse_feature), {}).values())
        features = np.array(cells[3:]).reshape(len(cells) - 3, len(cells[0]))
        table = cells[:3] + [features.T.copy()]
    _check_unique(table[0])
    return Trace(*table, schema, mode)


def _format_number(value: float) -> str:
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


def _csv_cells(texts: list[str], alone: bool) -> list[str]:
    """`texts` as csv.writer writes them under a CRLF line end: a text that
    holds a delimiter, a quote, a CR or an LF is quoted, with its quotes
    doubled, and so is an empty text that is `alone` in its row.  Under a
    bare LF a bare CR is quoted too, so that csv.reader reads the cell back."""
    special = ',"\r\n'
    joined = "".join(texts)
    if not any(c in joined for c in special) and not (alone and "" in texts):
        return texts
    return ['"' + t.replace('"', '""') + '"' if any(c in t for c in special) or alone and not t
            else t for t in texts]


def _digit_words() -> np.ndarray:
    """Four ASCII digits to a word: "0000" to "9999", then the same numbers
    with their leading zeros as `_SKIP` bytes (0 is all `_SKIP`)."""
    # small dtypes: temporaries held here would stay in the heap, and in peak RSS
    n = np.arange(10000, dtype=np.uint16)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1).astype(np.uint8)
    digits += ord("0")
    leading = np.arange(4) < 4 - sum(n >= power for power in (1, 10, 100, 1000))[:, None]
    return np.concatenate([digits, np.where(leading, _SKIP, digits)]).view(np.uint32).ravel()


_SKIP = 0xFF  # a byte that is not ASCII; write_columns drops it
_SKIP_BYTE = bytes([_SKIP])
_DIGIT_WORDS = _digit_words()
_ZERO_WORD = np.array([_SKIP, _SKIP, _SKIP, ord("0")], dtype=np.uint8).view(np.uint32)[0]


def _format_rows(columns: list, width: int, line_end: str) -> str:
    """The CSV lines of one block of rows; see `write_columns`."""
    rows = len(columns[0])
    ints = np.zeros((rows, width), dtype=np.int64)
    spliced = np.zeros((rows, width), dtype=bool)
    texts = np.empty((rows, width), dtype=object)
    j = 0
    for column in columns:
        if isinstance(column, list):
            spliced[:, j] = True
            texts[:, j] = _csv_cells(column, width == 1)
            j += 1
            continue
        block = column.reshape(rows, -1)
        cells = slice(j, j + block.shape[1])
        j = cells.stop
        if block.dtype.kind != "f":
            ints[:, cells] = block
            continue
        other = ~((np.floor(block) == block) & (np.abs(block) < 2.0 ** 53))
        ints[:, cells] = np.where(other, 0, block)
        if other.any():
            spliced[:, cells] = other
            texts[:, cells][other] = list(map(_format_number, block[other].tolist()))
    # A cell is a word of separator, sign and a spare byte, then `groups`
    # words of four digits.  A row's first cell holds the previous row's
    # line end as its separator, and a NUL sign marks a spliced cell.
    magnitude = np.abs(ints).view(np.uint64)
    groups = -(-len(str(magnitude.max())) // 4)
    words = np.empty((rows, width, groups + 1), dtype=np.uint32)
    for g in range(groups, 0, -1):
        quotient = magnitude // 10000
        index = (magnitude - quotient * 10000).astype(np.intp)
        # the leading group, or one above it, drops its leading zeros
        words[:, :, g] = _DIGIT_WORDS[np.where(quotient == 0, index + 10000, index)]
        magnitude = quotient
    words[:, :, groups][(ints == 0) & ~spliced] = _ZERO_WORD
    text = words.view(np.uint8)
    text[:, :, [0, 1, 3]] = ord(","), _SKIP, _SKIP
    text[:, 0, :len(line_end)] = list(line_end.encode())
    text[:, :, 2] = np.where(spliced, 0, np.where(ints < 0, ord("-"), _SKIP))
    lines = text.tobytes().translate(None, _SKIP_BYTE)[len(line_end):].decode("ascii") + line_end
    if not spliced.any():
        return lines
    pieces = lines.split("\0")
    merged = [""] * (2 * len(pieces) - 1)
    merged[::2] = pieces
    merged[1::2] = texts[spliced].tolist()
    return "".join(merged)


def write_columns(path, header: list[str], columns: list, line_end: str = "\r\n") -> None:
    """Write `header`, then row i of the columns, as csv.writer writes them
    with a CRLF line terminator, each line then ending in `line_end`.

    A column is a list of strings, or a numpy array of ints or floats that
    holds one column (1-D) or several (2-D, one row per CSV row); a float
    is written by the `_format_number` rule.  A block of rows at a time,
    every int, and every float that is an integer below 2**53 in magnitude,
    becomes decimal digits through one table lookup per four digits into a
    byte matrix of the block, which one `tobytes` and one `bytes.translate`
    that drops its `_SKIP` bytes turn into text.  The strings, quoted where
    csv.writer quotes, and the other floats, formatted one by one, are
    spliced into that text with one `str.join`; the header is a block of
    one row.  Every CSV artifact is written here, and a float written by
    `repr` (those of the plan summary, the energy trace and the report)
    goes in as a list of its `repr` strings.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_format_rows([[name] for name in header], len(header), line_end))
        for b in range(0, len(columns[0]), _CSV_BLOCK):
            fh.write(_format_rows([c[b:b + _CSV_BLOCK] for c in columns], len(header), line_end))


def export_trace(trace: Trace, path) -> None:
    """Write a trace back out under the same CSV contract as ingest_trace."""
    write_columns(path, [*MANDATORY_COLUMNS, *trace.schema.dimensions],
                  [trace.query_id, trace.arrival_ts, trace.duration_ms, trace.features])


_WINDOW_INTS = ("window_index", "window_start_ts", "window_len_ms", "query_count")
_INTERVAL_INTS = ("window_index", "interval_index", "interval_start_ts")


def _target_ints(windows: WindowTargets,
                 intervals: IntervalTargets) -> tuple[np.ndarray, np.ndarray]:
    """The `_WINDOW_INTS` and `_INTERVAL_INTS` columns of the targets files,
    one int64 table each."""
    w, k, grid = np.arange(len(windows)), np.arange(len(intervals)), intervals.grid
    return (np.column_stack([w, windows.start_ts + windows.len_ms * w,
                             np.full_like(w, windows.len_ms), windows.query_counts]),
            np.column_stack([k // intervals.per_window, k % intervals.per_window,
                             grid.start_ts + grid.interval_len_ms * k]))


def write_targets(windows: WindowTargets, intervals: IntervalTargets, windows_path,
                  intervals_path, schema: FeatureSchema) -> None:
    window_ints, interval_ints = _target_ints(windows, intervals)
    write_columns(windows_path, [*_WINDOW_INTS, *schema.dimensions],
                  [window_ints, windows.features])
    write_columns(intervals_path, [*_INTERVAL_INTS, *schema.metrics],
                  [interval_ints, intervals.metrics])


def read_targets(windows_path, intervals_path,
                 schema: FeatureSchema) -> tuple[WindowTargets, IntervalTargets]:
    """Read the files write_targets wrote, through `read_columns`.

    The first window row gives the grid's start and the window length, and
    the row counts the intervals per window.  The integer columns of each
    file must be the ones `write_targets` derives from these, and its counts
    and values nonnegative; a file that breaks this, such as one with rows
    out of time order, windows of unequal length or a lost row, is a
    ValidationError naming the file.
    """
    wcol = read_columns(windows_path, "targets", dict.fromkeys(_WINDOW_INTS, int)
                        | dict.fromkeys(schema.dimensions, float), {})
    icol = read_columns(intervals_path, "targets", dict.fromkeys(_INTERVAL_INTS, int)
                        | dict.fromkeys(schema.metrics, float), {})
    n_windows = len(wcol["window_index"])
    if not n_windows:
        raise ValidationError(f"targets file {windows_path} holds no window")
    start, length = wcol["window_start_ts"][0], wcol["window_len_ms"][0]
    per_window = max(len(icol["window_index"]) // n_windows, 1)
    windows = WindowTargets(start, length, np.column_stack([wcol[c] for c in schema.dimensions]),
                            np.array(wcol["query_count"], dtype=np.int64))
    intervals = IntervalTargets(IntervalGrid(start, length // per_window, n_windows * per_window),
                                per_window, np.column_stack([icol[c] for c in schema.metrics]))
    window_ints, interval_ints = _target_ints(windows, intervals)
    for path, ints, expected, ok in (
            (windows_path, [wcol[c] for c in _WINDOW_INTS], window_ints,
             length > 0 and np.all(windows.query_counts >= 0) and np.all(windows.features >= 0)),
            (intervals_path, [icol[c] for c in _INTERVAL_INTS], interval_ints,
             length % per_window == 0 and np.all(intervals.metrics >= 0))):
        ints = np.array(ints, dtype=np.int64).T
        if not ok or ints.shape != expected.shape or np.any(ints != expected):
            raise ValidationError(f"targets file {path} does not hold equal windows split into "
                                  "equal intervals in time order, with nonnegative values")
    return windows, intervals


def build_targets(
    trace: Trace,
    window_len_ms: int,
    interval_len_ms: int,
    span: tuple[int, int] | None = None,
) -> tuple[WindowTargets, IntervalTargets]:
    """Aggregate query statistics into window- and interval-level targets.

    Metric mass is spread uniformly over [arrival, arrival + max(duration, 1))
    and summed per interval; window metrics are the sums of their intervals.
    A zero-duration query is thus a 1 ms segment that deposits all its mass
    into the interval containing the arrival.  Operator statistics and query
    counts attach to the window containing the arrival: plain sums in counts
    mode, duration-weighted means in time_shares mode.  Mass outside the
    span, by default the smallest one covering every execution, is clipped
    and logged.  An empty trace needs a span, and its targets are all zero.

    `IntervalGrid.spread` bins the whole trace's metric mass, and the window
    operator sums, operator weights and query counts are one `np.bincount`
    per column, so every interval and window receives its terms in trace
    order and the sums are bit-identical to a per-record loop.
    """
    if window_len_ms <= 0 or interval_len_ms <= 0:
        raise ConfigError("window_len_ms and interval_len_ms must be positive")
    if window_len_ms % interval_len_ms != 0:
        raise ConfigError(
            f"window_len_ms ({window_len_ms}) must be a multiple of "
            f"interval_len_ms ({interval_len_ms})"
        )
    if not len(trace) and span is None:
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
    per_window = window_len_ms // interval_len_ms
    grid = IntervalGrid(start, interval_len_ms, n_windows * per_window)

    interval_metrics = grid.spread(arrival, duration, trace.metrics)
    if span is not None:  # the default span covers every execution
        length = np.maximum(duration, 1)
        inside = np.minimum(arrival + length, grid.end_ts) - np.maximum(arrival, start)
        kept = np.maximum(inside, 0) / length
        clipped_mass = float(np.sum(trace.metrics.sum(axis=1) * (1.0 - kept)))
        if clipped_mass > 0:
            log.info("clipped %.6g units of metric mass outside the trace span", clipped_mass)

    features = np.empty((n_windows, len(schema.dimensions)))
    features[:, :schema.n_metrics] = interval_metrics.reshape(
        n_windows, per_window, schema.n_metrics).sum(axis=1)
    w = (arrival - start) // window_len_ms
    ok = (w >= 0) & (w < n_windows)
    w = w[ok]
    query_counts = np.bincount(w, minlength=n_windows)
    weight = (np.maximum(duration[ok], 1).astype(float) if trace.mode == MODE_TIME_SHARES
              else None)
    for c, column in enumerate(trace.operators.T, schema.n_metrics):
        column = column[ok]
        if weight is not None:
            column *= weight
        features[:, c] = np.bincount(w, column, minlength=n_windows)
    if weight is not None:
        total = np.bincount(w, weight, minlength=n_windows)
        nonzero = total > 0
        features[nonzero, schema.n_metrics:] /= total[nonzero, None]
    return (WindowTargets(grid.start_ts, window_len_ms, features, query_counts),
            IntervalTargets(grid, per_window, interval_metrics))
