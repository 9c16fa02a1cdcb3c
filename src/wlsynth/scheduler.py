"""Timestamp assignment for selected component instances.

Every instance selected for a window gets a start timestamp inside that
window.  Fidelity against interval-level metric targets is evaluated with a
deterministic processor-sharing simulation: when P instances are running on
`cores` capacity each progresses at rate min(1, cores/P).  The simulation
works in busy periods: where no arrival finds `cores` instances running, each
completes at start + work, computed for all at once; a period where one does
is simulated in virtual time, one heap operation per event.  Each instance's
metric mass is then binned exactly as `evaluate` bins the replayed trace:
spread evenly over its replayed span, the ceil-rounded simulated run time
and never less than the profiled duration.  Simulated annealing refines the
start times to minimize the summed interval relative error.

A Schedule holds one column per field; `expand` maps its ids to catalog rows
once, so the stages and the annealer build no per-instance object.
"""
from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, default_rng

from .catalog import Catalog
from .config import Config
from .errors import ValidationError
from .trace import IntervalGrid, IntervalTargets, read_columns, write_columns
from .selector import SelectionPlan, relative_error

log = logging.getLogger(__name__)

_ACCEPT_HI, _ACCEPT_LO = 0.98, 1e-4  # chance of taking the median uphill move at V_max, V_min


@dataclass(frozen=True)
class ScheduleEntry:
    window_index: int
    component_id: str
    instance_index: int
    start_ts: int


SCHEDULE_COLUMNS = ("window_index", "component_id", "instance_index", "start_ts")


class Schedule:
    """Instances and their start times, one column per ScheduleEntry field.

    `component_id` is a string array, the other columns are int64 arrays.
    The constructor takes the columns as they are.
    """

    def __init__(self, window_index, component_id, instance_index, start_ts):
        self.window_index = np.asarray(window_index, dtype=np.int64)
        self.component_id = np.asarray(component_id, dtype=str)
        self.instance_index = np.asarray(instance_index, dtype=np.int64)
        self.start_ts = np.asarray(start_ts, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.start_ts)

    @property
    def entries(self) -> list[ScheduleEntry]:
        return list(map(ScheduleEntry, *(getattr(self, name).tolist()
                                         for name in SCHEDULE_COLUMNS)))


@dataclass
class AnnealResult:
    schedule: Schedule
    best_energy: float
    initial_energy: float
    best_energy_trace: list[float]
    steps: int


def warn_if_overloaded(works: np.ndarray, grid: IntervalGrid, cores: int) -> None:
    """Log a warning when the offered load exceeds `cores`.

    The offered load is the summed profiled duration over the grid's span:
    the cores the instances keep busy on average.  Above `cores` the
    processor-sharing backlog grows across the horizon and completions
    stretch past it.
    """
    load = float(np.sum(works)) / (grid.end_ts - grid.start_ts)
    if load > cores:
        log.warning("offered load %.6g exceeds cores = %d: the processor-sharing "
                    "backlog grows across the horizon", load, cores)


def write_schedule(schedule: Schedule, path) -> None:
    write_columns(path, SCHEDULE_COLUMNS, [schedule.window_index, schedule.component_id.tolist(),
                                           schedule.instance_index, schedule.start_ts])


def read_schedule(path) -> Schedule:
    """Read a schedule CSV through `trace.read_columns`: the component id is
    text, every other column an int64.  An id that ends in a NUL character,
    which `Schedule.component_id` would drop, is a ValidationError."""
    columns = read_columns(path, "schedule", dict(zip(SCHEDULE_COLUMNS, (int, str, int, int))),
                           {})
    for rownum, component_id in enumerate(columns["component_id"], start=2):
        if component_id.endswith("\0"):
            raise ValidationError(f"row {rownum}, column 'component_id': {component_id!r} "
                                  "ends in a NUL character")
    return Schedule(*columns.values())


def _contended_period(starts: list[float], works: list[float], cores: int, i: int,
                      done: np.ndarray) -> int:
    """Simulate from arrival `i` (in start order), which finds the system
    empty, until it is empty before the next arrival; write those
    completions into `done` and return that arrival's index.

    Every running instance attains service at one rate, so a virtual clock
    V of the service attained orders the departures: an instance arriving at
    V with work w leaves when V reaches its tag V + w, the least in a heap.
    """
    n = len(starts)
    heap: list[tuple[float, int]] = []
    t, v = starts[i], 0.0
    while True:
        while i < n and starts[i] <= t + 1e-12:
            if works[i] > 0:
                heapq.heappush(heap, (v + works[i], i))
            i += 1
        if not heap:
            return i
        rate = min(1.0, cores / len(heap))
        t_finish = t + (heap[0][0] - v) / rate
        if i < n and starts[i] < t_finish:
            v += rate * (starts[i] - t)
            t = starts[i]
        else:
            t, v = t_finish, heap[0][0]
        while heap and heap[0][0] - v <= 1e-9 * max(1.0, works[heap[0][1]]):
            done[heapq.heappop(heap)[1]] = t


def simulate_processor_sharing(
    starts: np.ndarray,
    works: np.ndarray,
    cores: int,
    metrics: np.ndarray | None = None,
    grid: IntervalGrid | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Processor sharing: P running instances each progress at min(1, cores/P).

    In (start, index) order the arrivals fall into busy periods.  In one
    where no arrival finds more than `cores` instances running, each
    completes at start + work (at its start for zero work), all set at once;
    from the first arrival of any other, `_contended_period` simulates in
    virtual time until the system is empty again.

    Returns per-instance completion times and, when `metrics` (one row per
    instance) and a grid are given, the per-interval metric sums of the
    replayed trace, binned as `build_targets` bins it: `IntervalGrid.spread`
    spreads each instance's metrics from its start over its
    `replayed_durations`, instances in index order.  Mass outside the grid
    is dropped.
    """
    if cores < 1:
        raise ValidationError("cores must be >= 1")
    if metrics is not None and grid is None:
        raise ValidationError("a grid is required to accumulate interval metrics")
    n = len(starts)
    completions = np.zeros(n)
    if n:
        order = np.argsort(starts, kind="stable")
        s = np.asarray(starts, dtype=float)[order]
        w = np.asarray(works, dtype=float)[order]
        done = np.where(w > 0, s + w, s)  # the completions if none waits
        # running just after each arrival if none waits; a later zero-work arrival
        # at the same start undercounts, which moves no busy period's first arrival
        running = np.arange(1, n + 1) - np.searchsorted(np.sort(done), s, "right")
        contended = np.flatnonzero(running > cores).tolist()
        if contended:
            first = np.r_[True, s[1:] >= np.maximum.accumulate(done)[:-1]]
            period = np.maximum.accumulate(np.where(first, np.arange(n), 0)).tolist()
            s_list, w_list = s.tolist(), w.tolist()
            i = 0  # the system is empty at arrival i
            for c in contended:
                if c >= i:
                    # max: the heap's completion tolerance can leave the period's
                    # first arrival before i
                    i = _contended_period(s_list, w_list, cores, max(i, period[c]), done)
        completions[order] = done
    if metrics is None:
        return completions, None
    # every instance in one call: past its triple budget, as when a backlog
    # stretches instances over many intervals, spread chunks the rows itself
    return completions, grid.spread(starts, replayed_durations(starts, completions, works),
                                    metrics)


def replayed_durations(starts, completions, works) -> np.ndarray:
    """Each instance's duration in the replayed trace: its simulated run
    time, never below its profiled duration, both rounded up to whole ms."""
    return np.maximum(np.ceil(completions - starts), np.ceil(works))


def expand(schedule: Schedule, catalog: Catalog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float start times, profiled durations and feature rows (metrics then
    operators) of a schedule's instances, gathered from the catalog's columns."""
    names, which = np.unique(schedule.component_id, return_inverse=True)
    rows = catalog.index(names.tolist())[which]
    return schedule.start_ts.astype(float), catalog.duration_ms[rows], catalog.features[rows]


def _energy(starts: np.ndarray, works: np.ndarray, metrics: np.ndarray, target: np.ndarray,
            cores: int, grid: IntervalGrid, denom_floor: float) -> float:
    _, achieved = simulate_processor_sharing(starts, works, cores, metrics, grid)
    return relative_error(achieved, target, denom_floor)


def _check_metrics(targets: IntervalTargets, catalog: Catalog) -> None:
    if targets.metrics.shape[1] != catalog.schema.n_metrics:
        raise ValidationError("interval target metric dimensions do not match the catalog")


def energy(schedule: Schedule, interval_targets: IntervalTargets, catalog: Catalog,
           cfg: Config) -> float:
    """`selector.relative_error` of the interval metrics replayed on `cores`
    against the targets, floored at `denom_floor`."""
    _check_metrics(interval_targets, catalog)
    starts, works, features = expand(schedule, catalog)
    return _energy(starts, works, features[:, :catalog.schema.n_metrics],
                   interval_targets.metrics, cfg["cores"], interval_targets.grid,
                   cfg["denom_floor"])


def _planned_instances(plans: list[SelectionPlan], targets: IntervalTargets
                       ) -> tuple[Schedule, np.ndarray, np.ndarray]:
    """Every planned instance, window by window in plan order and components
    in id order, with start_ts at its window's start; also each instance's
    window start and length: window w starts at the grid's start plus w
    window lengths."""
    grid, n_windows = targets.grid, len(targets) // targets.per_window
    window_len = grid.interval_len_ms * targets.per_window
    rows = []
    for plan in plans:
        if not 0 <= plan.window_index < n_windows:
            raise ValidationError(f"plan references unknown window {plan.window_index}")
        rows += [(plan.window_index, cid, plan.counts[cid]) for cid in sorted(plan.counts)]
    window, cid, count = (np.array(col, dtype=dtype) for col, dtype in
                          zip(list(zip(*rows)) or [()] * 3, (np.int64, str, np.int64)))
    row = np.repeat(np.arange(count.size), count)
    instance = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
    w_start = grid.start_ts + window_len * window[row]
    schedule = Schedule(window[row], cid[row], instance, w_start)
    return schedule, schedule.start_ts, np.full(row.size, window_len)


def _draw_starts(rng: Generator, window_start, window_len, granularity_ms: int):
    """Uniform random start times at `granularity_ms` steps inside windows.

    One `rng.integers` call draws for a whole array of windows or for one
    scalar window.  On the numpy this package supports the array call yields
    the values and generator state of one scalar call per window, in order;
    tests/test_scheduler.py pins that.
    """
    slots = np.maximum(1, window_len // granularity_ms)
    return window_start + rng.integers(0, slots) * granularity_ms


def random_schedule(plans: list[SelectionPlan], interval_targets: IntervalTargets,
                    cfg: Config, rng_seed: int) -> Schedule:
    """Uniform random in-window start times at `sa.move_granularity_ms`; the
    annealer's initial state and the baseline used by the
    timestamp-assignment ablation."""
    schedule, w_start, w_len = _planned_instances(plans, interval_targets)
    schedule.start_ts = _draw_starts(default_rng(rng_seed), w_start, w_len,
                                     cfg["sa.move_granularity_ms"])
    return schedule


def _tune_temperatures(
    starts: np.ndarray,
    w_start: np.ndarray,
    w_len: np.ndarray,
    current_energy: float,
    energy_fn,
    rng: Generator,
    granularity_ms: int,
) -> tuple[float, float]:
    """Sample random moves from the initial state to pick V_max and V_min so the
    median uphill step is accepted with probabilities _ACCEPT_HI and _ACCEPT_LO."""
    uphill = []
    for _ in range(100):
        j = int(rng.integers(0, len(starts)))
        old = starts[j]
        starts[j] = _draw_starts(rng, w_start[j], w_len[j], granularity_ms)
        delta = energy_fn() - current_energy
        starts[j] = old
        if delta > 0:
            uphill.append(delta)
    median = _median(uphill) if uphill else 1.0
    return median / -math.log(_ACCEPT_HI), median / -math.log(_ACCEPT_LO)


def _median(values: list[float]) -> float:
    """The middle of the sorted values, or the mean of the two middle ones:
    `np.median`'s value, without the numpy.ma import of its NaN check."""
    ordered = sorted(values)
    half = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[half])
    return float((ordered[half - 1] + ordered[half]) / 2)


def assign_timestamps(plans: list[SelectionPlan], interval_targets: IntervalTargets,
                      catalog: Catalog, cfg: Config, rng_seed: int) -> AnnealResult:
    """Simulated-annealing start-time assignment against interval metric targets.

    Starts from a seeded uniform-random assignment; each move re-draws one
    instance's start time at `sa.move_granularity_ms`, accepted per
    Metropolis with geometrically cooled temperature.  Stops after
    `sa.no_improve` consecutive steps without improving the best energy, or
    after `sa.max_steps`.  The energy replays on `cores`, floored at
    `denom_floor`.
    """
    granularity, max_steps = cfg["sa.move_granularity_ms"], cfg["sa.max_steps"]
    cores, denom_floor = cfg["cores"], cfg["denom_floor"]
    _check_metrics(interval_targets, catalog)
    grid, target = interval_targets.grid, interval_targets.metrics
    schedule, w_start, w_len = _planned_instances(plans, interval_targets)
    rng = default_rng(rng_seed)
    starts = schedule.start_ts = _draw_starts(rng, w_start, w_len, granularity)
    _, works, features = expand(schedule, catalog)
    warn_if_overloaded(works, grid, cores)
    metrics = features[:, :catalog.schema.n_metrics]

    def energy_fn() -> float:
        return _energy(starts.astype(float), works, metrics, target, cores, grid,
                       denom_floor)

    current = energy_fn()
    best_starts = starts.copy()
    best = current
    trace = [best]
    if not len(schedule):
        return AnnealResult(schedule, 0.0, 0.0, [0.0], 0)

    v_max, v_min = _tune_temperatures(starts, w_start, w_len, current, energy_fn, rng,
                                      granularity)
    alpha = (v_min / v_max) ** (1.0 / max(1, max_steps))

    temperature = v_max
    no_improve = 0
    steps = 0
    while steps < max_steps and no_improve < cfg["sa.no_improve"]:
        steps += 1
        j = int(rng.integers(0, len(starts)))
        old = starts[j]
        starts[j] = _draw_starts(rng, w_start[j], w_len[j], granularity)
        candidate = energy_fn()
        delta = candidate - current
        accept = delta <= 0 or (
            temperature > 0 and rng.random() < math.exp(-delta / temperature)
        )
        if accept:
            current = candidate
        else:
            starts[j] = old
        if current < best - 1e-12:
            best = current
            best_starts = starts.copy()
            no_improve = 0
        else:
            no_improve += 1
        trace.append(best)
        temperature = max(temperature * alpha, v_min)

    schedule.start_ts = best_starts
    return AnnealResult(
        schedule=schedule,
        best_energy=best,
        initial_energy=trace[0],
        best_energy_trace=trace,
        steps=steps,
    )
