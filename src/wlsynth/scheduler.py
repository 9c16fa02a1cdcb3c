"""Timestamp assignment for selected component instances.

Every instance selected for a window gets a start timestamp inside that
window.  Fidelity against interval-level metric targets is evaluated with a
deterministic processor-sharing simulation: when P instances are running on
`cores` capacity each progresses at rate min(1, cores/P).  Each instance's
metric mass is then binned exactly as `evaluate` bins the replayed trace:
spread evenly over its replayed span, the ceil-rounded simulated run time
and never less than the profiled duration.  Simulated annealing refines the
start times to minimize the summed interval relative error.

A Schedule holds one column per field; the stages and the annealer work on
the columns and build no per-instance objects.
"""
from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog
from .errors import ValidationError
from .trace import _BLOCK, IntervalGrid, IntervalTarget, read_columns, target_matrix
from .selector import SelectionPlan, relative_error

log = logging.getLogger(__name__)

_EPS_DEFAULT = 1.0
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
    The constructor converts a list of entries once; `from_columns` takes
    the columns as they are.
    """

    def __init__(self, entries: list[ScheduleEntry] = ()):
        self._set(*([getattr(e, name) for e in entries] for name in SCHEDULE_COLUMNS))

    @classmethod
    def from_columns(cls, window_index, component_id, instance_index, start_ts) -> "Schedule":
        schedule = cls.__new__(cls)
        schedule._set(window_index, component_id, instance_index, start_ts)
        return schedule

    def _set(self, window_index, component_id, instance_index, start_ts) -> None:
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
class SAConfig:
    """Annealer knobs; the temperatures are tuned from the initial state."""

    no_improve_limit: int = 100   # S: stop after this many steps without a new best
    max_steps: int = 3000
    move_granularity_ms: int = 1000
    denom_floor: float = _EPS_DEFAULT


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
    processor-sharing backlog grows across the horizon, completions stretch
    past it, and every simulation of the schedule slows down.
    """
    load = float(np.sum(works)) / (grid.end_ts - grid.start_ts)
    if load > cores:
        log.warning("offered load %.6g exceeds cores = %d: the processor-sharing "
                    "backlog grows across the horizon", load, cores)


def write_schedule(schedule: Schedule, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCHEDULE_COLUMNS)
        writer.writerows(zip(*(getattr(schedule, name).tolist() for name in SCHEDULE_COLUMNS)))


def read_schedule(path) -> Schedule:
    """Read a schedule CSV through `trace.read_columns`: the component id is
    text, every other column an int64."""
    columns = read_columns(path, "schedule", dict(zip(SCHEDULE_COLUMNS, (int, str, int, int))),
                           {})
    return Schedule.from_columns(*columns.values())


def simulate_processor_sharing(
    starts: np.ndarray,
    works: np.ndarray,
    cores: int,
    metrics: np.ndarray | None = None,
    grid: IntervalGrid | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Event-driven fair-share simulation.

    Returns per-instance completion times and, when `metrics` (one row per
    instance) and a grid are given, the per-interval metric sums of the
    replayed trace, binned as `build_targets` bins it: `IntervalGrid.spread`
    spreads each instance's metrics from its start over its
    `replayed_durations`, instances in index order.  Mass outside the grid
    is dropped.
    """
    if cores < 1:
        raise ValidationError("cores must be >= 1")
    n = len(starts)
    completions = np.zeros(n)
    bins = None
    if metrics is not None:
        if grid is None:
            raise ValidationError("a grid is required to accumulate interval metrics")
        bins = np.zeros((grid.n_intervals, metrics.shape[1]))
    if n == 0:
        return completions, bins

    order = sorted(range(n), key=lambda j: (starts[j], j))
    remaining = {}
    t = float(starts[order[0]])
    nxt = 0
    while remaining or nxt < n:
        while nxt < n and starts[order[nxt]] <= t + 1e-12:
            j = order[nxt]
            if works[j] <= 0:
                completions[j] = starts[j]
            else:
                remaining[j] = float(works[j])
            nxt += 1
        if not remaining:
            if nxt < n:
                t = float(starts[order[nxt]])
            continue
        rate = min(1.0, cores / len(remaining))
        t_finish = t + min(remaining.values()) / rate
        t_arrive = float(starts[order[nxt]]) if nxt < n else math.inf
        t_new = min(t_finish, t_arrive)
        dt = t_new - t
        if dt > 0:
            done = []
            for j in list(remaining):
                remaining[j] -= rate * dt
                if remaining[j] <= 1e-9 * max(1.0, works[j]):
                    done.append(j)
            for j in done:
                completions[j] = t_new
                del remaining[j]
        t = t_new
    if bins is not None:
        durations = replayed_durations(starts, completions, works)
        # under a backlog each instance spans many intervals: blocks bound the temporaries
        for b in range(0, n, _BLOCK):
            rows = slice(b, b + _BLOCK)
            grid.spread(starts[rows], durations[rows], metrics[rows], bins)
    return completions, bins


def replayed_durations(starts, completions, works) -> np.ndarray:
    """Each instance's duration in the replayed trace: its simulated run
    time, never below its profiled duration, both rounded up to whole ms."""
    return np.maximum(np.ceil(completions - starts), np.ceil(works))


def expand(schedule: Schedule, catalog: Catalog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float start times, profiled durations and feature rows (metrics then
    operators) of a schedule's instances, gathered from the catalog."""
    names, component = np.unique(schedule.component_id, return_inverse=True)
    comps = [catalog.get(name) for name in names.tolist()]
    works = np.array([c.duration_ms for c in comps], dtype=float)
    features = np.array([c.feature.as_vector() for c in comps]).reshape(
        len(comps), len(catalog.schema.dimensions))
    return schedule.start_ts.astype(float), works[component], features[component]


def _energy(starts: np.ndarray, works: np.ndarray, metrics: np.ndarray, target: np.ndarray,
            cores: int, grid: IntervalGrid, denom_floor: float) -> float:
    _, achieved = simulate_processor_sharing(starts, works, cores, metrics, grid)
    return relative_error(achieved, target, denom_floor)


def _check_targets(interval_targets: list[IntervalTarget], catalog: Catalog
                   ) -> tuple[IntervalGrid, np.ndarray]:
    """The grid and the (intervals x metrics) target matrix in time order."""
    grid = IntervalGrid.from_targets(interval_targets)
    target = target_matrix(interval_targets)
    if target.shape[1] != catalog.schema.n_metrics:
        raise ValidationError("interval target metric dimensions do not match the catalog")
    return grid, target


def energy(
    schedule: Schedule,
    interval_targets: list[IntervalTarget],
    catalog: Catalog,
    cores: int,
    denom_floor: float = _EPS_DEFAULT,
) -> float:
    """`selector.relative_error` of the replayed interval metrics against the targets."""
    grid, target = _check_targets(interval_targets, catalog)
    starts, works, features = expand(schedule, catalog)
    return _energy(starts, works, features[:, :catalog.schema.n_metrics], target, cores,
                   grid, denom_floor)


def _planned_instances(plans: list[SelectionPlan], grid: IntervalGrid,
                       interval_targets: list[IntervalTarget]
                       ) -> tuple[Schedule, np.ndarray, np.ndarray]:
    """Every planned instance, window by window in plan order and components
    in id order, with start_ts at its window's start; also each instance's
    window start and length, recovered from the interval grid."""
    windows: dict[int, list[int]] = {}
    for t in interval_targets:
        windows.setdefault(t.window_index, []).append(t.interval_start_ts)
    rows = []
    for plan in plans:
        if plan.window_index not in windows:
            raise ValidationError(f"plan references unknown window {plan.window_index}")
        starts = windows[plan.window_index]
        rows += [(plan.window_index, cid, plan.counts[cid], min(starts),
                  grid.interval_len_ms * len(starts)) for cid in sorted(plan.counts)]
    window, cid, count, w_start, w_len = (
        np.array(col, dtype=dtype) for col, dtype in
        zip(list(zip(*rows)) or [()] * 5, (np.int64, str, np.int64, np.int64, np.int64)))
    row = np.repeat(np.arange(count.size), count)
    instance = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
    schedule = Schedule.from_columns(window[row], cid[row], instance, w_start[row])
    return schedule, schedule.start_ts, w_len[row]


def _draw_starts(rng: np.random.Generator, window_start, window_len, granularity_ms: int):
    """Uniform random start times at `granularity_ms` steps inside windows.

    One `rng.integers` call draws for a whole array of windows or for one
    scalar window.  On the numpy this package supports the array call yields
    the values and generator state of one scalar call per window, in order;
    tests/test_scheduler.py pins that.
    """
    slots = np.maximum(1, window_len // granularity_ms)
    return window_start + rng.integers(0, slots) * granularity_ms


def random_schedule(
    plans: list[SelectionPlan],
    interval_targets: list[IntervalTarget],
    rng_seed: int,
    granularity_ms: int = 1000,
) -> Schedule:
    """Uniform random in-window start times; the annealer's initial state and
    the baseline used by the timestamp-assignment ablation."""
    grid = IntervalGrid.from_targets(interval_targets)
    schedule, w_start, w_len = _planned_instances(plans, grid, interval_targets)
    schedule.start_ts = _draw_starts(np.random.default_rng(rng_seed), w_start, w_len,
                                     granularity_ms)
    return schedule


def _tune_temperatures(
    starts: np.ndarray,
    w_start: np.ndarray,
    w_len: np.ndarray,
    current_energy: float,
    energy_fn,
    rng: np.random.Generator,
    config: SAConfig,
) -> tuple[float, float]:
    """Sample random moves from the initial state to pick V_max and V_min so the
    median uphill step is accepted with probabilities _ACCEPT_HI and _ACCEPT_LO."""
    uphill = []
    for _ in range(100):
        j = int(rng.integers(0, len(starts)))
        old = starts[j]
        starts[j] = _draw_starts(rng, w_start[j], w_len[j], config.move_granularity_ms)
        delta = energy_fn() - current_energy
        starts[j] = old
        if delta > 0:
            uphill.append(delta)
    median = float(np.median(uphill)) if uphill else 1.0
    return median / -math.log(_ACCEPT_HI), median / -math.log(_ACCEPT_LO)


def assign_timestamps(
    plans: list[SelectionPlan],
    interval_targets: list[IntervalTarget],
    catalog: Catalog,
    sa_config: SAConfig | None = None,
    rng_seed: int = 0,
    cores: int = 8,
) -> AnnealResult:
    """Simulated-annealing start-time assignment against interval metric targets.

    Starts from a seeded uniform-random assignment; each move re-draws one
    instance's start time at move granularity, accepted per Metropolis with
    geometrically cooled temperature.  Stops after `no_improve_limit`
    consecutive steps without improving the best energy, or at the step cap.
    """
    config = sa_config or SAConfig()
    grid, target = _check_targets(interval_targets, catalog)
    schedule, w_start, w_len = _planned_instances(plans, grid, interval_targets)
    rng = np.random.default_rng(rng_seed)
    starts = schedule.start_ts = _draw_starts(rng, w_start, w_len, config.move_granularity_ms)
    _, works, features = expand(schedule, catalog)
    warn_if_overloaded(works, grid, cores)
    metrics = features[:, :catalog.schema.n_metrics]

    def energy_fn() -> float:
        return _energy(starts.astype(float), works, metrics, target, cores, grid,
                       config.denom_floor)

    current = energy_fn()
    best_starts = starts.copy()
    best = current
    trace = [best]
    if not len(schedule):
        return AnnealResult(schedule, 0.0, 0.0, [0.0], 0)

    v_max, v_min = _tune_temperatures(starts, w_start, w_len, current, energy_fn, rng, config)
    alpha = (v_min / v_max) ** (1.0 / max(1, config.max_steps))

    temperature = v_max
    no_improve = 0
    steps = 0
    while steps < config.max_steps and no_improve < config.no_improve_limit:
        steps += 1
        j = int(rng.integers(0, len(starts)))
        old = starts[j]
        starts[j] = _draw_starts(rng, w_start[j], w_len[j], config.move_granularity_ms)
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
