"""Timestamp assignment for selected component instances.

Every instance selected for a window gets a start timestamp inside that
window.  Fidelity against interval-level metric targets is evaluated with a
deterministic processor-sharing simulation: when P instances are running on
`cores` capacity each progresses at rate min(1, cores/P), and an instance
deposits its metric mass uniformly per unit of its own progress.  Simulated
annealing then refines the start times to minimize the summed interval
relative error.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog
from .errors import ValidationError
from .trace import IntervalTarget
from .selector import SelectionPlan

_EPS_DEFAULT = 1.0


@dataclass(frozen=True)
class ScheduleEntry:
    window_index: int
    component_id: str
    instance_index: int
    start_ts: int


@dataclass
class Schedule:
    entries: list[ScheduleEntry]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class SAConfig:
    """Annealer knobs; temperatures are auto-tuned when left unset."""

    no_improve_limit: int = 100   # S: stop after this many steps without a new best
    max_steps: int = 3000
    move_granularity_ms: int = 1000
    v_max: float | None = None
    v_min: float | None = None
    accept_probability_hi: float = 0.98
    accept_probability_lo: float = 1e-4
    denom_floor: float = _EPS_DEFAULT


@dataclass
class AnnealResult:
    schedule: Schedule
    best_energy: float
    initial_energy: float
    best_energy_trace: list[float]
    steps: int


@dataclass(frozen=True)
class IntervalGrid:
    """Uniform contiguous interval grid covering the synthesis horizon."""

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
        starts = sorted(t.interval_start_ts for t in targets)
        if len(starts) > 1:
            steps = {b - a for a, b in zip(starts, starts[1:])}
            if len(steps) != 1:
                raise ValidationError("interval targets do not form a uniform grid")
            length = steps.pop()
        else:
            length = 1
        return cls(start_ts=starts[0], interval_len_ms=int(length), n_intervals=len(starts))


def write_schedule(schedule: Schedule, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_index", "component_id", "instance_index", "start_ts"])
        for e in schedule.entries:
            writer.writerow([e.window_index, e.component_id, e.instance_index, e.start_ts])


def read_schedule(path) -> Schedule:
    entries = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            entries.append(
                ScheduleEntry(
                    window_index=int(row["window_index"]),
                    component_id=row["component_id"],
                    instance_index=int(row["instance_index"]),
                    start_ts=int(row["start_ts"]),
                )
            )
    return Schedule(entries)


def simulate_processor_sharing(
    starts: np.ndarray,
    works: np.ndarray,
    cores: int,
    metrics: np.ndarray | None = None,
    grid: IntervalGrid | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Event-driven fair-share simulation.

    Returns per-instance completion times and, when `metrics` (one row per
    instance) and a grid are given, the per-interval metric sums deposited
    while instances progress.  Deposits outside the grid are dropped.
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
            if bins is not None:
                for j in remaining:
                    _deposit(bins, grid, t, t_new, metrics[j] * (rate / works[j]))
            done = []
            for j in list(remaining):
                remaining[j] -= rate * dt
                if remaining[j] <= 1e-9 * max(1.0, works[j]):
                    done.append(j)
            for j in done:
                completions[j] = t_new
                del remaining[j]
        t = t_new
    return completions, bins


def _deposit(bins: np.ndarray, grid: IntervalGrid, a: float, b: float,
             rate_per_ms: np.ndarray) -> None:
    lo = max(a, grid.start_ts)
    hi = min(b, grid.end_ts)
    if hi <= lo:
        return
    first = int((lo - grid.start_ts) // grid.interval_len_ms)
    last = int((hi - grid.start_ts) // grid.interval_len_ms)
    last = min(last, grid.n_intervals - 1)
    for k in range(first, last + 1):
        bin_a = grid.start_ts + k * grid.interval_len_ms
        overlap = min(hi, bin_a + grid.interval_len_ms) - max(lo, bin_a)
        if overlap > 0:
            bins[k] += rate_per_ms * overlap


def _expand(schedule: Schedule, catalog: Catalog):
    starts = np.array([e.start_ts for e in schedule.entries], dtype=float)
    comps = [catalog.get(e.component_id) for e in schedule.entries]
    works = np.array([c.duration_ms for c in comps])
    metrics = np.array([c.feature.metrics for c in comps]) if comps else np.zeros((0, 0))
    return starts, works, metrics


def estimate_interval_features(
    schedule: Schedule,
    catalog: Catalog,
    interval_len_ms: int,
    cores: int,
    grid: IntervalGrid,
) -> list[IntervalTarget]:
    """Simulated per-interval metric sums for a schedule (metrics only)."""
    if interval_len_ms != grid.interval_len_ms:
        raise ValidationError("interval_len_ms does not match the grid")
    starts, works, metrics = _expand(schedule, catalog)
    if len(schedule.entries) == 0:
        bins = np.zeros((grid.n_intervals, catalog.schema.n_metrics))
    else:
        _, bins = simulate_processor_sharing(starts, works, cores, metrics, grid)
    out = []
    for k in range(grid.n_intervals):
        out.append(
            IntervalTarget(
                window_index=-1,
                interval_index=k,
                interval_start_ts=grid.start_ts + k * grid.interval_len_ms,
                metrics=bins[k].copy(),
            )
        )
    return out


def _target_matrix(targets: list[IntervalTarget], grid: IntervalGrid) -> np.ndarray:
    ordered = sorted(targets, key=lambda t: t.interval_start_ts)
    return np.array([t.metrics for t in ordered])


def energy(
    schedule: Schedule,
    interval_targets: list[IntervalTarget],
    catalog: Catalog,
    cores: int,
    denom_floor: float = _EPS_DEFAULT,
) -> float:
    """Sum over intervals and metric dimensions of |achieved - target| / max(target, eps)."""
    grid = IntervalGrid.from_targets(interval_targets)
    target = _target_matrix(interval_targets, grid)
    if target.shape[1] != catalog.schema.n_metrics:
        raise ValidationError("interval target metric dimensions do not match the catalog")
    starts, works, metrics = _expand(schedule, catalog)
    if len(schedule.entries) == 0:
        achieved = np.zeros_like(target)
    else:
        _, achieved = simulate_processor_sharing(starts, works, cores, metrics, grid)
    denom = np.maximum(target, denom_floor)
    return float(np.sum(np.abs(achieved - target) / denom))


@dataclass(frozen=True)
class _Instance:
    window_index: int
    component_id: str
    instance_index: int
    window_start_ts: int
    window_len_ms: int


def _instances_from_plans(
    plans: list[SelectionPlan], grid: IntervalGrid, interval_targets: list[IntervalTarget]
) -> list[_Instance]:
    # window geometry is recovered from the interval grid
    windows: dict[int, list[int]] = {}
    for t in interval_targets:
        windows.setdefault(t.window_index, []).append(t.interval_start_ts)
    instances = []
    for plan in plans:
        if plan.window_index not in windows:
            raise ValidationError(f"plan references unknown window {plan.window_index}")
        starts = windows[plan.window_index]
        w_start = min(starts)
        w_len = grid.interval_len_ms * len(starts)
        for component_id in sorted(plan.counts):
            for k in range(plan.counts[component_id]):
                instances.append(
                    _Instance(plan.window_index, component_id, k, w_start, w_len)
                )
    return instances


def _random_offset(rng: np.random.Generator, window_len_ms: int, granularity_ms: int) -> int:
    slots = max(1, window_len_ms // granularity_ms)
    return int(rng.integers(0, slots)) * granularity_ms


def random_schedule(
    plans: list[SelectionPlan],
    interval_targets: list[IntervalTarget],
    rng_seed: int,
    granularity_ms: int = 1000,
) -> Schedule:
    """Uniform random in-window start times; the annealer's initial state and
    the baseline used by the timestamp-assignment ablation."""
    grid = IntervalGrid.from_targets(interval_targets)
    rng = np.random.default_rng(rng_seed)
    entries = []
    for inst in _instances_from_plans(plans, grid, interval_targets):
        offset = _random_offset(rng, inst.window_len_ms, granularity_ms)
        entries.append(
            ScheduleEntry(
                inst.window_index, inst.component_id, inst.instance_index,
                inst.window_start_ts + offset,
            )
        )
    return Schedule(entries)


def _tune_temperatures(
    schedule: Schedule,
    instances: list[_Instance],
    current_energy: float,
    energy_fn,
    rng: np.random.Generator,
    config: SAConfig,
) -> tuple[float, float]:
    """Sample random moves from the initial state to pick V_max and V_min so the
    median uphill step is accepted with the configured probabilities."""
    uphill = []
    entries = schedule.entries
    for _ in range(100):
        j = int(rng.integers(0, len(entries)))
        inst = instances[j]
        offset = _random_offset(rng, inst.window_len_ms, config.move_granularity_ms)
        old = entries[j]
        entries[j] = ScheduleEntry(
            old.window_index, old.component_id, old.instance_index,
            inst.window_start_ts + offset,
        )
        delta = energy_fn(schedule) - current_energy
        entries[j] = old
        if delta > 0:
            uphill.append(delta)
    median = float(np.median(uphill)) if uphill else 1.0
    v_max = median / -math.log(config.accept_probability_hi)
    v_min = median / -math.log(config.accept_probability_lo)
    return v_max, v_min


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
    grid = IntervalGrid.from_targets(interval_targets)
    instances = _instances_from_plans(plans, grid, interval_targets)
    rng = np.random.default_rng(rng_seed)
    entries0 = []
    for inst in instances:
        offset = _random_offset(rng, inst.window_len_ms, config.move_granularity_ms)
        entries0.append(
            ScheduleEntry(
                inst.window_index, inst.component_id, inst.instance_index,
                inst.window_start_ts + offset,
            )
        )
    schedule = Schedule(entries0)

    def energy_fn(s: Schedule) -> float:
        return energy(s, interval_targets, catalog, cores, config.denom_floor)

    current = energy_fn(schedule)
    best_entries = list(schedule.entries)
    best = current
    trace = [best]
    if not instances:
        return AnnealResult(Schedule([]), 0.0, 0.0, [0.0], 0)

    v_max, v_min = config.v_max, config.v_min
    if v_max is None or v_min is None:
        tuned = _tune_temperatures(schedule, instances, current, energy_fn, rng, config)
        v_max = v_max if v_max is not None else tuned[0]
        v_min = v_min if v_min is not None else tuned[1]
    v_min = min(v_min, v_max)
    alpha = (v_min / v_max) ** (1.0 / max(1, config.max_steps)) if v_max > 0 else 1.0

    temperature = v_max
    no_improve = 0
    steps = 0
    entries = schedule.entries
    while steps < config.max_steps and no_improve < config.no_improve_limit:
        steps += 1
        j = int(rng.integers(0, len(entries)))
        inst = instances[j]
        offset = _random_offset(rng, inst.window_len_ms, config.move_granularity_ms)
        old = entries[j]
        entries[j] = ScheduleEntry(
            old.window_index, old.component_id, old.instance_index,
            inst.window_start_ts + offset,
        )
        candidate = energy_fn(schedule)
        delta = candidate - current
        accept = delta <= 0 or (
            temperature > 0 and rng.random() < math.exp(-delta / temperature)
        )
        if accept:
            current = candidate
        else:
            entries[j] = old
        if current < best - 1e-12:
            best = current
            best_entries = list(entries)
            no_improve = 0
        else:
            no_improve += 1
        trace.append(best)
        temperature = max(temperature * alpha, v_min)

    return AnnealResult(
        schedule=Schedule(best_entries),
        best_energy=best,
        initial_energy=trace[0],
        best_energy_trace=trace,
        steps=steps,
    )
