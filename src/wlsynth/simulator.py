"""Replay a schedule into a synthetic trace.

Deterministic stand-in for sending the selected queries to a real cluster:
the processor-sharing engine the annealer optimizes against produces
per-instance completion times, and `replayed_durations` turns them into the
trace's durations.  The annealer's energy bins the replayed trace exactly
as `evaluate` does, so on the same schedule, grid and cores the energy is
the evaluator's same-formula interval error, under contention too.
"""
from __future__ import annotations

from operator import add

from .catalog import Catalog
from .scheduler import (Schedule, expand, replayed_durations, simulate_processor_sharing,
                        warn_if_overloaded)
from .trace import IntervalGrid, Trace


def replay(schedule: Schedule, catalog: Catalog, cores: int, mode: str,
           grid: IntervalGrid | None = None) -> Trace:
    """Run the schedule once and return the resulting trace.

    Each schedule row becomes one trace row: arrival is the scheduled start,
    duration the simulated completion minus the start (never below the
    profiled duration), both rounded up to whole ms, and features the
    component's.  Given the target interval grid, an offered load above
    `cores` is logged.
    """
    starts, works, features = expand(schedule, catalog)
    if grid is not None:
        warn_if_overloaded(works, grid, cores)
    completions, _ = simulate_processor_sharing(starts, works, cores)
    durations = replayed_durations(starts, completions, works)
    windows, instances = schedule.window_index.tolist(), schedule.instance_index.tolist()
    # each id joins one text per distinct window and per distinct instance index
    window_text = {w: f".w{w}.k" for w in set(windows)}
    instance_text = {k: str(k) for k in set(instances)}
    prefixes = map(add, schedule.component_id.tolist(), map(window_text.get, windows))
    query_id = list(map(add, prefixes, map(instance_text.get, instances)))
    return Trace(query_id, schedule.start_ts.copy(), durations, features, catalog.schema, mode)
