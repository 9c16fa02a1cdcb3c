"""Replay a schedule into a synthetic trace.

Deterministic stand-in for sending the selected queries to a real cluster:
the same processor-sharing engine the annealer optimizes against produces
per-instance completion times, so scheduling energy and evaluated fidelity
cannot diverge by construction.
"""
from __future__ import annotations

import math

from .catalog import Catalog
from .features import MODE_COUNTS
from .scheduler import (
    IntervalGrid,
    Schedule,
    simulate_processor_sharing,
    warn_if_overloaded,
    _expand,
)
from .trace import QueryRecord, Trace


def replay(schedule: Schedule, catalog: Catalog, cores: int, mode: str = MODE_COUNTS,
           grid: IntervalGrid | None = None) -> Trace:
    """Run the schedule once and return the resulting trace.

    Each schedule entry becomes one record: arrival is the scheduled start,
    duration the simulated completion minus the start (never below the
    profiled duration), metrics and operators the component's feature.
    Given the target interval grid, an offered load above `cores` is logged.
    """
    starts, works, _ = _expand(schedule, catalog)
    if grid is not None:
        warn_if_overloaded(works, grid, cores)
    completions, _ = simulate_processor_sharing(starts, works, cores)
    records = []
    for entry, start, completion in zip(schedule.entries, starts, completions):
        comp = catalog.get(entry.component_id)
        duration = max(math.ceil(completion - start), math.ceil(comp.duration_ms))
        records.append(
            QueryRecord(
                query_id=f"{entry.component_id}.w{entry.window_index}.k{entry.instance_index}",
                arrival_ts=int(start),
                duration_ms=int(duration),
                metrics=comp.feature.metrics.copy(),
                operators=comp.feature.operators.copy(),
            )
        )
    return Trace(records=records, schema=catalog.schema, mode=mode)
