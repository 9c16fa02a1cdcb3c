"""Seeded input generator for the wlsynth benchmark.

Each workload follows the planted-schedule recipe of the round-trip
acceptance fixture: draw a catalog of components, plant instances of them at
whole-second offsets inside each window, and write the trace those instances
leave when run without contention (every query lasts its component's
duration).  The catalog handed to wlsynth may hide some planted components.

A workload's shape is fixed by its name: the components, which of them the
catalog hides, and how many instances of each every window plants.  The
seed draws the arrival offsets.  So every seed poses the same selection
problems, whose branch-and-bound cost is heavy-tailed from one draw to the
next, while the interval targets, the annealing and the replay change.

This module uses only the standard library and none of wlsynth, so a change
to the program cannot change the inputs.  The same seed always gives the
same bytes; `write_inputs` returns the sha256 of every file it writes.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

METRICS = ("cpu_time_ms", "scanned_bytes")
OPERATORS = ("filter_num", "aggregate_num", "join_num", "sort_num")
WINDOW_MS = 300_000
INTERVAL_MS = 30_000
HIDDEN_SPIKE = (20, 40)
VALUES = (1, 9)  # inclusive range of every shown component's feature entries


@dataclass(frozen=True)
class Workload:
    """Shape of one generated input; the seed draws the arrival offsets."""

    name: str
    windows: int
    per_window: int           # planted instances per window
    components: int           # planted component pool
    shown: int                # components the catalog reveals to wlsynth
    hidden_per_window: int    # planted instances of components it hides
    duration_ms: tuple[int, int]
    config: dict[str, str] = field(default_factory=dict)
    flags: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w for w in (
        # The catalog hides 3 of 15 components and every window plants one
        # of them: most windows fit worse than the augment threshold, so
        # selection and augmentation (mock provider, full re-solve) dominate.
        Workload(
            name="select_gap",
            windows=6, per_window=8, components=15, shown=12, hidden_per_window=1,
            duration_ms=(6_000, 20_000),
            config={"cores": "32", "sa.no_improve": "100", "sa.max_steps": "100"},
        ),
        # Many short queries with --skip-ta: trace CSV handling, replay and
        # scoring dominate; 6 components in 6 dimensions make the selection
        # exact at the root, and annealing is off.
        Workload(
            name="dense_trace",
            windows=72, per_window=280, components=6, shown=6, hidden_per_window=0,
            duration_ms=(500, 3_000),
            config={"cores": "16", "y": "600"},
            flags=("--skip-ta",),
        ),
    )
}


def _config_text(workload: Workload) -> str:
    values = {
        "metrics": ", ".join(METRICS),
        "operators": ", ".join(OPERATORS),
        "window_ms": str(WINDOW_MS),
        "interval_ms": str(INTERVAL_MS),
        # the program's own seed stays fixed; the workload seed varies the input
        "seed": "0",
        "y": "10",
        "z": "",
        "z_per_query_factor": "2.0",
        **workload.config,
    }
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def generate(workload: Workload, seed: int) -> dict[str, str]:
    """Return the text of trace.csv, catalog.csv and config.txt."""
    # str seeding hashes with sha512, so it is stable across Python versions
    shape = random.Random(f"wlsynth-bench:{workload.name}")
    rng = random.Random(f"wlsynth-bench:{workload.name}:{seed}")
    dims = len(METRICS) + len(OPERATORS)
    shown = sorted(shape.sample(range(workload.components), workload.shown))
    hidden = [j for j in range(workload.components) if j not in shown]
    pool = []
    for j in range(workload.components):
        duration = shape.randint(*workload.duration_ms)
        if j in shown:
            feature = [shape.randint(*VALUES) for _ in range(dims)]
        else:
            # a hidden component is CPU- or scan-heavy: one metric far above
            # the catalog's range and the rest near zero, a profile no
            # combination of catalog components matches
            feature = [shape.randint(0, 2) for _ in range(dims)]
            feature[shape.randrange(len(METRICS))] = shape.randint(*HIDDEN_SPIKE)
        pool.append((f"c{j:02d}", duration, feature))
    rows = []
    for w in range(workload.windows):
        serial: dict[str, int] = {}
        picks = [shape.choice(hidden) for _ in range(workload.hidden_per_window)]
        picks += [shape.choice(shown) for _ in range(workload.per_window - len(picks))]
        for j in picks:
            cid, duration, feature = pool[j]
            k = serial.get(cid, 0)
            serial[cid] = k + 1
            slack_s = (WINDOW_MS - duration) // 1000
            # the first query arrives at 0, so wlsynth's windows (aligned to
            # the first arrival) coincide with the planted ones
            offset = rng.randrange(slack_s) if rows else 0
            start = w * WINDOW_MS + offset * 1000
            rows.append((w, cid, k, start, duration, feature))
    # planted-schedule order (window, component, instance), as the
    # acceptance fixture's replay writes it
    rows.sort(key=lambda r: r[:3])

    header = ",".join(("query_id", "arrival_ts", "duration_ms") + METRICS + OPERATORS)
    trace = [header] + [
        ",".join([f"{cid}.w{w}.k{k}", str(start), str(duration)]
                 + [str(v) for v in feature])
        for w, cid, k, start, duration, feature in rows
    ]

    catalog = ["component_id,benchmark,scale_factor,skewness,duration_ms,"
               + ",".join(METRICS + OPERATORS) + ",query_ref"]
    for j in shown:
        cid, duration, feature = pool[j]
        catalog.append(",".join([cid, "tpch", "1", "0", str(duration)]
                                + [str(v) for v in feature] + [f"{cid}.sql"]))

    return {
        "trace.csv": "\n".join(trace) + "\n",
        "catalog.csv": "\n".join(catalog) + "\n",
        "config.txt": _config_text(workload),
    }


def write_inputs(workload: Workload, seed: int, directory: Path) -> dict[str, str]:
    """Write the generated inputs into `directory`; return name -> sha256."""
    directory.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, text in generate(workload, seed).items():
        data = text.encode()
        (directory / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests
