"""Output checks and fidelity figures, recomputed from a pipeline's CSV files.

Nothing here imports wlsynth: the checks read the artifacts through their
CSV contracts, so they hold the program to what it wrote.
"""
from __future__ import annotations

import csv
import hashlib
import math
from collections import Counter, defaultdict
from pathlib import Path


def read_config(path: Path) -> dict[str, str]:
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.lstrip().startswith("#"):
            values[key.strip()] = value.strip()
    return values


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _names(config: dict[str, str], key: str) -> list[str]:
    return [part.strip() for part in config[key].split(",") if part.strip()]


def effective_catalog(out: Path, inputs: Path) -> Path:
    """The catalog the schedule and replay used."""
    augmented = out / "augment" / "catalog.csv"
    return augmented if augmented.exists() else inputs / "catalog.csv"


def check_outputs(out: Path, inputs: Path, config: dict[str, str]) -> list[str]:
    """Every broken output property, as one line each; empty when all hold."""
    problems = []
    y = int(config["y"])
    cores = int(config["cores"])
    windows = {int(r["window_index"]): r for r in _rows(out / "targets" / "windows.csv")}
    durations = {r["component_id"]: float(r["duration_ms"])
                 for r in _rows(effective_catalog(out, inputs))}

    plans: dict[int, dict[str, int]] = defaultdict(dict)
    for r in _rows(out / "plans" / "plan.csv"):
        plans[int(r["window_index"])][r["component_id"]] = int(r["count"])
    for w, counts in sorted(plans.items()):
        if w not in windows:
            problems.append(f"plan for unknown window {w}")
            continue
        queries = int(windows[w]["query_count"])
        z = int(config["z"]) if config["z"] else max(
            1, round(float(config["z_per_query_factor"]) * queries))
        budget = int(windows[w]["window_len_ms"]) * cores
        used = sum(n * durations[cid] for cid, n in counts.items())
        if any(n < 0 or n > y for n in counts.values()):
            problems.append(f"window {w}: a count exceeds y={y}")
        if sum(counts.values()) > z:
            problems.append(f"window {w}: {sum(counts.values())} instances > z={z}")
        if used > budget + 1e-9:
            problems.append(f"window {w}: {used} ms of work > budget {budget} ms")

    schedule = _rows(out / "schedule" / "schedule.csv")
    planned = Counter()
    for w, counts in plans.items():
        for cid, n in counts.items():
            planned.update((w, cid, k) for k in range(n))
    scheduled = Counter((int(r["window_index"]), r["component_id"],
                         int(r["instance_index"])) for r in schedule)
    if scheduled != planned:
        problems.append(f"schedule rows {sum(scheduled.values())} do not match "
                        f"the {sum(planned.values())} planned instances")
    for r in schedule:
        window = windows.get(int(r["window_index"]))
        start = int(r["start_ts"])
        if window is None or not (
                int(window["window_start_ts"]) <= start
                < int(window["window_start_ts"]) + int(window["window_len_ms"])):
            problems.append(f"start {start} of {r['component_id']} lies outside "
                            f"window {r['window_index']}")
            break

    replayed = _rows(out / "replay" / "trace.csv")
    if len(replayed) != len(schedule):
        problems.append(f"replay has {len(replayed)} rows for {len(schedule)} "
                        f"schedule rows")

    scores = _rows(out / "report" / "scores.csv")
    if not scores or not all(math.isfinite(float(r["value"])) for r in scores):
        problems.append("report/scores.csv is empty or holds a non-finite score")
    return problems


def fidelity(out: Path, config: dict[str, str]) -> dict[str, float]:
    """Window GMAPE of the worst metric dimension, interval GMAPE averaged over
    the metric dimensions, and window MAE of the worst operator dimension."""
    scores = _rows(out / "report" / "scores.csv")
    metrics, operators = _names(config, "metrics"), _names(config, "operators")

    def values(level, name, dims):
        return [float(r["value"]) for r in scores
                if r["level"] == level and r["metric"] == name and r["dimension"] in dims]

    interval = values("interval", "gmape", metrics)
    return {
        "window_gmape": max(values("window", "gmape", metrics)),
        "interval_gmape": sum(interval) / len(interval),
        "operator_mae": max(values("window", "mae", operators)),
    }


def artifact_digests(out: Path) -> dict[str, str]:
    """sha256 of every file under `out`, by relative path."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}
