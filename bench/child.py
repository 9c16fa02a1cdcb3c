"""Measured child processes of the benchmark; `run.py` starts them.

    child.py pipeline RESULT ARGS...
        Import wlsynth.cli, then time main(["pipeline", *ARGS]) alone.
    child.py traced RESULT SPANS INPUTS OUT [--skip-ta]
        Run each subcommand on its own, with spans recorded around the public
        calls into every module, and derive the per-layer metrics.

Both write one JSON object to RESULT.  The import is never timed here: a
fresh interpreter's import is the benchmark's `setup_s`.
"""
from __future__ import annotations

import contextlib
import functools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import wlsynth.cli as cli

from checks import effective_catalog, fidelity, read_config


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pipeline(result_path: str, argv: list[str]) -> None:
    started = time.perf_counter()
    code = cli.main(["pipeline", *argv])
    seconds = time.perf_counter() - started
    Path(result_path).write_text(json.dumps(
        {"exit": code, "seconds": seconds, "maxrss_mb": _maxrss_mb()}))


class Tracer:
    """In-memory spans: name, start, end, parent; written out at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace owner.attr by a wrapper that records one span per call;
        `describe(result)` adds counters to the span.  A missing name raises
        AttributeError, so the traced run fails rather than report 0."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if describe is not None:
                    record.update(describe(result))
                return result

        setattr(owner, attr, traced)

    def finish(self) -> list[dict]:
        """Add each span's duration and self time (duration minus children)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            s["seconds"] = s["end"] - s["start"]
            if s["parent"] is not None:
                child_time[s["parent"]] += s["seconds"]
        for s in self.spans:
            s["self_seconds"] = s["seconds"] - child_time[s["id"]]
        return self.spans


def _instrument(tracer: Tracer) -> None:
    """Spans around the public calls each subcommand makes into a layer.

    The subcommands call the names they imported into wlsynth.cli, so those
    are wrapped there; calls made inside a layer are wrapped in that layer.
    """
    from wlsynth import augmenter, metrics, selector

    def rows(trace):
        return {"rows": len(trace.records)}

    def plan_counts(plan):
        return {"approximate": bool(plan.approximate), "instances": plan.total_count()}

    tracer.wrap(cli, "ingest_trace", "trace.ingest_trace", rows)
    tracer.wrap(cli, "build_targets", "trace.build_targets")
    tracer.wrap(metrics, "build_targets", "trace.build_targets")
    tracer.wrap(cli, "export_trace", "trace.export_trace")
    tracer.wrap(cli, "solve_window", "selector.solve_window", plan_counts)
    tracer.wrap(selector, "solve_window", "selector.solve_window", plan_counts)
    tracer.wrap(cli, "augment_catalog", "augmenter.augment_catalog", lambda res: {
        "targets": len(res[1]),
        "attempts": sum(len(r.attempts) for r in res[1]),
        "accepted": sum(1 for r in res[1] if r.accepted)})
    tracer.wrap(augmenter, "bad_windows", "augmenter.bad_windows",
                lambda bad: {"bad_windows": len(bad)})
    tracer.wrap(augmenter.MockProvider, "complete", "augmenter.provider_complete")
    tracer.wrap(cli, "assign_timestamps", "scheduler.assign_timestamps", lambda res: {
        "steps": res.steps, "initial_energy": res.initial_energy,
        "best_energy": res.best_energy})
    tracer.wrap(cli, "random_schedule", "scheduler.random_schedule")
    tracer.wrap(cli, "replay", "simulator.replay", rows)
    tracer.wrap(cli, "report", "metrics.report")


STAGES = ("ingest", "targets", "select", "augment", "schedule", "replay", "evaluate")


def _stage_argv(stage: str, inputs: Path, out: Path, skip_ta: bool) -> list[str]:
    argv = [stage, "--config", str(inputs / "config.txt"), "--out", str(out),
            "--jobs", "1"]
    if stage in ("ingest", "targets", "select", "augment"):
        argv += ["--trace", str(inputs / "trace.csv")]
    if stage in ("select", "augment", "schedule", "replay"):
        argv += ["--catalog", str(inputs / "catalog.csv")]
    if stage == "schedule" and skip_ta:
        argv.append("--skip-ta")
    return argv


def _ps_probe(inputs: Path, out: Path) -> dict:
    """One processor-sharing simulation of the final schedule, outside the
    pipeline, plus the offered load it carries (busy cores demanded)."""
    import numpy as np

    from wlsynth.catalog import load_catalog
    from wlsynth.config import load_config
    from wlsynth.scheduler import IntervalGrid, read_schedule, simulate_processor_sharing
    from wlsynth.trace import read_targets

    cfg = load_config(inputs / "config.txt")
    catalog = load_catalog(effective_catalog(out, inputs), cfg.schema())
    _, intervals = read_targets(out / "targets" / "windows.csv",
                                out / "targets" / "intervals.csv", cfg.schema())
    entries = read_schedule(out / "schedule" / "schedule.csv").entries
    comps = [catalog.get(e.component_id) for e in entries]
    starts = np.array([e.start_ts for e in entries], dtype=float)
    works = np.array([c.duration_ms for c in comps])
    metric_rows = np.array([c.feature.metrics for c in comps])
    grid = IntervalGrid.from_targets(intervals)
    started = time.perf_counter()
    simulate_processor_sharing(starts, works, cfg.get_int("cores"), metric_rows, grid)
    seconds = time.perf_counter() - started
    horizon_ms = grid.n_intervals * grid.interval_len_ms
    return {"ps_sim_s": seconds, "instances": len(entries),
            "offered_load": float(works.sum()) / horizon_ms}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _layer_metrics(spans: list[dict], stage_s: dict, probe: dict) -> dict:
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    stage_of = {s["id"]: s["name"] for s in spans if s["name"].startswith("cli.")}

    def total(name, key="seconds"):
        return float(sum(s[key] for s in by_name.get(name, [])))

    def solves(stage):
        return [s for s in by_name.get("selector.solve_window", [])
                if stage_of.get(s["parent"]) == stage]

    select, resolve = solves("cli.select"), solves("cli.augment")
    select_s = [s["seconds"] for s in select]
    anneal = by_name.get("scheduler.assign_timestamps", [])
    anneal_s = total("scheduler.assign_timestamps")
    steps = total("scheduler.assign_timestamps", "steps")
    initial = total("scheduler.assign_timestamps", "initial_energy")
    attempts = total("augmenter.augment_catalog", "attempts")
    accepted = total("augmenter.augment_catalog", "accepted")
    replay_s = total("simulator.replay")
    ingest_s = total("trace.ingest_trace")

    out = {f"cli.{stage}_s": stage_s[stage] for stage in STAGES}
    out.update({
        "trace.ingest_s": ingest_s,
        "trace.rows_per_s": _rate(total("trace.ingest_trace", "rows"), ingest_s),
        "trace.build_targets_s": total("trace.build_targets"),
        "trace.export_s": total("trace.export_trace"),
        "selector.windows": len(select),
        "selector.solve_s": sum(select_s),
        "selector.window_p50_s": statistics.median(select_s) if select_s else 0.0,
        "selector.window_max_s": max(select_s, default=0.0),
        "selector.approx_windows": sum(1 for s in select if s["approximate"]),
        "selector.instances": sum(s["instances"] for s in select),
        "augmenter.bad_windows": total("augmenter.bad_windows", "bad_windows"),
        "augmenter.targets": total("augmenter.augment_catalog", "targets"),
        "augmenter.attempts": attempts,
        "augmenter.accepted": accepted,
        "augmenter.provider_calls": len(by_name.get("augmenter.provider_complete", [])),
        "augmenter.accept_ratio": accepted / attempts if attempts else 0.0,
        "augmenter.s": total("augmenter.augment_catalog"),
        "augmenter.resolve_s": float(sum(s["seconds"] for s in resolve)),
        "scheduler.anneal_s": anneal_s,
        "scheduler.sa_steps": steps,
        "scheduler.steps_per_s": _rate(steps, anneal_s),
        # best / initial; 1.0 when nothing was annealed
        "scheduler.energy_ratio": (total("scheduler.assign_timestamps", "best_energy")
                                   / initial) if anneal and initial > 0 else 1.0,
        "scheduler.ps_sim_s": probe["ps_sim_s"],
        "scheduler.ps_instances_per_s": _rate(probe["instances"], probe["ps_sim_s"]),
        "scheduler.offered_load": probe["offered_load"],
        "simulator.replay_s": replay_s,
        "simulator.replay_instances_per_s": _rate(total("simulator.replay", "rows"),
                                                  replay_s),
        "metrics.report_s": total("metrics.report"),
    })
    # each layer's self time as a share of the traced subcommands' total
    pipeline_s = sum(stage_s.values())
    for layer in ("cli", "trace", "selector", "augmenter", "scheduler", "simulator",
                  "metrics"):
        self_s = sum(s["self_seconds"] for s in spans if s["name"].split(".")[0] == layer)
        out[f"{layer}.self_share"] = self_s / pipeline_s
    return out


def run_traced(result_path: str, spans_path: str, inputs: str, out: str,
               skip_ta: bool) -> None:
    inputs_dir, out_dir = Path(inputs), Path(out)
    tracer = Tracer()
    _instrument(tracer)
    stage_s, exit_code = {}, 0
    for stage in STAGES:
        with tracer.span(f"cli.{stage}") as record:
            exit_code = cli.main(_stage_argv(stage, inputs_dir, out_dir, skip_ta))
        stage_s[stage] = record["end"] - record["start"]
        if exit_code:
            break
    result = {"exit": exit_code, "seconds": sum(stage_s.values())}
    if not exit_code:
        probe = _ps_probe(inputs_dir, out_dir)
        spans = tracer.finish()
        result["metrics"] = _layer_metrics(spans, stage_s, probe)
        config = read_config(inputs_dir / "config.txt")
        result["metrics"].update({f"metrics.{name}": value for name, value
                                  in fidelity(out_dir, config).items()})
        Path(spans_path).write_text("\n".join(json.dumps(s) for s in spans) + "\n")
    Path(result_path).write_text(json.dumps(result))


def main(argv: list[str]) -> int:
    mode, result_path, rest = argv[0], argv[1], argv[2:]
    if mode == "pipeline":
        run_pipeline(result_path, rest)
    elif mode == "traced":
        spans_path, inputs, out = rest[:3]
        run_traced(result_path, spans_path, inputs, out, "--skip-ta" in rest[3:])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
