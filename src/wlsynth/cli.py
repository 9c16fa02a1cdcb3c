"""Command-line pipeline driver.

Each stage is a subcommand reading and writing the CSV contracts of the
library modules, so any prefix of the pipeline can be resumed from its
artifacts.  `pipeline` runs the same stage functions in order and hands each
one's outputs to the next in memory; it writes the same artifacts.  All
randomness flows from one --seed; each stage derives its own generator by
hashing the stage name.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import re
import shutil
import sys
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

from .augmenter import HttpProvider, MockProvider, augment_catalog, write_attempt_log
from .catalog import Catalog, SimulatedExecutor, load_catalog, save_catalog
from .config import Config, load_config
from .errors import ConfigError, WlsynthError
from .features import PerformanceFeature
from .metrics import FidelityReport, report, write_report
from .scheduler import (
    IntervalGrid,
    Schedule,
    assign_timestamps,
    random_schedule,
    read_schedule,
    write_schedule,
)
from .selector import (
    ONE_TO_MANY,
    ONE_TO_ONE,
    SelectionPlan,
    match_query,
    read_plans,
    solve_all_windows,
    solve_window,  # not called here; bench/child.py traces it under this name
    write_plan_summary,
    write_plans,
)
from .simulator import replay
from .trace import Trace, build_targets, export_trace, ingest_trace, read_targets, write_targets

log = logging.getLogger(__name__)

WINDOW_LEVEL = "window"
_DATA_FILES = ("demo_trace.csv", "demo_catalog.csv", "demo_config.txt")
_FLAG_KEYS = ("seed", "window_ms", "interval_ms", "cores", "y", "z")  # flags that set a config key


def stage_seed(seed: int, stage: str) -> int:
    """Stable per-stage seed derived from the single pipeline seed."""
    digest = hashlib.sha256(f"{seed}:{stage}".encode()).hexdigest()
    return int(digest[:16], 16)


class _Paths:
    """Output directory layout shared by all subcommands."""

    def __init__(self, out: str):
        self.root = Path(out)
        self.trace = self.root / "trace.csv"
        self.targets = self.root / "targets"
        self.plans = self.root / "plans"
        self.schedule = self.root / "schedule"
        self.replay = self.root / "replay"
        self.report = self.root / "report"
        self.augment = self.root / "augment"

    def ensure(self, *dirs: Path) -> None:
        for d in (self.root,) + dirs:
            d.mkdir(parents=True, exist_ok=True)

    def effective_catalog(self, explicit: str | None):
        """Augmented catalog when one was produced, otherwise the one given."""
        augmented = self.augment / "catalog.csv"
        if augmented.exists():
            return augmented
        if explicit is None:
            raise ConfigError("--catalog is required (no augmented catalog found)")
        return explicit


def _read_trace(cfg: Config, paths: _Paths, args):
    path = getattr(args, "trace", None) or paths.trace
    if not Path(path).exists():
        raise ConfigError(f"no trace at {path}; pass --trace or run 'ingest' first")
    return ingest_trace(path, cfg.schema(), cfg["mode"])


def _read_targets(cfg: Config, paths: _Paths):
    windows_path = paths.targets / "windows.csv"
    intervals_path = paths.targets / "intervals.csv"
    if not windows_path.exists():
        raise ConfigError(f"no targets at {windows_path}; run 'targets' first")
    return read_targets(windows_path, intervals_path, cfg.schema())


def _read_plans(cfg: Config, paths: _Paths, windows, catalog: Catalog) -> list[SelectionPlan]:
    return read_plans(paths.plans / "plan.csv", windows, catalog, cfg)


@contextmanager
def _solver_output_to_stderr():
    """Point file descriptor 1 at stderr while HiGHS solves.

    HiGHS's MIP solver can print diagnostics straight to fd 1, past
    sys.stdout and into the CLI's own output.  Swap the descriptor once, in
    the calling thread, around all of a stage's solves: swaps made per solve
    from pool threads race and can leave stdout pointing at stderr.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        os.dup2(2, 1)
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def _solve_windows(targets, catalog, cfg: Config, jobs: int) -> list[SelectionPlan]:
    with _solver_output_to_stderr():
        return solve_all_windows(targets, catalog, cfg, jobs)


def _catalog_arg(args) -> str:
    if args.catalog is None:
        raise ConfigError(f"{args.command} requires --catalog")
    return args.catalog


_TARGET_LINE_RE = re.compile(r"TARGET FEATURE:\n  (?P<body>[^\n]*)")
_PAIR_RE = re.compile(r"(\w+)=([-+0-9.eE]+)")


def echo_policy(prompt: str, calls: int) -> str:
    """Default mock-provider policy: answer with a query annotated to profile
    exactly at the prompt's target feature.  Keeps the bundled demo closed."""
    match = _TARGET_LINE_RE.search(prompt)
    pairs = dict(_PAIR_RE.findall(match.group("body"))) if match else {}
    body = "; ".join(f"{k}={v}" for k, v in sorted(pairs.items()))
    return f"SELECT 1 /* profile: duration_ms=30000; {body}; */"


def _provider(cfg: Config):
    if cfg["provider.kind"] == "mock":
        return MockProvider(echo_policy)
    if not cfg["provider.endpoint"]:
        raise ConfigError("provider.endpoint is required when provider.kind = http")
    return HttpProvider(cfg["provider.endpoint"], cfg["provider.timeout_ms"])


# Each run_<stage> takes the stage's inputs as objects, writes the stage's
# artifacts and returns its outputs.  cmd_<stage> loads those inputs from the
# artifacts of earlier stages; cmd_pipeline passes each stage's return value
# on, so a run reads back nothing it wrote.

def run_ingest(cfg: Config, paths: _Paths, trace_path) -> Trace:
    if trace_path is None:
        raise ConfigError("ingest requires --trace")
    trace = ingest_trace(trace_path, cfg.schema(), cfg["mode"])
    paths.ensure()
    export_trace(trace, paths.trace)
    log.info("ingested %d records -> %s", len(trace), paths.trace)
    return trace


def run_targets(cfg: Config, paths: _Paths, trace: Trace):
    windows, intervals = build_targets(trace, cfg["window_ms"], cfg["interval_ms"])
    paths.ensure(paths.targets)
    write_targets(windows, intervals, paths.targets / "windows.csv",
                  paths.targets / "intervals.csv", cfg.schema())
    log.info("wrote %d windows, %d intervals", len(windows), len(intervals))
    return windows, intervals


def _write_plans(cfg: Config, paths: _Paths, plans: list[SelectionPlan], windows) -> None:
    write_plans(plans, paths.plans / "plan.csv")
    write_plan_summary(plans, windows, cfg.schema(), paths.plans / "summary.csv")


def run_select(cfg: Config, paths: _Paths, args, windows, catalog: Catalog,
               trace: Trace | None) -> list[SelectionPlan]:
    """`trace` is used only by --query-level matching."""
    paths.ensure(paths.plans)
    if args.query_level != WINDOW_LEVEL:
        matches = paths.plans / "query_matches.csv"
        with _solver_output_to_stderr(), open(matches, "w", encoding="utf-8") as fh:
            fh.write("query_id,component_id,count,objective\n")
            for query_id, feature in zip(trace.query_id, trace.features):
                plan = match_query(PerformanceFeature.from_vector(feature, trace.schema),
                                   catalog, cfg, mode=args.query_level)
                for cid in sorted(plan.counts):
                    fh.write(f"{query_id},{cid},{plan.counts[cid]},"
                             f"{plan.objective_value!r}\n")
        log.info("matched %d queries (%s)", len(trace), args.query_level)
    plans = _solve_windows(windows, catalog, cfg, args.jobs)
    _write_plans(cfg, paths, plans, windows)
    log.info("solved %d windows", len(plans))
    return plans


def run_augment(cfg: Config, paths: _Paths, args, trace: Trace, windows,
                catalog: Catalog, plans: list[SelectionPlan]
                ) -> tuple[Catalog, list[SelectionPlan]]:
    """Returns the augmented catalog and the plans the later stages use."""
    executor = SimulatedExecutor(cfg.schema())
    augmented, reports = augment_catalog(
        trace, plans, windows, catalog, _provider(cfg), executor,
        cfg, stage_seed(cfg["seed"], "augment"),
    )
    paths.ensure(paths.augment, paths.plans)
    save_catalog(augmented, paths.augment / "catalog.csv")
    write_attempt_log(reports, paths.augment / "attempts.jsonl")
    accepted = sum(1 for r in reports if r.accepted)
    if accepted == 0:
        # same catalog as the plans were solved with: a re-solve writes the same bytes
        log.info("augmentation: 0/%d targets accepted, plans kept", len(reports))
        return augmented, plans
    plans = _solve_windows(windows, augmented, cfg, args.jobs)
    _write_plans(cfg, paths, plans, windows)
    log.info("augmentation: %d/%d targets accepted, plans re-solved",
             accepted, len(reports))
    return augmented, plans


def run_schedule(cfg: Config, paths: _Paths, args, plans: list[SelectionPlan],
                 intervals, catalog: Catalog) -> Schedule:
    paths.ensure(paths.schedule)
    seed = stage_seed(cfg["seed"], "schedule")
    if args.skip_ta:
        schedule = random_schedule(plans, intervals, cfg, seed)
        trace_rows = []
    else:
        result = assign_timestamps(plans, intervals, catalog, cfg, seed)
        schedule = result.schedule
        trace_rows = list(enumerate(result.best_energy_trace))
        log.info("annealed %d steps: energy %.6g -> %.6g",
                 result.steps, result.initial_energy, result.best_energy)
    write_schedule(schedule, paths.schedule / "schedule.csv")
    with open(paths.schedule / "energy.csv", "w", encoding="utf-8") as fh:
        fh.write("step,best_energy\n")
        for step, value in trace_rows:
            fh.write(f"{step},{value!r}\n")
    return schedule


def run_replay(cfg: Config, paths: _Paths, schedule: Schedule, catalog: Catalog,
               intervals) -> Trace:
    replayed = replay(schedule, catalog, cfg["cores"], cfg["mode"],
                      IntervalGrid.from_targets(intervals))
    paths.ensure(paths.replay)
    export_trace(replayed, paths.replay / "trace.csv")
    log.info("replayed %d instances", len(replayed))
    return replayed


def run_evaluate(cfg: Config, paths: _Paths, windows, intervals,
                 replayed: Trace) -> FidelityReport:
    rep = report(windows, intervals, replayed, cfg["metrics_eps"])
    paths.ensure(paths.report)
    write_report(rep, paths.report / "scores.csv", paths.report / "plot_data.csv")
    for level, dim, name, value, _ in rep.rows():
        print(f"{level:8s} {dim:20s} {name:6s} {value:.6g}")
    return rep


def cmd_ingest(cfg: Config, paths: _Paths, args) -> None:
    run_ingest(cfg, paths, args.trace)


def cmd_targets(cfg: Config, paths: _Paths, args) -> None:
    run_targets(cfg, paths, _read_trace(cfg, paths, args))


def cmd_select(cfg: Config, paths: _Paths, args) -> None:
    windows, _ = _read_targets(cfg, paths)
    catalog = load_catalog(_catalog_arg(args), cfg.schema())
    trace = None if args.query_level == WINDOW_LEVEL else _read_trace(cfg, paths, args)
    run_select(cfg, paths, args, windows, catalog, trace)


def cmd_augment(cfg: Config, paths: _Paths, args) -> None:
    trace = _read_trace(cfg, paths, args)
    windows, _ = _read_targets(cfg, paths)
    catalog = load_catalog(_catalog_arg(args), cfg.schema())
    plans = _read_plans(cfg, paths, windows, catalog)
    run_augment(cfg, paths, args, trace, windows, catalog, plans)


def cmd_schedule(cfg: Config, paths: _Paths, args) -> None:
    windows, intervals = _read_targets(cfg, paths)
    catalog = load_catalog(paths.effective_catalog(args.catalog), cfg.schema())
    plans = _read_plans(cfg, paths, windows, catalog)
    run_schedule(cfg, paths, args, plans, intervals, catalog)


def cmd_replay(cfg: Config, paths: _Paths, args) -> None:
    catalog = load_catalog(paths.effective_catalog(args.catalog), cfg.schema())
    _, intervals = _read_targets(cfg, paths)
    schedule = read_schedule(paths.schedule / "schedule.csv")
    run_replay(cfg, paths, schedule, catalog, intervals)


def cmd_evaluate(cfg: Config, paths: _Paths, args) -> None:
    windows, intervals = _read_targets(cfg, paths)
    replayed_path = paths.replay / "trace.csv"
    if not replayed_path.exists():
        raise ConfigError(f"no replayed trace at {replayed_path}; run 'replay' first")
    replayed = ingest_trace(replayed_path, cfg.schema(), cfg["mode"])
    run_evaluate(cfg, paths, windows, intervals, replayed)


def cmd_pipeline(cfg: Config, paths: _Paths, args) -> None:
    catalog_path = _catalog_arg(args)  # before any stage writes
    trace = run_ingest(cfg, paths, args.trace)
    windows, intervals = run_targets(cfg, paths, trace)
    catalog = load_catalog(catalog_path, cfg.schema())
    plans = run_select(cfg, paths, args, windows, catalog, trace)
    if not args.skip_augment:
        catalog, plans = run_augment(cfg, paths, args, trace, windows, catalog, plans)
    # the input trace's last consumer is done, and the schedule's after the
    # replay: dropping each there keeps it out of the later stages' peak memory
    del trace
    schedule = run_schedule(cfg, paths, args, plans, intervals, catalog)
    replayed = run_replay(cfg, paths, schedule, catalog, intervals)
    del schedule
    run_evaluate(cfg, paths, windows, intervals, replayed)


def cmd_demo(cfg: Config, paths: _Paths, args) -> None:
    """Copy the bundled demo trace, catalog and config into the output dir."""
    paths.ensure()
    for name in _DATA_FILES:
        with resources.as_file(resources.files("wlsynth.data") / name) as src:
            shutil.copy(src, paths.root / name)
    print(f"demo inputs written to {paths.root}")
    print(f"run: wlsynth pipeline --config {paths.root / 'demo_config.txt'} "
          f"--trace {paths.root / 'demo_trace.csv'} "
          f"--catalog {paths.root / 'demo_catalog.csv'} --out {paths.root / 'out'}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--out", default="out", help="output directory (default: out)")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--window-ms", type=int, default=None, dest="window_ms")
    common.add_argument("--interval-ms", type=int, default=None, dest="interval_ms")
    common.add_argument("--cores", type=int, default=None)
    common.add_argument("--y", type=int, default=None,
                        help="max repetitions of one component per window")
    common.add_argument("--z", type=int, default=None,
                        help="max total instances per window")
    common.add_argument("--jobs", type=int, default=1,
                        help="parallel window solves (default: 1)")
    common.add_argument("-v", "--verbose", action="store_true")

    parser = argparse.ArgumentParser(
        prog="wlsynth",
        description="Assemble runnable synthetic workloads that replay like a target trace.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, trace=False, catalog=False, extra=None):
        p = sub.add_parser(name, parents=[common], help=help_text)
        if trace:
            p.add_argument("--trace", help="input trace CSV")
        if catalog:
            p.add_argument("--catalog", help="component catalog CSV")
        if extra:
            extra(p)
        p.set_defaults(fn=fn)
        return p

    add("ingest", cmd_ingest, "validate a trace and normalize it into the output dir",
        trace=True)
    add("targets", cmd_targets, "aggregate the trace into window/interval targets",
        trace=True)

    def select_extra(p):
        p.add_argument("--query-level", default=WINDOW_LEVEL,
                       choices=[WINDOW_LEVEL, ONE_TO_ONE, ONE_TO_MANY],
                       help="window-level selection (default) or per-query matching")

    add("select", cmd_select, "pick component counts per window", trace=True,
        catalog=True, extra=select_extra)
    add("augment", cmd_augment, "generate components for badly-fit windows and re-solve",
        trace=True, catalog=True)

    def schedule_extra(p):
        p.add_argument("--skip-ta", action="store_true",
                       help="random start times instead of annealing")

    add("schedule", cmd_schedule, "assign start timestamps inside each window",
        catalog=True, extra=schedule_extra)
    add("replay", cmd_replay, "simulate the schedule into a replayed trace",
        catalog=True)
    add("evaluate", cmd_evaluate, "score the replayed trace against the targets")

    def pipeline_extra(p):
        p.add_argument("--skip-ta", action="store_true")
        p.add_argument("--skip-augment", action="store_true")
        p.add_argument("--query-level", default=WINDOW_LEVEL,
                       choices=[WINDOW_LEVEL, ONE_TO_ONE, ONE_TO_MANY])

    add("pipeline", cmd_pipeline, "run every stage end to end", trace=True,
        catalog=True, extra=pipeline_extra)
    add("demo", cmd_demo, "materialize the bundled demo inputs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config, {key: getattr(args, key) for key in _FLAG_KEYS})
        args.fn(cfg, _Paths(args.out), args)
    except WlsynthError as exc:
        print(json.dumps({
            "stage": args.command,
            "error": type(exc).__name__,
            "message": str(exc),
        }), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
