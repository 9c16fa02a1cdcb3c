"""Command-line pipeline driver.

Each stage is a subcommand and one function, `stage_<name>(run)`: it takes
its inputs from the invocation's run context (`Run`) and writes the CSV
contracts of the library modules, so any prefix of the pipeline can be
resumed from its artifacts.  `pipeline` calls the same stage functions in
order on one context, where each finds the outputs of the stages before it
and reads back nothing the run wrote.  Every plan set is written one way,
by `finish_windows` on the windows' stacked LP relaxation over the run's
catalog (`_write_plans`).  `augment` decides the badly fit windows on that
relaxation over --catalog (`augmenter.bad_windows`), so it needs no plans.
A pipeline that runs augment leaves the plans to it: its select solves
nothing, no window's exact MIP runs before augment, and the plans are
written once, after it.
All randomness flows from one --seed; each stage derives its own generator
by hashing the stage name.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import locale  # noqa: F401 argparse's gettext imports it when main builds the parser
import logging
import os
import re
import shutil
import sys
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import numpy as np

from . import augmenter
from .augmenter import HttpProvider, MockProvider, augment_catalog, write_attempt_log
from .catalog import Catalog, SimulatedExecutor, load_catalog, save_catalog
from .config import Config, load_config
from .errors import ConfigError, WlsynthError
from .metrics import report, write_report
from .scheduler import (
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
    finish_windows,
    match_query,
    read_plans,
    relax_windows,
    solve_window,  # noqa: F401 not called here; bench/child.py traces it under this name
    write_plan_summary,
    write_plans,
)
from .simulator import replay
from .trace import (Trace, _parse_int, build_targets, export_trace, ingest_trace, read_targets,
                    write_targets)

log = logging.getLogger(__name__)

WINDOW_LEVEL = "window"
_DATA_FILES = ("demo_trace.csv", "demo_catalog.csv", "demo_config.txt")
# flags whose text sets the config key of their name (underscores for dashes)
_KEY_FLAGS = {"seed": None, "window_ms": None, "interval_ms": None, "cores": None,
              "y": "max repetitions of one component per window",
              "z": "max total instances per window"}


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


def _existing(path, what: str, hint: str):
    if not Path(path).is_file():
        raise ConfigError(f"no {what} at {path}; {hint}")
    return path


class Run:
    """One invocation's stage inputs: the value an earlier stage of the same
    invocation left in `held`, else its artifact read back (the relaxation:
    solved) on first use, and held from then on."""

    def __init__(self, cfg: Config, args: argparse.Namespace):
        self.cfg, self.args, self.paths = cfg, args, _Paths(args.out)
        try:  # read as the integer flags that set config keys are
            self.jobs = _parse_int(args.jobs, 0, "--jobs")
        except WlsynthError:
            raise ConfigError(f"--jobs: expected an integer, got {args.jobs!r}") from None
        if self.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {self.jobs}")
        self.held: dict[str, object] = {}

    def get(self, name: str):
        if name not in self.held:
            self.held[name] = getattr(self, f"_read_{name}")()
        return self.held[name]

    def _read_trace(self) -> Trace:
        path = _existing(getattr(self.args, "trace", None) or self.paths.trace, "trace",
                         "pass --trace or run 'ingest' first")
        return ingest_trace(path, self.cfg.schema(), self.cfg["mode"])

    def _read_targets(self):
        windows = _existing(self.paths.targets / "windows.csv", "targets", "run 'targets' first")
        return read_targets(windows, self.paths.targets / "intervals.csv", self.cfg.schema())

    def _read_catalog(self) -> Catalog:
        # select and augment start from --catalog; a standalone schedule or
        # replay reads the catalog an earlier augment left, which must extend
        # the --catalog it is given (augment only appends to it)
        schema, augmented = self.cfg.schema(), self.paths.augment / "catalog.csv"
        standalone = self.args.command in ("schedule", "replay")
        if standalone and augmented.is_file():
            catalog = load_catalog(augmented, schema)
            if self.args.catalog is not None and not _extends(
                    catalog, load_catalog(_catalog_arg(self.args), schema)):
                raise ConfigError(f"{augmented} does not extend --catalog {self.args.catalog}; "
                                  "rerun 'augment' with this --catalog")
            return catalog
        if standalone and self.args.catalog is None:
            raise ConfigError("--catalog is required (no augmented catalog found)")
        return load_catalog(_catalog_arg(self.args), schema)

    def _read_relaxation(self):
        with _solver_output_to_stderr():
            return relax_windows(self.get("targets")[0], self.get("catalog"), self.cfg)

    def _read_plans(self) -> list[SelectionPlan]:
        path = _existing(self.paths.plans / "plan.csv", "plans", "run 'select' first")
        windows, _ = self.get("targets")
        return read_plans(path, windows, self.get("catalog"), self.cfg)

    def _read_schedule(self) -> Schedule:
        return read_schedule(_existing(self.paths.schedule / "schedule.csv", "schedule",
                                       "run 'schedule' first"))

    def _read_replayed(self) -> Trace:
        path = _existing(self.paths.replay / "trace.csv", "replayed trace", "run 'replay' first")
        return ingest_trace(path, self.cfg.schema(), self.cfg["mode"])


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


def _extends(catalog: Catalog, base: Catalog) -> bool:
    """Whether `catalog`'s first rows are `base`'s, column for column."""
    n = len(base)
    return len(catalog) >= n and all(
        column[:n] == first if isinstance(first, list) else np.array_equal(column[:n], first)
        for column, first in zip(catalog.columns, base.columns))


def _catalog_arg(args) -> str:
    if args.catalog is None:
        raise ConfigError(f"{args.command} requires --catalog")
    return _existing(args.catalog, "catalog", "pass an existing --catalog")


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


# Each stage_<name> is one subcommand: it takes its inputs from the run
# context, writes its artifacts and leaves its outputs in `run.held`, where a
# later stage of the same `pipeline` run finds them without reading back.

def stage_ingest(run: Run) -> None:
    if run.args.trace is None:
        raise ConfigError("ingest requires --trace")
    path = _existing(run.args.trace, "trace", "pass an existing --trace")
    trace = ingest_trace(path, run.cfg.schema(), run.cfg["mode"])
    run.paths.ensure()
    export_trace(trace, run.paths.trace)
    log.info("ingested %d records -> %s", len(trace), run.paths.trace)
    run.held["trace"] = trace


def stage_targets(run: Run) -> None:
    cfg, paths = run.cfg, run.paths
    windows, intervals = build_targets(run.get("trace"), cfg["window_ms"], cfg["interval_ms"])
    paths.ensure(paths.targets)
    write_targets(windows, intervals, paths.targets / "windows.csv",
                  paths.targets / "intervals.csv", cfg.schema())
    log.info("wrote %d windows, %d intervals", len(windows), len(intervals))
    run.held["targets"] = windows, intervals


def _write_plans(run: Run) -> None:
    """Finish every window's plan from the relaxation over the run's catalog,
    write the plans and hold them in its place: every plan set is written here."""
    windows, _ = run.get("targets")
    relaxation = run.get("relaxation")
    with _solver_output_to_stderr():
        plans = finish_windows(*relaxation, run.jobs)
    del run.held["relaxation"]
    run.paths.ensure(run.paths.plans)
    write_plans(plans, run.paths.plans / "plan.csv")
    write_plan_summary(plans, windows, run.cfg.schema(), run.paths.plans / "summary.csv")
    run.held["plans"] = plans


def stage_select(run: Run) -> None:
    """The input trace is read only for --query-level matching."""
    cfg, paths, level = run.cfg, run.paths, run.args.query_level
    windows, _ = run.get("targets")
    catalog = run.get("catalog")
    trace = None if level == WINDOW_LEVEL else run.get("trace")
    if trace is not None:
        paths.ensure(paths.plans)
        with _solver_output_to_stderr(), open(paths.plans / "query_matches.csv", "w",
                                              newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("query_id", "component_id", "count", "objective"))
            # a match depends only on the feature row: identical rows get identical plans
            matches: dict[bytes, SelectionPlan] = {}
            for query_id, feature in zip(trace.query_id, trace.features):
                key = feature.tobytes()
                if key not in matches:
                    matches[key] = match_query(feature, catalog, cfg, mode=level)
                plan = matches[key]
                writer.writerows((query_id, cid, plan.counts[cid], repr(plan.objective_value))
                                 for cid in sorted(plan.counts))
        log.info("matched %d queries (%s)", len(trace), level)
    if run.args.command == "pipeline" and not run.args.skip_augment:
        return  # augment writes the plans, from the relaxation it decides the bad windows on
    _write_plans(run)
    log.info("solved %d windows", len(windows))


def stage_augment(run: Run) -> None:
    """Holds the augmented catalog, and the plans finished with it.  The
    windows whose optimum exceeds `augment.bad_window_threshold` are decided
    on the relaxation over --catalog, which also gives the plans when no
    component is accepted."""
    cfg, paths = run.cfg, run.paths
    trace = run.get("trace")
    windows, _ = run.get("targets")
    catalog = run.get("catalog")
    relaxation = run.get("relaxation")
    with _solver_output_to_stderr():
        bad = augmenter.bad_windows(*relaxation, cfg["augment.bad_window_threshold"], run.jobs)
    augmented, reports = augment_catalog(
        trace, bad, windows, catalog, _provider(cfg), SimulatedExecutor(cfg.schema()),
        cfg, stage_seed(cfg["seed"], "augment"),
    )
    paths.ensure(paths.augment)
    save_catalog(augmented, paths.augment / "catalog.csv")
    write_attempt_log(reports, paths.augment / "attempts.jsonl")
    run.held["catalog"] = augmented
    accepted = sum(1 for r in reports if r.accepted)
    if accepted:
        del run.held["relaxation"]  # the plans are finished on the augmented catalog's
    _write_plans(run)
    log.info("augmentation: %d/%d targets accepted", accepted, len(reports))


def stage_schedule(run: Run) -> None:
    cfg, paths = run.cfg, run.paths
    _, intervals = run.get("targets")
    catalog = run.get("catalog")
    plans = run.get("plans")
    paths.ensure(paths.schedule)
    seed = stage_seed(cfg["seed"], "schedule")
    if run.args.skip_ta:
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
    run.held["schedule"] = schedule


def stage_replay(run: Run) -> None:
    cfg, paths = run.cfg, run.paths
    catalog = run.get("catalog")
    _, intervals = run.get("targets")
    replayed = replay(run.get("schedule"), catalog, cfg["cores"], cfg["mode"], intervals.grid)
    paths.ensure(paths.replay)
    export_trace(replayed, paths.replay / "trace.csv")
    log.info("replayed %d instances", len(replayed))
    run.held["replayed"] = replayed


def stage_evaluate(run: Run) -> None:
    windows, intervals = run.get("targets")
    rep = report(windows, intervals, run.get("replayed"), run.cfg["metrics_eps"])
    run.paths.ensure(run.paths.report)
    write_report(rep, run.paths.report / "scores.csv", run.paths.report / "plot_data.csv")
    for level, dim, name, value, _ in rep.rows():
        print(f"{level:8s} {dim:20s} {name:6s} {value:.6g}")


# subcommand -> (stage function, help, its flags in FLAGS); `pipeline` runs
# these stages in this order
STAGES = {
    "ingest": (stage_ingest, "validate a trace and normalize it into the output dir",
               ("--trace",)),
    "targets": (stage_targets, "aggregate the trace into window/interval targets",
                ("--trace",)),
    "select": (stage_select, "pick component counts per window",
               ("--trace", "--catalog", "--query-level")),
    "augment": (stage_augment, "generate components for badly-fit windows and re-solve",
                ("--trace", "--catalog")),
    "schedule": (stage_schedule, "assign start timestamps inside each window",
                 ("--catalog", "--skip-ta")),
    "replay": (stage_replay, "simulate the schedule into a replayed trace", ("--catalog",)),
    "evaluate": (stage_evaluate, "score the replayed trace against the targets", ()),
}
# every flag a stage takes; `pipeline` takes them all
FLAGS = {
    "--trace": dict(help="input trace CSV"),
    "--catalog": dict(help="component catalog CSV"),
    "--query-level": dict(default=WINDOW_LEVEL, choices=[WINDOW_LEVEL, ONE_TO_ONE, ONE_TO_MANY],
                          help="window-level selection (default) or per-query matching"),
    "--skip-ta": dict(action="store_true", help="random start times instead of annealing"),
    "--skip-augment": dict(action="store_true", help="keep the selected plans: run no augment stage"),
}


def pipeline(run: Run) -> None:
    _catalog_arg(run.args)  # before any stage writes
    for name, (stage, _, _) in STAGES.items():
        if not (name == "augment" and run.args.skip_augment):
            stage(run)
        # the trace's last consumer is augment and the schedule's is replay:
        # dropping each there keeps it out of the later stages' peak memory
        run.held.pop({"augment": "trace", "replay": "schedule"}.get(name), None)


def demo(run: Run) -> None:
    """Copy the bundled demo trace, catalog and config into the output dir."""
    root = run.paths.root
    run.paths.ensure()
    for name in _DATA_FILES:
        with resources.as_file(resources.files("wlsynth.data") / name) as src:
            shutil.copy(src, root / name)
    print(f"demo inputs written to {root}")
    print(f"run: wlsynth pipeline --config {root / 'demo_config.txt'} "
          f"--trace {root / 'demo_trace.csv'} "
          f"--catalog {root / 'demo_catalog.csv'} --out {root / 'out'}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--out", default="out", help="output directory (default: out)")
    for key, help_text in _KEY_FLAGS.items():
        common.add_argument(f"--{key.replace('_', '-')}", dest=key, help=help_text)
    common.add_argument("--jobs", default="1", help="parallel window solves (default: 1)")
    common.add_argument("-v", "--verbose", action="store_true")

    parser = argparse.ArgumentParser(
        prog="wlsynth",
        description="Assemble runnable synthetic workloads that replay like a target trace.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {**STAGES, "pipeline": (pipeline, "run every stage end to end", FLAGS),
                "demo": (demo, "materialize the bundled demo inputs", ())}
    for name, (fn, help_text, flags) in commands.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config, {key: getattr(args, key) for key in _KEY_FLAGS})
        args.fn(Run(cfg, args))
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
