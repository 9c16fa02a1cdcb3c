"""wlsynth benchmark: time-to-synthesis, set-up time and peak memory of the
real `pipeline` subcommand on seeded synthetic traces.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ./src.  With
--trace 0 the end-to-end metrics are printed; with --trace 1 a separate
traced run adds the per-layer metrics.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
# outputs whose digests are printed, so two commits can be shown to agree
REPORTED_OUTPUTS = ("plans/plan.csv", "schedule/schedule.csv", "report/scores.csv")
# start no repetition after this, whatever --seconds says, so that one
# invocation ends within three minutes
HARD_STOP_S = 120.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def time_import(env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter that imports wlsynth.cli and exits."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import wlsynth.cli"], env=env, check=True)
    return time.perf_counter() - started


def run_child(args: list[str], result: Path, log: Path, env: dict[str, str]) -> dict:
    with open(log, "w", encoding="utf-8") as err:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), *args],
                              env=env, stdout=err, stderr=err)
    if proc.returncode != 0 or not result.exists():
        return {"exit": proc.returncode or 1}
    return json.loads(result.read_text())


class Verdicts:
    """Counts attempted and failed runs; a run fails on a non-zero exit, a
    broken output check, or artifacts that differ from the first good run."""

    def __init__(self, inputs: Path, config: dict[str, str]):
        self.inputs, self.config = inputs, config
        self.attempted = self.failed = 0
        self.reference: dict[str, str] | None = None

    def judge(self, label: str, outcome: dict, out: Path) -> bool:
        self.attempted += 1
        problems = []
        if outcome.get("exit") != 0:
            problems.append(f"exit code {outcome.get('exit')}")
        else:
            problems += checks.check_outputs(out, self.inputs, self.config)
            digests = checks.artifact_digests(out)
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                changed = sorted(k for k in digests.keys() | self.reference.keys()
                                 if digests.get(k) != self.reference.get(k))
                problems.append(f"artifacts differ from the first run: {changed}")
        for problem in problems:
            print(f"FAIL {label}: {problem}")
        if problems:
            self.failed += 1
        return not problems


def declared_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wlsynth" / "cli.py").is_file():
        print(f"error: no wlsynth sources under {SRC}", file=sys.stderr)
        return 2
    began = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    digests = workloads.write_inputs(workload, args.seed, inputs)
    for name, digest in sorted(digests.items()):
        print(f"input {name} sha256 {digest}")
    config = checks.read_config(inputs / "config.txt")
    env = child_env()

    time_import(env)  # compiles the bytecode once, as an install would

    verdicts = Verdicts(inputs, config)
    pipeline_argv = ["--config", str(inputs / "config.txt"),
                     "--trace", str(inputs / "trace.csv"),
                     "--catalog", str(inputs / "catalog.csv"),
                     "--jobs", "1", *workload.flags]
    reps, walls, setup = [], [], []
    started = time.perf_counter()
    # repeat for --seconds, but start no run that would likely end after it
    while len(reps) < MIN_REPS or (
            time.perf_counter() - started + statistics.median(walls) <= args.seconds
            and time.perf_counter() - began < HARD_STOP_S):
        rep_started = time.perf_counter()
        if not args.trace:
            # one set-up sample per repetition, so that setup_s and
            # pipeline_s are medians over the same stretch of time
            setup.append(time_import(env))
        out = work / f"run{len(reps)}"
        result = work / f"run{len(reps)}.json"
        outcome = run_child(["pipeline", str(result), *pipeline_argv,
                             "--out", str(out)], result, work / f"run{len(reps)}.log", env)
        walls.append(time.perf_counter() - rep_started)
        ok = verdicts.judge(f"run {len(reps)}", outcome, out)
        reps.append(outcome | {"ok": ok, "out": out})
        print(f"run {len(reps) - 1}: exit {outcome.get('exit')}, "
              f"{outcome.get('seconds', float('nan')):.3f} s, "
              f"peak RSS {outcome.get('maxrss_mb', float('nan')):.1f} MB, "
              f"checks {'pass' if ok else 'FAIL'}")
    good = [r for r in reps if r["ok"]]
    if not good:
        print("error: no pipeline run passed its checks", file=sys.stderr)
        return 1
    pipeline_s = statistics.median(r["seconds"] for r in good)
    for name in REPORTED_OUTPUTS:
        print(f"output {name} sha256 {verdicts.reference[name]}")
    scores = checks.fidelity(good[0]["out"], config)
    for name, value in scores.items():
        print(f"fidelity {name} {value!r}")

    if args.trace:
        out = work / "traced"
        result = work / "traced.json"
        outcome = run_child(["traced", str(result), str(work / "spans.jsonl"),
                             str(inputs), str(out), *workload.flags],
                            result, work / "traced.log", env)
        verdicts.judge("traced run", outcome, out)
        if "metrics" not in outcome:
            print("error: the traced run produced no metrics", file=sys.stderr)
            return 1
        values = outcome["metrics"]
        values["tracing.overhead_s"] = outcome["seconds"] - pipeline_s
        units = declared_units("per_layer")
    else:
        values = {
            "pipeline_s": pipeline_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in good),
        }
        units = declared_units("end_to_end")

    missing = sorted(units.keys() - values.keys())
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print("checks per run: exit code 0; plans within y, z and the duration budget; "
          "one schedule row per planned instance, each start inside its window; "
          "one replay row per schedule row; finite scores; artifacts identical "
          "to the first run's")
    print(f"fail_rate {verdicts.failed}/{verdicts.attempted}")
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
