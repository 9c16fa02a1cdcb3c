"""Smoke tests of the benchmark's child processes on the current source.

`bench/child.py pipeline` runs the untraced `pipeline` that every
end-to-end metric times.  `bench/child.py traced` wraps names of the
program (`cli.solve_window`, `simulate_processor_sharing` called with five
arguments, `Trace.records`, `Schedule.entries`, ...).  A change that
breaks one of them fails here, not only in a `bench/run.py --trace 1` run.
The output digests that ROADMAP.md records for byte-identity claims, at
seed 1 and at the held-out seed 1009, are pinned here too, so a change to
those bytes fails here as well; a change meant to alter them updates both
places.  So are the prefixes of `plans/summary.csv` and
`report/plot_data.csv`, which the triples leave out.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import write_bench_inputs

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _run_child(*args):
    return subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *map(str, args)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=600)


def test_traced_child_reports_every_layer_metric(tmp_path, monkeypatch):
    _, inputs = write_bench_inputs(tmp_path, monkeypatch, "select_gap")
    result = tmp_path / "result.json"
    proc = _run_child("traced", result, tmp_path / "spans.jsonl", inputs, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    outcome = json.loads(result.read_text())
    assert outcome["exit"] == 0, proc.stderr
    # bench/run.py adds the tracing overhead itself, from the untraced runs
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    missing = declared - {"tracing.overhead_s"} - outcome["metrics"].keys()
    assert not missing
    # one selector.solve_window span per window of the select stage
    assert outcome["metrics"]["selector.windows"] == 6
    assert outcome["metrics"]["selector.instances"] > 0
    # the standalone augment decides the bad windows by augmenter.bad_windows,
    # the name the child wraps: 5 of the 6 windows, and 3 components accepted
    assert outcome["metrics"]["augmenter.bad_windows"] == 5
    assert outcome["metrics"]["augmenter.accepted"] == 3


def test_pipeline_child_runs_dense_trace(tmp_path, monkeypatch):
    """The untraced child behind every end-to-end metric, with the argv
    bench/run.py gives it."""
    workload, inputs = write_bench_inputs(tmp_path, monkeypatch, "dense_trace")
    result = tmp_path / "result.json"
    proc = _run_child("pipeline", result, "--config", inputs / "config.txt",
                      "--trace", inputs / "trace.csv", "--catalog", inputs / "catalog.csv",
                      "--out", tmp_path / "out", "--jobs", "1", *workload.flags)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(result.read_text())["exit"] == 0, proc.stderr


# sha256 prefixes of plans/plan.csv, schedule/schedule.csv and
# report/scores.csv for each workload's inputs at seed 1 and at the held-out
# seed 1009, as ROADMAP.md lists them
PINNED_DIGESTS = {
    ("select_gap", 1): ("1e3f6ff42303", "4cb87728a85d", "268da535bccd"),
    ("select_gap", 1009): ("1e3f6ff42303", "90806b946256", "be4dd83b1e35"),
    ("dense_trace", 1): ("58f75f3c9973", "9d84e8cce2b0", "387033601646"),
    ("dense_trace", 1009): ("58f75f3c9973", "9d84e8cce2b0", "56ed79e00fc1"),
}


# sha256 prefixes of schedule/energy.csv, the annealer's best-energy trace,
# where the workload anneals
PINNED_ENERGY_DIGESTS = {
    ("select_gap", 1): "c2b95831a533",
    ("select_gap", 1009): "e67ad13086e2",
}


# sha256 prefixes of plans/summary.csv and report/plot_data.csv, the two
# table artifacts the digest triples leave out
PINNED_TABLE_DIGESTS = {
    ("select_gap", 1): ("f54d290d47b2", "acb9281c25fd"),
    ("select_gap", 1009): ("187925eeb614", "c5ba0a5b3a74"),
    ("dense_trace", 1): ("f91f4a0e0caa", "5d332c3f8e26"),
    ("dense_trace", 1009): ("a2e14f15c1a2", "aa4424372bf6"),
}


@pytest.mark.parametrize("name, seed", sorted(PINNED_DIGESTS))
def test_pipeline_child_writes_the_pinned_bytes(tmp_path, monkeypatch, name, seed):
    workload, inputs = write_bench_inputs(tmp_path, monkeypatch, name, seed)
    out = tmp_path / "out"
    proc = _run_child("pipeline", tmp_path / "result.json", "--config", inputs / "config.txt",
                      "--trace", inputs / "trace.csv", "--catalog", inputs / "catalog.csv",
                      "--out", out, "--jobs", "1", *workload.flags)
    assert proc.returncode == 0, proc.stderr
    digests = tuple(hashlib.sha256((out / artifact).read_bytes()).hexdigest()[:12]
                    for artifact in ("plans/plan.csv", "schedule/schedule.csv",
                                     "report/scores.csv"))
    assert digests == PINNED_DIGESTS[name, seed]
    tables = tuple(hashlib.sha256((out / artifact).read_bytes()).hexdigest()[:12]
                   for artifact in ("plans/summary.csv", "report/plot_data.csv"))
    assert tables == PINNED_TABLE_DIGESTS[name, seed]
    if (name, seed) in PINNED_ENERGY_DIGESTS:
        energy = hashlib.sha256((out / "schedule/energy.csv").read_bytes()).hexdigest()[:12]
        assert energy == PINNED_ENERGY_DIGESTS[name, seed]
