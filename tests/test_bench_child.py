"""Smoke tests of the benchmark's child processes on the current source.

`bench/child.py pipeline` runs the untraced `pipeline` that every
end-to-end metric times.  `bench/child.py traced` wraps names of the
program (`cli.solve_window`, `simulate_processor_sharing` called with five
arguments, `Trace.records`, `Schedule.entries`, ...).  A change that
breaks one of them fails here, not only in a `bench/run.py --trace 1` run.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _write_inputs(tmp_path, monkeypatch, name):
    """Write workload `name`'s seed-1 inputs; return the workload and their directory."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    inputs = tmp_path / "inputs"
    workloads.write_inputs(workloads.WORKLOADS[name], 1, inputs)
    return workloads.WORKLOADS[name], inputs


def _run_child(*args):
    return subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *map(str, args)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=600)


def test_traced_child_reports_every_layer_metric(tmp_path, monkeypatch):
    _, inputs = _write_inputs(tmp_path, monkeypatch, "select_gap")
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


def test_pipeline_child_runs_dense_trace(tmp_path, monkeypatch):
    """The untraced child behind every end-to-end metric, with the argv
    bench/run.py gives it."""
    workload, inputs = _write_inputs(tmp_path, monkeypatch, "dense_trace")
    result = tmp_path / "result.json"
    proc = _run_child("pipeline", result, "--config", inputs / "config.txt",
                      "--trace", inputs / "trace.csv", "--catalog", inputs / "catalog.csv",
                      "--out", tmp_path / "out", "--jobs", "1", *workload.flags)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(result.read_text())["exit"] == 0, proc.stderr
