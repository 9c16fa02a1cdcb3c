"""Smoke test of the benchmark's traced child on the current source.

`bench/child.py traced` wraps names of the program (`cli.solve_window`,
`simulate_processor_sharing` called with five arguments, `Trace.records`,
`Schedule.entries`, ...).  A change that breaks one of them fails here, not
only in a `bench/run.py --trace 1` run.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def test_traced_child_reports_every_layer_metric(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    inputs = tmp_path / "inputs"
    workloads.write_inputs(workloads.WORKLOADS["select_gap"], 1, inputs)

    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "traced", str(result),
         str(tmp_path / "spans.jsonl"), str(inputs), str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    outcome = json.loads(result.read_text())
    assert outcome["exit"] == 0, proc.stderr
    # bench/run.py adds the tracing overhead itself, from the untraced runs
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    missing = declared - {"tracing.overhead_s"} - outcome["metrics"].keys()
    assert not missing
