import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from wlsynth import highs
from wlsynth.catalog import Catalog, DatabaseDescriptor, WorkloadComponent
from wlsynth.config import Config
from wlsynth.features import MODE_COUNTS, FeatureSchema, PerformanceFeature
from wlsynth.scheduler import Schedule
from wlsynth.trace import Trace


# the SelectionProblem fields that config keys set, at the keys' defaults
SOLVER_KNOBS = {field: Config()[key] for field, key in (
    ("denom_floor", "denom_floor"), ("node_limit", "solver.node_limit"),
    ("time_limit_s", "solver.time_limit_s"))}

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


@pytest.fixture
def schema():
    return FeatureSchema(
        metrics=("cpu_time_ms", "scanned_bytes"),
        operators=("filter_num", "aggregate_num", "join_num", "sort_num"),
    )


@pytest.fixture
def small_schema():
    return FeatureSchema(metrics=("cpu_time_ms", "scanned_bytes"),
                         operators=("filter_num", "aggregate_num"))


def make_component(schema, component_id, duration_ms, values, benchmark="tpch",
                   scale_factor=1.0, skewness=0, origin="benchmark"):
    values = np.asarray(values, dtype=float)
    return WorkloadComponent(
        component_id=component_id,
        query_ref=f"{component_id}.sql",
        database_ref=DatabaseDescriptor(benchmark, scale_factor, skewness),
        duration_ms=float(duration_ms),
        feature=PerformanceFeature(values[: schema.n_metrics],
                                   values[schema.n_metrics :]),
        origin=origin,
    )


def make_catalog(schema, rows, benchmark="tpch", scale_factor=1.0):
    """rows: list of (component_id, duration_ms, feature_values); `benchmark`
    and `scale_factor` are one value for every row or a list of one per row."""
    ids = [cid for cid, _, _ in rows]
    per_row = [value if isinstance(value, list) else [value] * len(rows)
               for value in (benchmark, scale_factor)]
    features = np.array([vals for _, _, vals in rows], dtype=float).reshape(
        len(rows), len(schema.dimensions))
    return Catalog(ids, *per_row, [0] * len(rows), [dur for _, dur, _ in rows], features,
                   [f"{cid}.sql" for cid in ids], ["benchmark"] * len(rows), schema)


def make_trace(schema, rows, mode=MODE_COUNTS):
    """A Trace of the columns of (query_id, arrival_ts, duration_ms, metrics,
    operators) rows."""
    features = np.array([[*m, *o] for _, _, _, m, o in rows], dtype=float).reshape(
        len(rows), len(schema.dimensions))
    return Trace([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows], features,
                 schema, mode)


def make_schedule(rows):
    """A Schedule of the columns of (window_index, component_id,
    instance_index, start_ts) rows."""
    return Schedule(*(zip(*rows) if rows else [()] * 4))


def rows_of(table, *names) -> list[tuple]:
    """The rows of a Trace's or Schedule's `names` columns, as Python values
    (a row of a 2-D column is a list): the columns compared row by row."""
    return list(zip(*(np.asarray(getattr(table, name)).tolist() for name in names)))


def catalog_row(catalog, component_id) -> int:
    """The catalog row of `component_id`."""
    return int(catalog.index([component_id])[0])


def random_catalog(schema, n, rng, duration_range=(5000, 60000), value_range=(0, 20)):
    rows = []
    for j in range(n):
        dur = int(rng.integers(*duration_range))
        vals = rng.integers(value_range[0], value_range[1] + 1,
                            size=schema.n_metrics + schema.n_operators)
        rows.append((f"c{j:02d}", dur, vals.astype(float)))
    return make_catalog(schema, rows)


def run_fresh(code: str) -> list[str]:
    """The words `code` prints in a fresh interpreter, which has loaded only
    what the code imports, whatever this process has."""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def csv_writer_bytes(rows, line_end: str) -> bytes:
    """What csv.writer writes for `rows` with a CRLF line terminator, each
    line end then swapped for `line_end`: a text holding a bare CR is
    quoted under either line end."""
    lines = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
    return "".join(line[:-2] + line_end for line in lines).encode("utf-8")


def write_bench_inputs(tmp_path, monkeypatch, name, seed=1):
    """Write benchmark workload `name`'s inputs for `seed`; return the
    workload and their directory."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    inputs = tmp_path / "inputs"
    workloads.write_inputs(workloads.WORKLOADS[name], seed, inputs)
    return workloads.WORKLOADS[name], inputs


@pytest.fixture
def highs_calls(monkeypatch):
    """(is_mip, options) of every `highs.solve` call the program makes during the test."""
    calls = []
    solve = highs.solve

    def recording_solve(c, matrix, rows, cols, integrality, options):
        # integrality is read now: solve_window reuses the array for its MIP call
        calls.append((bool(integrality.any()), options))
        return solve(c, matrix, rows, cols, integrality, options)

    monkeypatch.setattr(highs, "solve", recording_solve)
    return calls
