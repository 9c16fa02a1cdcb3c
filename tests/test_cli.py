import json
import shutil
from pathlib import Path

import pytest

from wlsynth import cli
from wlsynth.cli import echo_policy, main, stage_seed

EXPECTED_ARTIFACTS = [
    "trace.csv",
    "targets/windows.csv",
    "targets/intervals.csv",
    "plans/plan.csv",
    "plans/summary.csv",
    "schedule/schedule.csv",
    "schedule/energy.csv",
    "replay/trace.csv",
    "report/scores.csv",
    "report/plot_data.csv",
]


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    assert main(["demo", "--out", str(out)]) == 0
    return out


def run_pipeline(demo_dir, out, extra=()):
    args = [
        "pipeline",
        "--config", str(demo_dir / "demo_config.txt"),
        "--trace", str(demo_dir / "demo_trace.csv"),
        "--catalog", str(demo_dir / "demo_catalog.csv"),
        "--out", str(out),
    ] + list(extra)
    return main(args)


class TestStageSeed:
    def test_stable(self):
        assert stage_seed(0, "schedule") == stage_seed(0, "schedule")

    def test_varies_by_stage_and_seed(self):
        assert stage_seed(0, "schedule") != stage_seed(0, "augment")
        assert stage_seed(0, "schedule") != stage_seed(1, "schedule")


class TestEchoPolicy:
    def test_reflects_target(self):
        prompt = "header\nTARGET FEATURE:\n  cpu_time_ms=12.5, filter_num=3\nrest"
        response = echo_policy(prompt, 0)
        assert "cpu_time_ms=12.5" in response
        assert "filter_num=3" in response
        assert response.startswith("SELECT")


class TestDemo:
    def test_materializes_inputs(self, demo_dir):
        for name in ("demo_trace.csv", "demo_catalog.csv", "demo_config.txt"):
            assert (demo_dir / name).exists()


class TestPipeline:
    def test_end_to_end_artifacts(self, demo_dir, tmp_path):
        out = tmp_path / "out"
        assert run_pipeline(demo_dir, out) == 0
        for rel in EXPECTED_ARTIFACTS:
            assert (out / rel).exists(), rel

    def test_report_quotient_scores_at_least_one(self, demo_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_pipeline(demo_dir, out) == 0
        for line in (out / "report/scores.csv").read_text().splitlines()[1:]:
            level, dim, metric, value, n = line.split(",")
            if metric == "gmqe":
                assert float(value) >= 1.0
            if metric == "gmape":
                assert float(value) >= 0.0

    def test_skip_augment_skips_directory(self, demo_dir, tmp_path):
        out = tmp_path / "out"
        assert run_pipeline(demo_dir, out, ["--skip-augment"]) == 0
        assert not (out / "augment").exists()

    def test_augment_without_accepted_components_keeps_plans(
        self, demo_dir, tmp_path, monkeypatch
    ):
        config = (demo_dir / "demo_config.txt").read_text().replace(
            "augment.bad_window_threshold = 0.2", "augment.bad_window_threshold = 1e9"
        )
        (tmp_path / "config.txt").write_text(config)
        out = tmp_path / "out"
        base = ["--config", str(tmp_path / "config.txt"), "--out", str(out)]
        catalog = ["--catalog", str(demo_dir / "demo_catalog.csv")]
        assert main(["ingest", "--trace", str(demo_dir / "demo_trace.csv")] + base) == 0
        assert main(["targets"] + base) == 0
        assert main(["select"] + base + catalog) == 0
        plan = (out / "plans/plan.csv").read_bytes()
        solves = []
        monkeypatch.setattr(cli, "_solve_windows", lambda *a: solves.append(a))
        assert main(["augment"] + base + catalog) == 0
        assert solves == []
        assert (out / "plans/plan.csv").read_bytes() == plan

    def test_skip_ta_writes_empty_energy_trace(self, demo_dir, tmp_path):
        out = tmp_path / "out"
        assert run_pipeline(demo_dir, out, ["--skip-ta", "--skip-augment"]) == 0
        energy = (out / "schedule/energy.csv").read_text().splitlines()
        assert energy == ["step,best_energy"]

    def test_resume_prefix_matches_full_run(self, demo_dir, tmp_path):
        full = tmp_path / "full"
        assert run_pipeline(demo_dir, full, ["--skip-augment"]) == 0

        resumed = tmp_path / "resumed"
        base = [
            "--config", str(demo_dir / "demo_config.txt"),
            "--out", str(resumed),
        ]
        catalog = ["--catalog", str(demo_dir / "demo_catalog.csv")]
        trace = ["--trace", str(demo_dir / "demo_trace.csv")]
        assert main(["ingest"] + base + trace) == 0
        assert main(["targets"] + base) == 0
        assert main(["select"] + base + catalog) == 0
        assert main(["schedule"] + base + catalog) == 0
        assert main(["replay"] + base + catalog) == 0
        assert main(["evaluate"] + base) == 0
        for rel in EXPECTED_ARTIFACTS:
            assert (resumed / rel).read_bytes() == (full / rel).read_bytes(), rel

    def test_query_level_matching_artifact(self, demo_dir, tmp_path):
        out = tmp_path / "out"
        base = [
            "--config", str(demo_dir / "demo_config.txt"),
            "--out", str(out),
        ]
        catalog = ["--catalog", str(demo_dir / "demo_catalog.csv")]
        trace = ["--trace", str(demo_dir / "demo_trace.csv")]
        assert main(["ingest"] + base + trace) == 0
        assert main(["targets"] + base) == 0
        assert main(["select", "--query-level", "one_to_one"] + base + catalog) == 0
        lines = (out / "plans/query_matches.csv").read_text().splitlines()
        assert lines[0] == "query_id,component_id,count,objective"
        assert len(lines) > 1


class TestErrors:
    def test_missing_trace_is_machine_readable(self, tmp_path, capsys):
        code = main(["targets", "--out", str(tmp_path / "nowhere")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["stage"] == "targets"
        assert err["error"] == "ConfigError"

    def test_bad_trace_file_fails_ingest(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("query_id\nq1\n")
        code = main(["ingest", "--trace", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"

    def test_short_trace_row_fails_ingest(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("query_id,arrival_ts,duration_ms,cpu_time_ms,scanned_bytes,"
                       "filter_num,aggregate_num,join_num,sort_num\nq1,0,100,1,1\n")
        code = main(["ingest", "--trace", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TraceParseError"
        assert err["message"] == "row 2, column 'filter_num': missing value"
