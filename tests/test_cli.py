import csv
import io
import json
import logging
import math
import re
import shutil
import sys

import numpy as np
import pytest

from conftest import ROOT, csv_writer_bytes, make_catalog, write_bench_inputs
from test_selector import random_problem
from wlsynth import catalog as catalog_module
from wlsynth import cli
from wlsynth import scheduler as scheduler_module
from wlsynth import trace as trace_module
from wlsynth.cli import echo_policy, main, stage_seed
from wlsynth.config import Config, load_config
from wlsynth.features import FeatureSchema
from wlsynth.trace import WindowTargets

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


# Planted gap, as in acceptance criterion 7: the catalog offers only small
# components and the first window's two queries want a large one, so augment
# accepts a component and re-solves.
PLANTED_TRACE = """\
query_id,arrival_ts,duration_ms,cpu_time_ms,scanned_bytes,filter_num,aggregate_num,join_num,sort_num
q1,10000,60000,200,200,2,1,1,0
q2,50000,60000,200,200,2,1,1,0
q3,310000,8000,10,10,1,0,0,0
q4,420000,9000,15,5,0,1,0,0
"""
PLANTED_CATALOG = """\
component_id,benchmark,scale_factor,skewness,duration_ms,cpu_time_ms,scanned_bytes,filter_num,aggregate_num,join_num,sort_num
s1,tpch,1,0,8000,10,10,1,0,0,0
s2,tpch,1,0,9000,15,5,0,1,0,0
s3,tpch,1,0,7000,5,15,1,1,0,0
s4,tpch,1,0,8000,12,12,0,0,1,0
"""


def run_pipeline(demo_dir, out, extra=(), catalog=None):
    args = [
        "pipeline",
        "--config", str(demo_dir / "demo_config.txt"),
        "--trace", str(demo_dir / "demo_trace.csv"),
        "--catalog", str(catalog or demo_dir / "demo_catalog.csv"),
        "--out", str(out),
    ] + list(extra)
    return main(args)


def csv_writer_rows(path, line_end: str) -> list[list[str]]:
    """The rows csv.reader reads from the file at `path`, after checking
    that csv.writer with a CRLF line terminator, each line end then
    `line_end`, writes them back to the file's bytes."""
    data = path.read_bytes()
    with io.StringIO(data.decode("utf-8"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert csv_writer_bytes(rows, line_end) == data
    return rows


def output_files(out):
    return sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())


def doubled_catalog(demo_dir, tmp_path):
    """The demo catalog with every component's CPU time and duration doubled."""
    doubled = tmp_path / "doubled.csv"
    with open(demo_dir / "demo_catalog.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for column in ("cpu_time_ms", "duration_ms"):
            row[column] = str(2 * int(row[column]))
    with open(doubled, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return doubled


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

    def test_augment_without_accepted_components_keeps_plans(self, demo_dir, tmp_path):
        """With no bad window, augment finishes the plans from its own
        relaxation of --catalog: select's bytes."""
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
        selected = {rel: (out / rel).read_bytes() for rel in ("plans/plan.csv",
                                                              "plans/summary.csv")}
        (out / "plans/plan.csv").unlink()
        assert main(["augment"] + base + catalog) == 0
        for rel, data in selected.items():
            assert (out / rel).read_bytes() == data, rel

    def test_skip_ta_writes_empty_energy_trace(self, demo_dir, tmp_path):
        out = tmp_path / "out"
        assert run_pipeline(demo_dir, out, ["--skip-ta", "--skip-augment"]) == 0
        energy = (out / "schedule/energy.csv").read_text().splitlines()
        assert energy == ["step,best_energy"]
        assert csv_writer_rows(out / "schedule/energy.csv", "\n") == [["step", "best_energy"]]

    def test_empty_replay_scores(self, demo_dir, tmp_path):
        """A catalog whose every component outlasts each window's budget plans
        no instance: the replay is empty, and it still scores, finitely."""
        with open(demo_dir / "demo_catalog.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        catalog = tmp_path / "catalog.csv"
        with open(catalog, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(dict(row, duration_ms="1e10") for row in rows)
        out = tmp_path / "out"
        assert run_pipeline(demo_dir, out, ["--skip-augment"], catalog=catalog) == 0
        assert (out / "replay/trace.csv").read_text().count("\n") == 1  # the header
        with open(out / "report/scores.csv", newline="", encoding="utf-8") as fh:
            values = [float(row["value"]) for row in csv.DictReader(fh)]
        assert values and all(math.isfinite(v) for v in values)

    def test_single_interval_grid_spans_the_window(self, demo_dir, tmp_path, caplog):
        """With one interval per window and one window, the grid is that
        interval, not 1 ms: no overload is reported, the energy counts the
        whole window's mass and the starts spread over the window."""
        out = tmp_path / "out"
        extra = ["--skip-augment", "--window-ms", "900000", "--interval-ms", "900000"]
        with caplog.at_level(logging.WARNING, logger="wlsynth"):
            assert run_pipeline(demo_dir, out, extra) == 0
        assert len((out / "targets/intervals.csv").read_text().splitlines()) == 2
        assert not [r for r in caplog.records if "offered load" in r.getMessage()]
        energy = (out / "schedule/energy.csv").read_text().splitlines()
        assert float(energy[-1].split(",")[1]) < 1e-9
        with open(out / "schedule/schedule.csv", newline="", encoding="utf-8") as fh:
            starts = {row["start_ts"] for row in csv.DictReader(fh)}
        assert len(starts) > 1

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

    @pytest.mark.parametrize("skip_ta", [False, True])
    def test_pipeline_matches_stage_by_stage_with_augment(self, demo_dir, tmp_path, skip_ta):
        (tmp_path / "trace.csv").write_text(PLANTED_TRACE)
        (tmp_path / "catalog.csv").write_text(PLANTED_CATALOG)
        config = ["--config", str(demo_dir / "demo_config.txt")]
        trace = ["--trace", str(tmp_path / "trace.csv")]
        catalog = ["--catalog", str(tmp_path / "catalog.csv")]
        ta = ["--skip-ta"] if skip_ta else []
        full, staged = tmp_path / "full", tmp_path / "staged"
        assert main(["pipeline", "--out", str(full)] + config + trace + catalog + ta) == 0
        for argv in (["ingest"] + trace, ["targets"], ["select"] + catalog,
                     ["augment"] + trace + catalog, ["schedule"] + catalog + ta,
                     ["replay"] + catalog, ["evaluate"]):
            assert main(argv + ["--out", str(staged)] + config) == 0, argv[0]
        attempts = (full / "augment/attempts.jsonl").read_text().splitlines()
        assert "accepted" in [json.loads(line)["verdict"] for line in attempts]
        files = output_files(full)
        assert files == output_files(staged)
        for rel in files:
            assert (staged / rel).read_bytes() == (full / rel).read_bytes(), rel

    @pytest.mark.parametrize("skip_augment", [False, True])
    @pytest.mark.parametrize("skip_ta", [False, True])
    def test_pipeline_builds_no_per_row_objects(self, demo_dir, tmp_path, monkeypatch,
                                                skip_ta, skip_augment):
        """Every stage works on the trace, schedule and catalog columns: with
        the row classes replaced by stubs that raise, in every module that
        holds them, pipeline still succeeds, augment included: a generated
        answer is a one-row catalog."""
        def forbidden(*args, **kwargs):
            raise AssertionError("per-row object built")

        for module in [m for name, m in sys.modules.items() if name.startswith("wlsynth")]:
            for row_class in ("QueryRecord", "ScheduleEntry", "WorkloadComponent",
                              "PerformanceFeature"):
                if hasattr(module, row_class):
                    monkeypatch.setattr(module, row_class, forbidden)
        (tmp_path / "trace.csv").write_text(PLANTED_TRACE)
        (tmp_path / "catalog.csv").write_text(PLANTED_CATALOG)
        out = tmp_path / "out"
        argv = ["pipeline", "--config", str(demo_dir / "demo_config.txt"),
                "--trace", str(tmp_path / "trace.csv"), "--catalog", str(tmp_path / "catalog.csv"),
                "--out", str(out)]
        assert main(argv + (["--skip-ta"] if skip_ta else [])
                    + (["--skip-augment"] if skip_augment else [])) == 0
        # the stubs are live: the row views would have raised
        schema = load_config(demo_dir / "demo_config.txt").schema()
        with pytest.raises(AssertionError, match="per-row object"):
            trace_module.ingest_trace(out / "replay/trace.csv", schema).records
        with pytest.raises(AssertionError, match="per-row object"):
            scheduler_module.read_schedule(out / "schedule/schedule.csv").entries
        with pytest.raises(AssertionError, match="per-row object"):
            catalog_module.load_catalog(tmp_path / "catalog.csv", schema).row(0)
        if skip_augment:
            assert not (out / "augment").exists()
        else:
            attempts = (out / "augment/attempts.jsonl").read_text().splitlines()
            assert "accepted" in [json.loads(line)["verdict"] for line in attempts]

    def test_pipeline_ignores_stale_augmented_catalog(self, demo_dir, tmp_path):
        doubled = doubled_catalog(demo_dir, tmp_path)
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert run_pipeline(demo_dir, reused) == 0
        assert (reused / "augment/catalog.csv").exists()
        for out in (reused, fresh):
            assert run_pipeline(demo_dir, out, ["--skip-augment"], catalog=doubled) == 0
        for rel in ("schedule/schedule.csv", "replay/trace.csv", "report/scores.csv"):
            assert (reused / rel).read_bytes() == (fresh / rel).read_bytes(), rel

    def test_select_and_augment_ignore_stale_augmented_catalog(self, demo_dir, tmp_path):
        """Standalone select and augment start from --catalog, not from the
        augment/catalog.csv an earlier run left in --out."""
        doubled = doubled_catalog(demo_dir, tmp_path)
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert run_pipeline(demo_dir, reused) == 0
        assert (reused / "augment/catalog.csv").exists()
        config = ["--config", str(demo_dir / "demo_config.txt")]
        trace = ["--trace", str(demo_dir / "demo_trace.csv")]
        catalog = ["--catalog", str(doubled)]
        assert main(["ingest", "--out", str(fresh)] + config + trace) == 0
        assert main(["targets", "--out", str(fresh)] + config) == 0
        for out in (reused, fresh):
            assert main(["select", "--out", str(out)] + config + catalog) == 0
            assert main(["augment", "--out", str(out)] + config + trace + catalog) == 0
        for rel in ("plans/plan.csv", "augment/attempts.jsonl"):
            assert (reused / rel).read_bytes() == (fresh / rel).read_bytes(), rel

    def test_standalone_schedule_and_replay_refuse_an_augmented_catalog_of_another_catalog(
            self, demo_dir, tmp_path, capsys):
        """A standalone schedule or replay reads the augment/catalog.csv an
        earlier run left only where its first rows are --catalog's: over
        another --catalog it is one ConfigError naming both files, and
        nothing is written; over the same --catalog it is read."""
        out = tmp_path / "out"
        assert run_pipeline(demo_dir, out) == 0
        written = {rel: (out / rel).read_bytes() for rel in ("schedule/schedule.csv",
                                                             "replay/trace.csv")}
        config = ["--config", str(demo_dir / "demo_config.txt"), "--out", str(out)]
        doubled = doubled_catalog(demo_dir, tmp_path)
        for stage in ("schedule", "replay"):
            capsys.readouterr()
            assert main([stage, "--catalog", str(doubled)] + config) == 2, stage
            err = json.loads(capsys.readouterr().err.splitlines()[-1])
            assert err["error"] == "ConfigError"
            assert str(out / "augment/catalog.csv") in err["message"]
            assert str(doubled) in err["message"] and "rerun 'augment'" in err["message"]
        for rel, data in written.items():
            assert (out / rel).read_bytes() == data, rel
        for stage in ("schedule", "replay"):
            assert main([stage, "--catalog", str(demo_dir / "demo_catalog.csv")] + config) == 0
        for rel, data in written.items():
            assert (out / rel).read_bytes() == data, rel

    def test_pipeline_quotes_awkward_ids(self, demo_dir, tmp_path):
        """Query ids holding the delimiter, a quote, a bare CR, an LF or a
        non-ASCII character go through a whole pipeline, and in the
        ingested trace.csv read back as one field each, every query in
        trace order, from what csv.writer writes."""
        with open(demo_dir / "demo_trace.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        for row, query_id in zip(rows[1:], ["q,1", 'q"2', "q\r3", "q\n4", "q\u00e95"]):
            row[0] = query_id
        with open(tmp_path / "trace.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(demo_dir / "demo_config.txt"),
                     "--trace", str(tmp_path / "trace.csv"),
                     "--catalog", str(demo_dir / "demo_catalog.csv"), "--out", str(out),
                     "--skip-augment"]) == 0
        ingested = csv_writer_rows(out / "trace.csv", "\r\n")
        assert ingested[0] == rows[0]
        assert all(len(row) == len(rows[0]) for row in ingested)
        assert [row[0] for row in ingested[1:]] == [row[0] for row in rows[1:]]

    def test_energy_trace_is_csv_writer_lf_bytes(self, demo_dir, tmp_path):
        """An annealed energy.csv is what csv.writer writes, with bare LF
        line ends, one row per annealing step."""
        out = tmp_path / "out"
        assert run_pipeline(demo_dir, out, ["--skip-augment"]) == 0
        rows = csv_writer_rows(out / "schedule/energy.csv", "\n")
        assert rows[0] == ["step", "best_energy"] and len(rows) > 2
        assert [row[0] for row in rows[1:]] == [str(step) for step in range(len(rows) - 1)]


class TestFlagTable:
    FLAGS = {
        "ingest": {"--trace": "t.csv"},
        "targets": {"--trace": "t.csv"},
        "select": {"--trace": "t.csv", "--catalog": "c.csv"},
        "augment": {"--trace": "t.csv", "--catalog": "c.csv"},
        "schedule": {"--catalog": "c.csv", "--skip-ta": True},
        "replay": {"--catalog": "c.csv"},
        "evaluate": {},
        "pipeline": {"--trace": "t.csv", "--catalog": "c.csv", "--skip-ta": True,
                     "--skip-augment": True},
    }

    @pytest.mark.parametrize("command", FLAGS)
    def test_subcommand_takes_its_stage_flags(self, command):
        """Each stage subcommand runs the stage function pipeline runs, and
        pipeline takes the flags of every stage."""
        flags = self.FLAGS[command]
        argv = [command, "--jobs", "1"]
        for flag, value in flags.items():
            argv += [flag] if value is True else [flag, value]
        args = cli.build_parser().parse_args(argv)
        assert args.fn is (cli.pipeline if command == "pipeline" else cli.STAGES[command][0])
        assert {flag: getattr(args, flag[2:].replace("-", "_")) for flag in flags} == flags

    @pytest.mark.parametrize("argv", [
        ["schedule", "--query-level", "one_to_one"],
        ["select", "--skip-ta"],
        ["augment", "--skip-augment"],
        ["replay", "--trace", "t.csv"],
        ["evaluate", "--catalog", "c.csv"],
        ["demo", "--skip-ta"],
        ["select", "--query-level", "window"],
        ["pipeline", "--query-level", "window"],
    ])
    def test_flag_of_another_stage_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [*cli.STAGES, "pipeline", "demo"])
    @pytest.mark.parametrize("flag", ["-v", "--verbose"])
    def test_no_verbose_flag(self, command, flag, capsys):
        """The log level is always INFO, so no subcommand takes -v."""
        with pytest.raises(SystemExit) as exc:
            main([command, flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", cli.FLAGS)
    def test_readme_flag_table_matches_the_stages(self, flag):
        """README's flag table has one row per stage flag, in FLAGS order,
        and lists exactly the subcommands whose STAGES entry takes the flag,
        or `pipeline` alone for a flag no stage takes."""
        lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
        start = lines.index("| flag | subcommands |") + 2
        table = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            name, subcommands = line.strip("|").split("|")
            table[re.findall(r"`(--[a-z-]+)", name)[0]] = set(re.findall(r"`([a-z]+)`", subcommands))
        assert list(table) == list(cli.FLAGS)
        takes = {name for name, (_, _, flags) in cli.STAGES.items() if flag in flags}
        assert table[flag] == (takes or {"pipeline"})


class TestIntegerFlags:
    """The integer flags hand their text to the config, which reads it by the
    integer rule of every CSV."""

    @pytest.mark.parametrize("key", cli._KEY_FLAGS)
    def test_integral_text_sets_the_key(self, tmp_path, monkeypatch, key):
        configs = []
        monkeypatch.setattr(cli, "Run", lambda cfg, args: configs.append(cfg))
        monkeypatch.setattr(cli, "demo", lambda run: None)
        assert main(["demo", "--out", str(tmp_path), f"--{key.replace('_', '-')}", "8.0"]) == 0
        assert configs[0][key] == 8

    @pytest.mark.parametrize("key", cli._KEY_FLAGS)
    @pytest.mark.parametrize("bad", ["8.5", "1e400", "eight"])
    def test_other_text_is_a_config_error_naming_the_key(self, tmp_path, capsys, key, bad):
        out = tmp_path / "out"
        assert main(["demo", "--out", str(out), f"--{key.replace('_', '-')}", bad]) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {"stage": "demo", "error": "ConfigError",
                       "message": f"config key {key!r}: expected an integer, got {bad!r}"}
        assert not out.exists()


def bench_argv(command, out, inputs, config=None):
    """`command`'s argv on benchmark inputs: the flags of FLAGS it takes."""
    files = {"--trace": inputs / "trace.csv", "--catalog": inputs / "catalog.csv"}
    flags = cli.FLAGS if command == "pipeline" else cli.STAGES[command][2]
    argv = [command, "--out", str(out), "--config", str(config or inputs / "config.txt")]
    for flag in flags:
        if flag in files:
            argv += [flag, str(files[flag])]
    return argv


def call_kinds(highs_calls) -> dict[str, int]:
    """How many of the recorded `highs.solve` calls were LPs, MIPs cut off at
    a threshold (`selector.exceeds`) and full MIPs."""
    kinds = ["cutoff" if "objective_bound" in options else "mip" if is_mip else "lp"
             for is_mip, options in highs_calls]
    return {kind: kinds.count(kind) for kind in ("lp", "cutoff", "mip")}


def never_accepted(prompt, calls):
    """A mock-provider policy whose every answer profiles at zero."""
    return "SELECT 1 /* profile: duration_ms=30000; */"


class TestPipelineBadWindows:
    """On the benchmark's select_gap inputs (6 windows, 5 of them above the
    augment threshold, 3 components accepted), a pipeline decides the bad
    windows from the relaxation over --catalog and solves each window's exact
    MIP once, after augment; the standalone select solves every window, and
    the standalone augment relaxes --catalog again to decide the bad windows,
    then solves every window with the augmented catalog."""

    def test_pipeline_matches_the_standalone_chain(self, tmp_path, monkeypatch):
        _, inputs = write_bench_inputs(tmp_path, monkeypatch, "select_gap")
        full, staged = tmp_path / "full", tmp_path / "staged"
        assert main(bench_argv("pipeline", full, inputs)) == 0
        for name in cli.STAGES:
            assert main(bench_argv(name, staged, inputs)) == 0, name
        attempts = (full / "augment/attempts.jsonl").read_text().splitlines()
        assert "accepted" in [json.loads(line)["verdict"] for line in attempts]
        files = output_files(full)
        assert files == output_files(staged)
        for rel in files:
            assert (staged / rel).read_bytes() == (full / rel).read_bytes(), rel

    def test_pipeline_solves_each_window_mip_once(self, tmp_path, monkeypatch, highs_calls):
        """2 stacked LPs (one per catalog), at most 6 cutoff MIPs and 6 full
        MIPs, where the standalone select and augment make 3 LPs, 4 cutoff
        MIPs and 12 full MIPs."""
        _, inputs = write_bench_inputs(tmp_path, monkeypatch, "select_gap")
        assert main(bench_argv("pipeline", tmp_path / "full", inputs)) == 0
        calls = call_kinds(highs_calls)
        assert calls["lp"] == 2 and calls["cutoff"] <= 6 and calls["mip"] == 6, calls
        highs_calls.clear()
        for name in ("ingest", "targets", "select", "augment"):
            assert main(bench_argv(name, tmp_path / "staged", inputs)) == 0, name
        assert call_kinds(highs_calls) == {"lp": 3, "cutoff": 4, "mip": 12}

    @pytest.mark.parametrize("case", ["no_bad_window", "nothing_accepted"])
    def test_pipeline_without_accepted_components_writes_the_select_plans(
            self, tmp_path, monkeypatch, highs_calls, case):
        """With no bad window, or no generated component accepted, the plans
        are the standalone select's, from one stacked LP."""
        _, inputs = write_bench_inputs(tmp_path, monkeypatch, "select_gap")
        config = tmp_path / "config.txt"
        config.write_text((inputs / "config.txt").read_text()
                          + ("augment.bad_window_threshold = 1e9\n"
                             if case == "no_bad_window" else ""))
        if case == "nothing_accepted":
            monkeypatch.setattr(cli, "echo_policy", never_accepted)
        staged, full = tmp_path / "staged", tmp_path / "full"
        for name in ("ingest", "targets", "select"):
            assert main(bench_argv(name, staged, inputs, config)) == 0, name
        highs_calls.clear()
        assert main(bench_argv("pipeline", full, inputs, config)) == 0
        assert call_kinds(highs_calls)["lp"] == 1, highs_calls
        attempts = (full / "augment/attempts.jsonl").read_text().splitlines()
        assert bool(attempts) == (case == "nothing_accepted")
        assert "accepted" not in [json.loads(line)["verdict"] for line in attempts]
        for rel in ("plans/plan.csv", "plans/summary.csv"):
            assert (full / rel).read_bytes() == (staged / rel).read_bytes(), rel


class TestStandaloneAugment:
    """A standalone augment decides the bad windows on its own relaxation of
    --catalog, so it needs no plans: on the select_gap inputs it writes the
    bytes of a select -> augment chain."""

    def test_augment_right_after_targets_writes_the_chain_bytes(self, tmp_path, monkeypatch):
        _, inputs = write_bench_inputs(tmp_path, monkeypatch, "select_gap")
        direct, chain = tmp_path / "direct", tmp_path / "chain"
        for names, out in ((("ingest", "targets", "augment"), direct),
                           (("ingest", "targets", "select", "augment"), chain)):
            for name in names:
                assert main(bench_argv(name, out, inputs)) == 0, name
        attempts = (chain / "augment/attempts.jsonl").read_text().splitlines()
        assert "accepted" in [json.loads(line)["verdict"] for line in attempts]
        assert output_files(direct) == output_files(chain)
        for rel in ("plans/plan.csv", "plans/summary.csv", "augment/catalog.csv",
                    "augment/attempts.jsonl"):
            assert (direct / rel).read_bytes() == (chain / rel).read_bytes(), rel

    @pytest.mark.parametrize("case", ["no_bad_window", "nothing_accepted"])
    def test_augment_accepting_nothing_rewrites_the_select_plans(self, tmp_path, monkeypatch,
                                                                  case):
        _, inputs = write_bench_inputs(tmp_path, monkeypatch, "select_gap")
        config = tmp_path / "config.txt"
        config.write_text((inputs / "config.txt").read_text()
                          + ("augment.bad_window_threshold = 1e9\n"
                             if case == "no_bad_window" else ""))
        if case == "nothing_accepted":
            monkeypatch.setattr(cli, "echo_policy", never_accepted)
        out = tmp_path / "out"
        for name in ("ingest", "targets", "select"):
            assert main(bench_argv(name, out, inputs, config)) == 0, name
        selected = {rel: (out / rel).read_bytes() for rel in ("plans/plan.csv",
                                                              "plans/summary.csv")}
        shutil.rmtree(out / "plans")
        assert main(bench_argv("augment", out, inputs, config)) == 0
        attempts = (out / "augment/attempts.jsonl").read_text().splitlines()
        assert bool(attempts) == (case == "nothing_accepted")
        assert "accepted" not in [json.loads(line)["verdict"] for line in attempts]
        for rel, data in selected.items():
            assert (out / rel).read_bytes() == data, rel


class TestSolverOutput:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_highs_output_goes_to_stderr(self, capfd, tmp_path, jobs):
        # a node-limited solve on which HiGHS prints a diagnostic straight to fd 1
        problem = random_problem(np.random.default_rng(146), n_components=10, n_dims=5,
                                 y=6, z=30)
        schema = FeatureSchema(metrics=("m0", "m1"), operators=("o0", "o1", "o2"))
        catalog = make_catalog(schema, list(zip(problem.component_ids, problem.durations,
                                                problem.features)))
        windows = WindowTargets(0, int(problem.duration_budget_ms), problem.target[None, :],
                                np.array([1]))
        cfg = Config({"y": "6", "z": "30", "cores": "1", "solver.node_limit": "1",
                      "metrics": "m0, m1", "operators": "o0, o1, o2"})
        run = cli.Run(cfg, cli.build_parser().parse_args(
            ["select", "--out", str(tmp_path), "--jobs", str(jobs)]))
        run.held.update(targets=(windows, None), catalog=catalog)
        cli._write_plans(run)
        print("stdout still works")
        out, err = capfd.readouterr()
        assert "HighsMipSolverData" in err
        assert "HighsMipSolverData" not in out
        assert out == "stdout still works\n"


class TestErrors:
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_fails_before_writing(self, demo_dir, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        assert run_pipeline(demo_dir, out, ["--jobs", jobs]) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {"stage": "pipeline", "error": "ConfigError",
                       "message": f"--jobs must be at least 1, got {jobs}"}
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["2.5", "x"])
    def test_non_integer_jobs_is_one_config_error(self, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        assert main(["demo", "--out", str(out), "--jobs", jobs]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"stage": "demo", "error": "ConfigError",
                                      "message": f"--jobs: expected an integer, got {jobs!r}"}
        assert not out.exists()

    def test_integral_jobs_reads_as_the_config_integer_flags_do(self, tmp_path, monkeypatch):
        """`--jobs 2.0` reads as 2, as `--cores 2.0` does."""
        seen = []
        monkeypatch.setattr(cli, "demo", lambda run: seen.append(run.jobs))
        assert main(["demo", "--out", str(tmp_path), "--jobs", "2.0"]) == 0
        assert seen == [2] and type(seen[0]) is int

    def test_missing_trace_is_machine_readable(self, tmp_path, capsys):
        code = main(["targets", "--out", str(tmp_path / "nowhere")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["stage"] == "targets"
        assert err["error"] == "ConfigError"

    @pytest.mark.parametrize("command", ["ingest", "pipeline"])
    def test_missing_trace_file_is_machine_readable(self, demo_dir, tmp_path, capsys,
                                                    command):
        out, missing = tmp_path / "out", tmp_path / "missing.csv"
        argv = [command, "--config", str(demo_dir / "demo_config.txt"),
                "--trace", str(missing), "--out", str(out)]
        if command == "pipeline":
            argv += ["--catalog", str(demo_dir / "demo_catalog.csv")]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {"stage": command, "error": "ConfigError",
                       "message": f"no trace at {missing}; pass an existing --trace"}
        assert not out.exists()

    @pytest.mark.parametrize("stage, what, artifact, before", [
        ("schedule", "plans", "plans/plan.csv", "select"),
        ("replay", "schedule", "schedule/schedule.csv", "schedule"),
    ])
    def test_missing_stage_input_names_the_stage_to_run(self, demo_dir, tmp_path, capsys,
                                                        stage, what, artifact, before):
        base = ["--config", str(demo_dir / "demo_config.txt"), "--out", str(tmp_path)]
        assert main(["ingest", "--trace", str(demo_dir / "demo_trace.csv")] + base) == 0
        assert main(["targets"] + base) == 0
        capsys.readouterr()
        assert main([stage, "--catalog", str(demo_dir / "demo_catalog.csv")] + base) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["message"] == f"no {what} at {tmp_path / artifact}; run '{before}' first"

    def test_select_rejects_a_truncated_intervals_file(self, demo_dir, tmp_path, capsys):
        """An interval row lost from targets/intervals.csv stops select with a
        ValidationError naming the file, before it writes plans/."""
        base = ["--config", str(demo_dir / "demo_config.txt"), "--out", str(tmp_path)]
        assert main(["targets", "--trace", str(demo_dir / "demo_trace.csv")] + base) == 0
        intervals = tmp_path / "targets" / "intervals.csv"
        intervals.write_text("".join(intervals.read_text().splitlines(True)[:-1]))
        capsys.readouterr()
        assert main(["select", "--catalog", str(demo_dir / "demo_catalog.csv")] + base) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "ValidationError"
        assert f"targets file {intervals} " in err["message"]
        assert not (tmp_path / "plans").exists()

    def test_pipeline_without_catalog_writes_nothing(self, demo_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["pipeline", "--config", str(demo_dir / "demo_config.txt"),
                     "--trace", str(demo_dir / "demo_trace.csv"), "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {"stage": "pipeline", "error": "ConfigError",
                       "message": "pipeline requires --catalog"}
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("stage", ["select", "augment"])
    def test_stage_without_catalog_is_machine_readable(self, demo_dir, tmp_path, capsys,
                                                       stage):
        base = ["--config", str(demo_dir / "demo_config.txt"), "--out", str(tmp_path)]
        assert main(["ingest", "--trace", str(demo_dir / "demo_trace.csv")] + base) == 0
        assert main(["targets"] + base) == 0
        capsys.readouterr()
        assert main([stage] + base) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["message"] == f"{stage} requires --catalog"

    @pytest.mark.parametrize("stage", ["ingest", "select"])
    def test_input_that_is_not_utf8_is_machine_readable(self, demo_dir, tmp_path, capsys,
                                                        stage):
        """A trace or catalog that is not UTF-8 fails its stage with a
        TraceParseError naming the file."""
        base = ["--config", str(demo_dir / "demo_config.txt"), "--out", str(tmp_path / "o")]
        bad = tmp_path / "latin1.csv"
        name = "trace" if stage == "ingest" else "catalog"
        good = (demo_dir / f"demo_{name}.csv").read_bytes()
        bad.write_bytes(good.rstrip(b"\n") + b"\xe9\n")  # Latin-1, not UTF-8
        if stage == "select":
            assert main(["targets", "--trace", str(demo_dir / "demo_trace.csv")] + base) == 0
        capsys.readouterr()
        assert main([stage, f"--{name}", str(bad)] + base) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {"stage": stage, "error": "TraceParseError",
                       "message": f"{name} file {bad} is not valid UTF-8"}

    @pytest.mark.parametrize("stage", ["ingest", "select"])
    def test_field_over_the_csv_limit_is_machine_readable(self, demo_dir, tmp_path, capsys,
                                                          stage):
        """A trace or catalog field longer than csv.field_size_limit() fails
        its stage with a TraceParseError naming the file and the line.  The
        limit is lowered to 100 to keep the file small."""
        base = ["--config", str(demo_dir / "demo_config.txt"), "--out", str(tmp_path / "o")]
        bad = tmp_path / "long.csv"
        name = "trace" if stage == "ingest" else "catalog"
        lines = (demo_dir / f"demo_{name}.csv").read_text().splitlines(keepends=True)
        bad.write_text("".join([lines[0], "x" * 101 + lines[1]] + lines[2:]))
        if stage == "select":
            assert main(["targets", "--trace", str(demo_dir / "demo_trace.csv")] + base) == 0
        capsys.readouterr()
        limit = csv.field_size_limit(100)
        try:
            assert main([stage, f"--{name}", str(bad)] + base) == 2
        finally:
            csv.field_size_limit(limit)
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {"stage": stage, "error": "TraceParseError",
                       "message": f"{name} file {bad}, line 2: field larger than field "
                                  "limit (100)"}

    @pytest.mark.parametrize("flag", ["--trace", "--catalog"])
    def test_directory_input_is_machine_readable(self, demo_dir, tmp_path, capsys, flag):
        """A directory given as the trace or the catalog is a ConfigError,
        raised before the pipeline writes."""
        inputs = {"--trace": str(demo_dir / "demo_trace.csv"),
                  "--catalog": str(demo_dir / "demo_catalog.csv"), flag: str(tmp_path)}
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(demo_dir / "demo_config.txt"), "--out", str(out),
                     *(item for pair in inputs.items() for item in pair)]) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        what = flag[2:]
        assert err == {"stage": "pipeline", "error": "ConfigError",
                       "message": f"no {what} at {tmp_path}; pass an existing {flag}"}
        assert not out.exists()

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

    @pytest.mark.parametrize("key, value, stage, output", [
        ("denom_floor", "-1", 3, "schedule"),
        ("metrics_eps", "0", 5, "report"),
    ])
    def test_nonpositive_floor_fails_before_writing(self, demo_dir, tmp_path, capsys,
                                                   key, value, stage, output):
        """A relative-error floor must be positive: the stage stops with a
        ConfigError before it writes anything."""
        out = ["--out", str(tmp_path)]
        catalog = ["--catalog", str(demo_dir / "demo_catalog.csv")]
        stages = [["ingest", "--trace", str(demo_dir / "demo_trace.csv")], ["targets"],
                  ["select"] + catalog, ["schedule", "--skip-ta"] + catalog,
                  ["replay"] + catalog, ["evaluate"]]
        for args in stages[:stage]:
            assert main(args + ["--config", str(demo_dir / "demo_config.txt")] + out) == 0
        bad = tmp_path / "bad_config.txt"
        bad.write_text((demo_dir / "demo_config.txt").read_text() + f"{key} = {value}\n")
        capsys.readouterr()
        assert main(stages[stage] + ["--config", str(bad)] + out) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {"stage": stages[stage][0], "error": "ConfigError",
                       "message": f"config key {key!r}: expected a positive number, "
                                  f"got {value!r}"}
        assert not (tmp_path / output).exists()

    @pytest.mark.parametrize("key, line", [
        ("z", "z = abc"),
        ("augment.accept_threshold", "augment.accept_threshold = x"),
        ("cores", "cores = 0"),
        ("cores", "--cores 0"),
        ("y", "y = 0"),
        ("z", "z = 0"),
        ("solver.node_limit", "solver.node_limit = 0"),
        ("augment.k", "augment.k = 0"),
        ("provider.kind", "provider.kind = foo"),
        ("provider.timeout_ms", "provider.timeout_ms = x"),
        ("z_per_query_factor", "z_per_query_factor = -1"),
        ("sa.move_granularity_ms", "sa.move_granularity_ms = 0"),
        ("augment.examples_per_side", "augment.examples_per_side = -1"),
        ("augment.max_attempts", "augment.max_attempts = 0"),
        ("sa.max_steps", "sa.max_steps = -1"),
        ("sa.no_improve", "sa.no_improve = 0"),
        ("augment.max_db_switches", "augment.max_db_switches = -1"),
        ("augment.accept_threshold", "augment.accept_threshold = -1"),
        ("augment.accept_threshold", "augment.accept_threshold = nan"),
        ("provider.timeout_ms", "provider.timeout_ms = 0"),
        ("augment.bad_window_threshold", "augment.bad_window_threshold = nan"),
    ])
    def test_bad_config_value_fails_before_writing(self, demo_dir, tmp_path, capsys,
                                                  key, line):
        """Every key is checked when the config is built, so a bad value
        stops `pipeline` before its first stage writes."""
        config = (demo_dir / "demo_config.txt").read_text()
        flags = line.split() if line.startswith("--") else []
        (tmp_path / "config.txt").write_text(config if flags else config + line + "\n")
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(tmp_path / "config.txt"),
                     "--trace", str(demo_dir / "demo_trace.csv"),
                     "--catalog", str(demo_dir / "demo_catalog.csv"),
                     "--out", str(out)] + flags) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert f"config key {key!r}:" in err["message"]
        assert not out.exists()

    def test_removed_time_limit_key_fails_before_writing(self, demo_dir, tmp_path, capsys):
        """`solver.node_limit` is the one solver budget: a time limit is an
        unknown key, so a plan cannot depend on the machine's speed."""
        config = tmp_path / "config.txt"
        config.write_text((demo_dir / "demo_config.txt").read_text()
                          + "solver.time_limit_s = 5\n")
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(config),
                     "--trace", str(demo_dir / "demo_trace.csv"),
                     "--catalog", str(demo_dir / "demo_catalog.csv"),
                     "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {"stage": "pipeline", "error": "ConfigError",
                       "message": "unknown config keys: ['solver.time_limit_s']"}
        assert not out.exists()

    def test_missing_config_file_fails_before_writing(self, demo_dir, tmp_path, capsys):
        missing = tmp_path / "nonexistent.txt"
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(missing),
                     "--trace", str(demo_dir / "demo_trace.csv"),
                     "--catalog", str(demo_dir / "demo_catalog.csv"),
                     "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert str(missing) in err["message"]
        assert not out.exists()

    def test_malformed_plan_fails_schedule(self, demo_dir, tmp_path, capsys):
        base = ["--config", str(demo_dir / "demo_config.txt"), "--out", str(tmp_path)]
        catalog = ["--catalog", str(demo_dir / "demo_catalog.csv")]
        assert main(["ingest", "--trace", str(demo_dir / "demo_trace.csv")] + base) == 0
        assert main(["targets"] + base) == 0
        assert main(["select"] + base + catalog) == 0
        path = tmp_path / "plans/plan.csv"
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",1.5"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["schedule", "--skip-ta"] + base + catalog) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {"stage": "schedule", "error": "ValidationError",
                       "message": "row 2, column 'count': non-integral value 1.5"}
