"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (run with -s to see them inline).  Tolerances are fixed here
and must not be loosened.
"""
import math
import time

import numpy as np
import pytest

from conftest import SOLVER_KNOBS, make_catalog, make_schedule, make_trace, random_catalog
from selection_oracle import enumerate_optimum
from wlsynth.augmenter import (
    VERDICT_DATABASE_SWITCH,
    MockProvider,
    augment_catalog,
    bad_windows,
    generate_component,
    GenerationTarget,
)
from wlsynth.catalog import Catalog, SimulatedExecutor
from wlsynth.cli import echo_policy, main
from wlsynth.config import Config
from wlsynth.features import MODE_COUNTS, FeatureSchema
from wlsynth.metrics import EPS_DEFAULT, gmape, gmqe, mae, report
from wlsynth.scheduler import (
    assign_timestamps,
    random_schedule,
    simulate_processor_sharing,
)
from wlsynth.selector import (
    ONE_TO_MANY,
    ONE_TO_ONE,
    SelectionProblem,
    match_query,
    relax_windows,
    solve_all_windows,
    solve_window,
)
from wlsynth.simulator import replay
from wlsynth.trace import WindowTargets, build_targets


def verdict(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# --- criterion 1: solver equals exhaustive enumeration -----------------------

def test_criterion_1_solver_optimality():
    rng = np.random.default_rng(1001)
    started = time.monotonic()
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        dims = int(rng.integers(2, 5))
        problem = SelectionProblem(
            target=rng.integers(0, 30, size=dims).astype(float),
            features=rng.integers(0, 10, size=(n, dims)).astype(float),
            durations=rng.integers(1000, 30000, size=n).astype(float),
            component_ids=[f"c{j}" for j in range(n)],
            y=int(rng.integers(1, 4)),
            z=int(rng.integers(1, 11)),
            duration_budget_ms=float(rng.integers(10000, 400000)),
            **SOLVER_KNOBS,
        )
        plan = solve_window(problem)
        best, _ = enumerate_optimum(problem)
        if abs(plan.objective_value - best) > 1e-9:
            mismatches += 1
    elapsed = time.monotonic() - started
    verdict(1, mismatches == 0 and elapsed < 60,
            f"200 random problems, {mismatches} mismatches vs enumeration, "
            f"{elapsed:.1f}s (< 60s)")


# --- criterion 2: worked selection example -----------------------------------

def test_criterion_2_worked_example(small_schema):
    catalog = make_catalog(small_schema, [
        ("mix", 30000, [6.6, 5, 10, 0]),
        ("agg", 20000, [0, 5, 4, 2]),
    ])
    target_vec = np.array([20.0, 20.0, 34.0, 2.0])
    problem = SelectionProblem(
        target=target_vec,
        features=catalog.features,
        durations=catalog.duration_ms,
        component_ids=catalog.ids,
        y=10, z=10, duration_budget_ms=300000.0 * 8,
        **SOLVER_KNOBS,
    )
    plan = solve_window(problem)
    best, _ = enumerate_optimum(problem)
    reference = np.array([19.8, 20.0, 34.0, 2.0])
    reference_objective = float(np.sum(np.abs(reference - target_vec)
                                       / np.maximum(target_vec, 1.0)))
    hit = np.allclose(plan.achieved, reference)
    ok = (hit or plan.objective_value <= reference_objective + 1e-9) and \
        abs(plan.objective_value - best) <= 1e-9
    verdict(2, ok,
            f"achieved {np.round(plan.achieved, 6).tolist()} for target "
            f"{target_vec.tolist()}, objective {plan.objective_value:.6g} "
            f"(reference {reference_objective:.6g})")


# --- criterion 3: metric definitions -----------------------------------------

def test_criterion_3_metric_hand_checks():
    cases = [
        # (targets, achieved, mae, gmape, gmqe)
        ([10.0, 20.0, 5.0], [10.0, 20.0, 5.0], 0.0, 0.0, 1.0),
        ([10.0], [5.0], 5.0, 0.5, 2.0),
        ([10.0, 20.0], [5.0, 40.0], 12.5, math.sqrt(3.0) - 1.0, 2.0),
        ([8.0, 2.0], [4.0, 4.0], 3.0, math.sqrt(1.5 * 2.0) - 1.0, 2.0),
        ([100.0, 100.0, 100.0, 100.0], [110.0, 90.0, 100.0, 100.0],
         5.0, (1.1 * 1.1) ** 0.25 - 1.0, (1.1 * 100 / 90) ** 0.25),
    ]
    worst = 0.0
    for t, a, m_exp, p_exp, q_exp in cases:
        worst = max(worst,
                    abs(mae(t, a) - m_exp),
                    abs(gmape(t, a) - p_exp),
                    abs(gmqe(t, a) - q_exp))
    rng = np.random.default_rng(3003)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(1, 20))
        t = rng.uniform(0, 1e4, size=n)
        a = rng.uniform(0, 1e4, size=n)
        if gmqe(t, a) < 1.0 - 1e-12 or gmape(t, a) < -1e-12:
            violations += 1
    verdict(3, worst <= 1e-12 and violations == 0,
            f"5 hand-computed series within {worst:.2e} (<= 1e-12), "
            f"{violations} bound violations over 1000 fuzzed series")


# --- criteria 4 and 5: round-trip fidelity and the annealing ablation --------

@pytest.fixture(scope="module")
def round_trip():
    """A 1-hour trace synthesized from a known 20-component schedule, then
    re-synthesized with the same catalog."""
    schema = FeatureSchema(
        metrics=("cpu_time_ms", "scanned_bytes"),
        operators=("filter_num", "aggregate_num", "join_num", "sort_num"),
    )
    rng = np.random.default_rng(4004)
    catalog = random_catalog(schema, 20, rng, duration_range=(6000, 20000),
                             value_range=(1, 9))
    window_ms, interval_ms, n_windows = 300000, 30000, 12
    cores = 32  # planted concurrency stays far below capacity

    rows = []
    for w in range(n_windows):
        picks = rng.integers(0, 20, size=8)
        serial = {}
        for j in picks:
            component_id = catalog.ids[j]
            k = serial.get(component_id, 0)
            serial[component_id] = k + 1
            slack = (window_ms - int(catalog.duration_ms[j])) // 1000
            start = w * window_ms + int(rng.integers(0, slack)) * 1000
            rows.append((w, component_id, k, start))
    # by window, component id and instance, which no two rows share
    planted = make_schedule(sorted(rows))
    source = replay(planted, catalog, cores, MODE_COUNTS)
    windows, intervals = build_targets(source, window_ms, interval_ms,
                                       span=(0, n_windows * window_ms))

    started = time.monotonic()
    cfg = Config({"cores": str(cores), "sa.no_improve": "300", "sa.max_steps": "6000"})
    plans = solve_all_windows(windows, catalog, cfg)
    sa = assign_timestamps(plans, intervals, catalog, cfg, rng_seed=5)
    replayed = replay(sa.schedule, catalog, cores, MODE_COUNTS)
    elapsed = time.monotonic() - started

    baseline = random_schedule(plans, intervals, cfg, rng_seed=5)
    replayed_random = replay(baseline, catalog, cores, MODE_COUNTS)
    return {
        "schema": schema,
        "windows": windows,
        "intervals": intervals,
        "sa": sa,
        "replayed": replayed,
        "replayed_random": replayed_random,
        "elapsed": elapsed,
    }


def test_criterion_4_round_trip_self_fidelity(round_trip):
    rep = report(round_trip["windows"], round_trip["intervals"],
                 round_trip["replayed"], EPS_DEFAULT)
    schema = round_trip["schema"]
    worst_gmape = max(rep.window_level[m].gmape for m in schema.metrics)
    worst_gmqe = max(rep.window_level[m].gmqe for m in schema.metrics)
    op_mae = max(rep.window_level[o].mae for o in schema.operators)
    elapsed = round_trip["elapsed"]
    ok = worst_gmape <= 0.05 and op_mae == 0.0 and worst_gmqe <= 1.05 \
        and elapsed < 300
    verdict(4, ok,
            f"window GMAPE {worst_gmape:.4f} (<= 0.05), operator MAE {op_mae} "
            f"(= 0), GMQE {worst_gmqe:.4f} (<= 1.05), runtime {elapsed:.0f}s "
            f"(< 300s)")


def test_criterion_5_timestamp_assignment_ablation(round_trip):
    schema = round_trip["schema"]
    with_sa = report(round_trip["windows"], round_trip["intervals"],
                     round_trip["replayed"], EPS_DEFAULT)
    without = report(round_trip["windows"], round_trip["intervals"],
                     round_trip["replayed_random"], EPS_DEFAULT)
    sa_gmape = np.mean([with_sa.interval_level[m].gmape for m in schema.metrics])
    rnd_gmape = np.mean([without.interval_level[m].gmape for m in schema.metrics])
    trace = round_trip["sa"].best_energy_trace
    monotone = all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    ok = sa_gmape <= 0.5 * rnd_gmape and monotone
    verdict(5, ok,
            f"interval GMAPE {sa_gmape:.4f} with annealing vs {rnd_gmape:.4f} "
            f"random (ratio {sa_gmape / rnd_gmape:.2f} <= 0.5), best-energy "
            f"trace non-increasing: {monotone}")


# --- criterion 6: processor-sharing simulator oracle -------------------------

def brute_force_ps(starts, works, cores, step=1.0):
    """Forward integrator in fixed 1 ms slices, used only as an independent
    oracle.  A slice is subdivided when a job finishes inside it so the share
    rate is never applied stale."""
    n = len(starts)
    remaining = [float(w) for w in works]
    completions = [None] * n
    t = float(min(starts))
    while any(c is None for c in completions):
        active = [j for j in range(n)
                  if starts[j] <= t and completions[j] is None]
        if not active:
            t = min(starts[j] for j in range(n) if completions[j] is None)
            continue
        slice_end = t + step
        while t < slice_end and active:
            rate = min(1.0, cores / len(active))
            dt = min(slice_end - t, min(remaining[j] for j in active) / rate)
            for j in active:
                remaining[j] -= rate * dt
                if remaining[j] <= 1e-9:
                    completions[j] = t + dt
            t += dt
            active = [j for j in active if completions[j] is None]
        t = slice_end
    return np.array(completions)


def test_criterion_6_simulator_oracle():
    rng = np.random.default_rng(6006)
    worst_gap = 0.0
    worst_mass = 0.0
    from wlsynth.scheduler import IntervalGrid

    for _ in range(50):
        n = int(rng.integers(2, 7))
        starts = rng.integers(0, 4000, size=n).astype(float)
        works = rng.integers(100, 3000, size=n).astype(float)
        cores = int(rng.integers(1, 4))
        metrics = rng.uniform(1, 100, size=(n, 2))
        grid = IntervalGrid(0, 1000, 40)
        completions, bins = simulate_processor_sharing(
            starts, works, cores, metrics, grid
        )
        oracle = brute_force_ps(starts, works, cores, step=1.0)
        worst_gap = max(worst_gap, float(np.max(np.abs(completions - oracle))))
        total = metrics.sum(axis=0)
        worst_mass = max(worst_mass,
                         float(np.max(np.abs(bins.sum(axis=0) - total) / total)))
    ok = worst_gap <= 1.0 and worst_mass <= 1e-6
    verdict(6, ok,
            f"completions within {worst_gap:.3f} ms (<= 1 ms) of a 1 ms-step "
            f"integrator over 50 schedules; worst relative mass error "
            f"{worst_mass:.2e} (<= 1e-6)")


# --- criterion 7: augmentation closed loop -----------------------------------

def test_criterion_7_augmentation_closed_loop(schema):
    # planted gap: the catalog only offers small components, the first window
    # wants a large one
    catalog = make_catalog(schema, [
        ("s1", 8000, [10, 10, 1, 0, 0, 0]),
        ("s2", 9000, [15, 5, 0, 1, 0, 0]),
        ("s3", 7000, [5, 15, 1, 1, 0, 0]),
        ("s4", 8000, [12, 12, 0, 0, 1, 0]),
    ])
    q = np.array([200.0, 200.0])
    ops = np.array([2.0, 1.0, 1.0, 0.0])
    trace = make_trace(schema, [
        ("q1", 10000, 60000, q, ops),
        ("q2", 50000, 60000, q, ops),
    ])
    windows, intervals = build_targets(trace, 300000, 30000)
    cfg = Config()
    pre = solve_all_windows(windows, catalog, cfg)
    assert pre[0].objective_value > 0.2, "fixture gap is not planted"

    provider = MockProvider(echo_policy)
    augmented, reports = augment_catalog(
        trace, bad_windows(*relax_windows(windows, catalog, cfg), 0.2), windows, catalog,
        provider, SimulatedExecutor(schema), Config({"augment.k": "1"}), seed=0,
    )
    post = solve_all_windows(windows, augmented, cfg)
    improvement_ok = post[0].objective_value <= 0.1 * pre[0].objective_value

    # clamped fixture: the executor caps both metrics below the target until
    # the database is switched to a doubled scale factor
    clamped_provider = MockProvider(echo_policy)
    clamped_executor = SimulatedExecutor(
        schema, metric_caps_per_sf={"cpu_time_ms": 60.0, "scanned_bytes": 60.0}
    )
    target = GenerationTarget("clamped", np.array([100.0, 100.0, 0, 0, 0, 0]), (0,), 1)
    clamped = generate_component(
        target, catalog, clamped_provider, clamped_executor,
        Config({"augment.max_attempts": "2", "augment.max_db_switches": "2"}),
    )
    switch_verdicts = sum(1 for a in clamped.attempts
                          if a.verdict == VERDICT_DATABASE_SWITCH)
    switch_ok = clamped.accepted and switch_verdicts == 1 \
        and clamped.database_switches == 1

    # re-solve monotonicity: appending components can never hurt
    rng = np.random.default_rng(7007)
    regressions = 0
    target_w = WindowTargets(windows.start_ts, windows.len_ms, windows.features[:1],
                             windows.query_counts[:1])
    for i in range(50):
        base = random_catalog(schema, 5, rng)
        before = solve_all_windows(target_w, base, cfg)[0]
        grown = base
        for j in range(int(rng.integers(1, 4))):
            extra = random_catalog(schema, 1, rng)
            grown = grown.appended(Catalog([f"x{i}-{j}"], *extra.columns[1:], schema))
        after = solve_all_windows(target_w, grown, cfg)[0]
        if after.objective_value > before.objective_value + 1e-9:
            regressions += 1
    ok = improvement_ok and switch_ok and regressions == 0
    verdict(7, ok,
            f"post/pre objective {post[0].objective_value:.4g}/"
            f"{pre[0].objective_value:.4g} (<= 0.1x), database switches on the "
            f"clamped fixture: {switch_verdicts} (= 1), re-solve regressions "
            f"{regressions}/50 (= 0)")


# --- criterion 8: query-level dominance --------------------------------------

def test_criterion_8_query_level_dominance(schema):
    rng = np.random.default_rng(8008)
    catalog = random_catalog(schema, 8, rng)
    cfg = Config()
    violations = 0
    for _ in range(100):
        vals = rng.integers(0, 40, size=6).astype(float)
        single = match_query(vals, catalog, cfg, mode=ONE_TO_ONE)
        multi = match_query(vals, catalog, cfg, mode=ONE_TO_MANY)
        if multi.objective_value > single.objective_value + 1e-9:
            violations += 1
    verdict(8, violations == 0,
            f"one-to-many objective <= one-to-one on 100 queries, "
            f"{violations} violations")


# --- criterion 9: determinism ------------------------------------------------

def test_criterion_9_pipeline_determinism(tmp_path):
    demo = tmp_path / "demo"
    assert main(["demo", "--out", str(demo)]) == 0
    runs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main([
            "pipeline",
            "--config", str(demo / "demo_config.txt"),
            "--trace", str(demo / "demo_trace.csv"),
            "--catalog", str(demo / "demo_catalog.csv"),
            "--out", str(out),
        ])
        assert code == 0
        runs.append(out)
    differing = []
    files = sorted(p.relative_to(runs[0]) for p in runs[0].rglob("*")
                   if p.is_file())
    for rel in files:
        if (runs[0] / rel).read_bytes() != (runs[1] / rel).read_bytes():
            differing.append(str(rel))
    verdict(9, len(files) > 0 and not differing,
            f"{len(files)} artifacts bit-identical across two seeded runs"
            + (f"; differing: {differing}" if differing else ""))
