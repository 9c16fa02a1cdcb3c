"""Close catalog-target gaps by generating new workload components.

When selection leaves some windows badly approximated, the queries in those
windows are clustered and each cluster centroid becomes a generation target.
An LLM provider is prompted with the target feature, nearby catalog
components as positive examples, distant ones as negative examples and, on
retries, scenario-specific hints.  Generated queries are profiled through
the executor; persistent misses on the database-shaped scenarios trigger a
database re-selection (scale factor or skewness adjustment).
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, replace
from typing import Callable, Protocol

import numpy as np

from .catalog import (
    ORIGIN_AUGMENTED,
    Catalog,
    DatabaseDescriptor,
    Executor,
    WorkloadComponent,
    profile_component,
)
from .errors import ProviderError, ValidationError
from .features import FeatureSchema, PerformanceFeature
from .selector import SelectionPlan, znorm_stats
from .trace import Trace, WindowTarget

log = logging.getLogger(__name__)

ACTION_REWRITE = "rewrite_query"
ACTION_CHANGE_DATABASE = "change_database"

SCENARIO_LOW_CPU_LOW_SB = "lowCPU_lowSB"
SCENARIO_HIGH_CPU_LOW_SB = "highCPU_lowSB"
SCENARIO_LOW_CPU_HIGH_SB = "lowCPU_highSB"
SCENARIO_BOTH_LOW_OR_HIGH = "both_low_or_high"
SCENARIO_RATIO_OFF = "ratio_off"

VERDICT_ACCEPTED = "accepted"
VERDICT_RETRY = "retry"
VERDICT_DATABASE_SWITCH = "database_switch"

@dataclass(frozen=True)
class HintScenario:
    scenario_id: str
    hint_texts: tuple[str, ...]
    action: str

    @classmethod
    def by_id(cls, scenario_id: str) -> "HintScenario":
        return HINT_SCENARIOS[scenario_id]


HINT_SCENARIOS: dict[str, HintScenario] = {s.scenario_id: s for s in (
    HintScenario(SCENARIO_LOW_CPU_LOW_SB, (
        "Try to generate a query that performs computation on a larger table.",
        "Try to delete some predicates to scan more data.",
    ), ACTION_REWRITE),
    HintScenario(SCENARIO_HIGH_CPU_LOW_SB, (
        "Scan more data while deleting some operators.",
        "Use more Inner Join operators to reduce the intermediate result size.",
    ), ACTION_REWRITE),
    HintScenario(SCENARIO_LOW_CPU_HIGH_SB, (
        "Use more Self Join operators to increase the size of intermediate results.",
        "Perform arithmetic operations on some columns.",
        "Scan a smaller table while adding more operators.",
    ), ACTION_REWRITE),
    HintScenario(SCENARIO_BOTH_LOW_OR_HIGH, (
        "Use or generate a benchmark database with a higher or lower Scale Factor.",
    ), ACTION_CHANGE_DATABASE),
    HintScenario(SCENARIO_RATIO_OFF, (
        "Use a benchmark database of higher or lower skewness, or select a database "
        "with a more complex schema.",
    ), ACTION_CHANGE_DATABASE),
)}


@dataclass
class GenerationTarget:
    target_id: str
    feature: PerformanceFeature
    source_windows: tuple[int, ...]
    weight: int

    def __post_init__(self):
        if self.weight < 1:
            raise ValidationError("generation target weight must be >= 1")


@dataclass
class ExampleSet:
    """Nearest catalog components (ascending distance) and farthest (descending)."""

    positives: list[tuple[WorkloadComponent, float]]
    negatives: list[tuple[WorkloadComponent, float]]


@dataclass
class GenerationAttempt:
    attempt_index: int
    prompt: str
    response: str
    profiled: PerformanceFeature | None
    deltas: dict[str, float]
    scenario_id: str | None
    verdict: str

    def log_record(self) -> dict:
        return {
            "attempt_index": self.attempt_index,
            "prompt_sha256": hashlib.sha256(self.prompt.encode()).hexdigest(),
            "scenario": self.scenario_id,
            "deltas": {k: round(v, 9) for k, v in sorted(self.deltas.items())},
            "verdict": self.verdict,
        }


@dataclass
class GenerationReport:
    target_id: str
    component: WorkloadComponent | None
    attempts: list[GenerationAttempt]
    database_switches: int

    @property
    def accepted(self) -> bool:
        return self.component is not None


@dataclass
class AugmentConfig:
    k: int = 3
    examples_per_side: int = 3          # N
    accept_threshold: float = 0.15      # tau, relative per dimension
    max_attempts: int = 5
    max_db_switches: int = 2
    bad_window_threshold: float = 0.2   # theta on the per-window objective
    cpu_dimension: str = "cpu_time_ms"
    sb_dimension: str = "scanned_bytes"
    profile_repetitions: int = 3


class Provider(Protocol):
    """Text-in/text-out LLM transport."""

    def complete(self, prompt: str) -> str:
        ...


class MockProvider:
    """Deterministic provider driven by an injected response policy.

    The policy is called with the prompt and the number of completions made
    so far, so closed-loop tests can script convergence behavior with known
    ground truth.
    """

    def __init__(self, policy: Callable[[str, int], str]):
        self._policy = policy
        self.calls = 0

    def complete(self, prompt: str) -> str:
        response = self._policy(prompt, self.calls)
        self.calls += 1
        return response


class HttpProvider:
    """Thin JSON-over-HTTP adapter: POST {"prompt": ...} -> {"completion": ...}.

    The bearer token is read from the WLSYNTH_LLM_TOKEN environment variable.
    """

    def __init__(self, endpoint: str, timeout_ms: int = 30000):
        self.endpoint = endpoint
        self.timeout_s = timeout_ms / 1000.0

    def complete(self, prompt: str) -> str:
        # imported here: urllib.request pulls in ssl and http.client, which
        # only this provider needs
        import urllib.request

        payload = json.dumps({"prompt": prompt}).encode()
        request = urllib.request.Request(
            self.endpoint, data=payload, headers={"Content-Type": "application/json"}
        )
        token = os.environ.get("WLSYNTH_LLM_TOKEN")
        if token:
            request.add_header("Authorization", f"Bearer {token}")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                body = json.loads(response.read().decode())
        except Exception as exc:
            raise ProviderError(f"provider request failed: {exc}") from exc
        if "completion" not in body:
            raise ProviderError("provider response lacks a 'completion' field")
        return str(body["completion"])


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator,
            tol: float = 1e-6, max_iter: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means++ initialization followed by Lloyd iterations."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(0, n))]
    for c in range(1, k):
        d2 = np.min(
            ((points[:, None, :] - centroids[None, :c, :]) ** 2).sum(axis=2), axis=1
        )
        total = d2.sum()
        if total <= 0:
            centroids[c] = points[int(rng.integers(0, n))]
            continue
        centroids[c] = points[int(rng.choice(n, p=d2 / total))]
    assignment = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assignment = np.argmin(d2, axis=1)
        moved = 0.0
        for c in range(k):
            members = points[assignment == c]
            if len(members) == 0:
                continue
            new_centroid = members.mean(axis=0)
            moved = max(moved, float(np.linalg.norm(new_centroid - centroids[c])))
            centroids[c] = new_centroid
        if moved <= tol:
            break
    return centroids, assignment


def find_generation_targets(
    queries: list[tuple[PerformanceFeature, int]],
    k: int,
    seed: int,
) -> list[GenerationTarget]:
    """Cluster under-fit queries' features; one target per non-empty cluster.

    `queries` pairs each feature with its source window index.  Features are
    z-normalized before clustering and centroids are mapped back to native
    units.  With fewer distinct points than k, the distinct points are
    returned instead (with a warning).
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if not queries:
        return []
    return _cluster_targets(np.array([f.as_vector() for f, _ in queries]),
                            [w for _, w in queries], queries[0][0].metrics.shape[0], k, seed)


def _cluster_targets(matrix: np.ndarray, windows: list[int], n_metrics: int, k: int,
                     seed: int) -> list[GenerationTarget]:
    """find_generation_targets on a (queries x dimensions) feature table."""
    distinct = np.unique(matrix, axis=0)
    if len(distinct) < k:
        log.warning(
            "only %d distinct feature points for k=%d clusters", len(distinct), k
        )
        k = len(distinct)
    mean, std = znorm_stats(matrix)
    normed = (matrix - mean) / std
    rng = np.random.default_rng(seed)
    centroids, assignment = _kmeans(normed, k, rng)
    targets = []
    for c in range(k):
        members = np.flatnonzero(assignment == c)
        if len(members) == 0:
            continue
        native = centroids[c] * std + mean
        native = np.maximum(native, 0.0)
        feature = PerformanceFeature(native[:n_metrics], native[n_metrics:])
        targets.append(
            GenerationTarget(
                target_id=f"target-{len(targets)}",
                feature=feature,
                source_windows=tuple(sorted({windows[m] for m in members})),
                weight=len(members),
            )
        )
    return targets


def retrieve_examples(
    target: GenerationTarget, catalog: Catalog, n_examples: int
) -> ExampleSet:
    """N nearest components as positives, N farthest (from the remainder) as
    negatives, on z-normalized features with ties broken by component_id."""
    if len(catalog) == 0:
        raise ValidationError("cannot retrieve examples from an empty catalog")
    matrix = catalog.feature_matrix()
    mean, std = znorm_stats(matrix)
    normed = (matrix - mean) / std
    point = (target.feature.as_vector() - mean) / std
    distances = np.linalg.norm(normed - point, axis=1)
    components = list(catalog)
    ranked = sorted(
        range(len(components)), key=lambda j: (distances[j], components[j].component_id)
    )
    n = min(n_examples, len(components))
    positive_idx = ranked[:n]
    remainder = [j for j in ranked[n:]]
    negative_idx = list(reversed(remainder))[:n_examples]
    return ExampleSet(
        positives=[(components[j], float(distances[j])) for j in positive_idx],
        negatives=[(components[j], float(distances[j])) for j in negative_idx],
    )


def _format_feature(feature: PerformanceFeature, schema: FeatureSchema) -> str:
    pairs = [
        f"{name}={value:.6g}"
        for name, value in zip(schema.dimensions, feature.as_vector())
    ]
    return ", ".join(pairs)


def pick_database(examples: ExampleSet) -> DatabaseDescriptor:
    """The database referenced by the most positive examples; ties by name."""
    votes: dict[tuple, int] = {}
    descriptors: dict[tuple, DatabaseDescriptor] = {}
    for comp, _ in examples.positives:
        key = comp.database_ref.key
        votes[key] = votes.get(key, 0) + 1
        descriptors[key] = comp.database_ref
    if not votes:
        raise ValidationError("no positive examples to pick a database from")
    best = sorted(votes, key=lambda key: (-votes[key], key))[0]
    return descriptors[best]


def build_prompt(
    target: GenerationTarget,
    examples: ExampleSet,
    database: DatabaseDescriptor,
    schema: FeatureSchema,
    hints: tuple[str, ...] = (),
) -> str:
    """Deterministic prompt text; identical inputs yield identical bytes."""
    lines = [
        "Write one SQL query for the database described below.",
        "",
        f"DATABASE: {database.benchmark_name} "
        f"(scale_factor={database.scale_factor:.6g}, skewness={database.skewness})",
    ]
    if database.schema_summary:
        lines.append("TABLES:")
        for table, rows, columns in database.schema_summary:
            lines.append(f"  {table}: {rows} rows ({', '.join(columns)})")
    lines += [
        "",
        "TARGET FEATURE:",
        f"  {_format_feature(target.feature, schema)}",
        "",
        "POSITIVE EXAMPLES (learn the query patterns):",
    ]
    for comp, distance in examples.positives:
        lines.append(f"  [{comp.component_id}] distance={distance:.6g}")
        lines.append(f"    feature: {_format_feature(comp.feature, schema)}")
        if comp.query_ref:
            lines.append(f"    query: {comp.query_ref}")
    lines.append("")
    lines.append("NEGATIVE EXAMPLES (avoid the query patterns):")
    for comp, distance in examples.negatives:
        lines.append(f"  [{comp.component_id}] distance={distance:.6g}")
        lines.append(f"    feature: {_format_feature(comp.feature, schema)}")
        if comp.query_ref:
            lines.append(f"    query: {comp.query_ref}")
    if hints:
        lines.append("")
        lines.append("HINTS:")
        for hint in hints:
            lines.append(f"  - {hint}")
    lines.append("")
    lines.append("Return only the SQL query.")
    return "\n".join(lines)


def _relative_deltas(
    target: PerformanceFeature,
    profiled: PerformanceFeature,
    schema: FeatureSchema,
    eps: float = 1e-9,
) -> dict[str, float]:
    deltas = {}
    tvec = target.as_vector()
    pvec = profiled.as_vector()
    for d, name in enumerate(schema.dimensions):
        deltas[name] = float((pvec[d] - tvec[d]) / max(abs(tvec[d]), eps))
    return deltas


def classify_gap(
    target: PerformanceFeature,
    profiled: PerformanceFeature,
    schema: FeatureSchema,
    config: AugmentConfig | None = None,
) -> HintScenario | None:
    """Map the CPU-time / scanned-bytes gap sign pattern to a hint scenario.

    Returns None when the generated query is acceptable: both magnitudes and
    their ratio within the tolerance.  Total over all delta sign patterns.
    """
    config = config or AugmentConfig()
    tau = config.accept_threshold
    for dim in (config.cpu_dimension, config.sb_dimension):
        if dim not in schema.dimensions:
            raise ValidationError(f"schema lacks required dimension {dim!r}")
    deltas = _relative_deltas(target, profiled, schema)
    d_cpu = deltas[config.cpu_dimension]
    d_sb = deltas[config.sb_dimension]

    eps = 1e-9
    tvec = dict(zip(schema.dimensions, target.as_vector()))
    pvec = dict(zip(schema.dimensions, profiled.as_vector()))
    target_ratio = max(tvec[config.cpu_dimension], eps) / max(tvec[config.sb_dimension], eps)
    profiled_ratio = max(pvec[config.cpu_dimension], eps) / max(pvec[config.sb_dimension], eps)
    d_ratio = profiled_ratio / target_ratio - 1.0

    if abs(d_cpu) <= tau and abs(d_sb) <= tau:
        if abs(d_ratio) > tau:
            return HintScenario.by_id(SCENARIO_RATIO_OFF)
        return None
    if d_cpu < -tau and d_sb < -tau:
        return HintScenario.by_id(SCENARIO_BOTH_LOW_OR_HIGH)
    if d_cpu > tau and d_sb > tau:
        return HintScenario.by_id(SCENARIO_BOTH_LOW_OR_HIGH)
    if d_cpu > tau and d_sb <= tau:
        # too much CPU relative to scanned data, whether SB is low or in range
        return HintScenario.by_id(SCENARIO_HIGH_CPU_LOW_SB)
    if d_cpu < -tau and d_sb > tau:
        return HintScenario.by_id(SCENARIO_LOW_CPU_HIGH_SB)
    if d_cpu < -tau:
        # CPU low, SB in range: raise computation
        return HintScenario.by_id(SCENARIO_LOW_CPU_LOW_SB)
    if d_sb < -tau:
        # CPU in range, SB low: scan more
        return HintScenario.by_id(SCENARIO_LOW_CPU_LOW_SB)
    # CPU in range, SB high
    return HintScenario.by_id(SCENARIO_LOW_CPU_HIGH_SB)


def switch_database(
    database: DatabaseDescriptor, scenario: HintScenario, deltas_low: bool
) -> DatabaseDescriptor:
    """Re-select the database per the failure scenario.

    Scale-factor scenarios double or halve the scale factor; ratio scenarios
    step the skewness level (clamped to the supported 0..4 range).
    """
    if scenario.scenario_id == SCENARIO_BOTH_LOW_OR_HIGH:
        factor = 2.0 if deltas_low else 0.5
        return replace(database, scale_factor=database.scale_factor * factor)
    step = 1 if deltas_low else -1
    return replace(database, skewness=min(4, max(0, database.skewness + step)))


def generate_component(
    target: GenerationTarget,
    catalog: Catalog,
    provider: Provider,
    executor: Executor,
    config: AugmentConfig | None = None,
    component_id: str | None = None,
) -> GenerationReport:
    """Trial-and-error generation of one component for one target.

    Loop: build prompt -> provider -> profile -> classify.  Rewrite scenarios
    append their hints and retry; `max_attempts` consecutive misses on a
    database-shaped scenario switch the database (up to `max_db_switches`)
    and reset the attempt counter.  Exhaustion returns a failure report
    carrying every attempt.
    """
    config = config or AugmentConfig()
    schema = catalog.schema
    examples = retrieve_examples(target, catalog, config.examples_per_side)
    database = pick_database(examples)
    hints: list[str] = []
    attempts: list[GenerationAttempt] = []
    switches = 0
    db_action_streak = 0

    while switches <= config.max_db_switches:
        for attempt_index in range(config.max_attempts):
            prompt = build_prompt(target, examples, database, schema, tuple(hints))
            try:
                response = provider.complete(prompt)
            except ProviderError as exc:
                raise ProviderError(str(exc), attempt_index=attempt_index) from exc
            try:
                profiled = profile_component(
                    WorkloadComponent(target.target_id, response, database, 1.0,
                                      PerformanceFeature.zeros(schema)),
                    executor, max(1, config.profile_repetitions))
            except Exception as exc:
                log.warning("profiling attempt %d failed: %s", attempt_index, exc)
                attempts.append(
                    GenerationAttempt(attempt_index, prompt, response, None, {},
                                      None, VERDICT_RETRY)
                )
                continue
            mean_feature = profiled.feature
            deltas = _relative_deltas(target.feature, mean_feature, schema)
            scenario = classify_gap(target.feature, mean_feature, schema, config)
            if scenario is None and _metric_gaps_ok(deltas, schema, config):
                attempts.append(
                    GenerationAttempt(attempt_index, prompt, response, mean_feature,
                                      deltas, None, VERDICT_ACCEPTED)
                )
                component = WorkloadComponent(
                    component_id=component_id or f"aug-{target.target_id}",
                    query_ref=response,
                    database_ref=database,
                    duration_ms=profiled.duration_ms,
                    feature=mean_feature,
                    origin=ORIGIN_AUGMENTED,
                )
                return GenerationReport(target.target_id, component, attempts, switches)

            scenario = scenario or HintScenario.by_id(SCENARIO_RATIO_OFF)
            if scenario.action == ACTION_CHANGE_DATABASE:
                db_action_streak += 1
            else:
                db_action_streak = 0
            verdict = VERDICT_RETRY
            if (
                scenario.action == ACTION_CHANGE_DATABASE
                and db_action_streak >= config.max_attempts
                and switches < config.max_db_switches
            ):
                verdict = VERDICT_DATABASE_SWITCH
            attempts.append(
                GenerationAttempt(attempt_index, prompt, response, mean_feature,
                                  deltas, scenario.scenario_id, verdict)
            )
            for hint in scenario.hint_texts:
                if hint not in hints:
                    hints.append(hint)
            if verdict == VERDICT_DATABASE_SWITCH:
                if scenario.scenario_id == SCENARIO_BOTH_LOW_OR_HIGH:
                    deltas_low = deltas[config.cpu_dimension] < 0
                else:
                    # ratio_off: low CPU/SB ratio calls for more skew
                    deltas_low = deltas[config.cpu_dimension] < deltas[config.sb_dimension]
                database = switch_database(database, scenario, deltas_low)
                switches += 1
                db_action_streak = 0
                break
        else:
            # attempt budget exhausted without a database switch
            return GenerationReport(target.target_id, None, attempts, switches)
    return GenerationReport(target.target_id, None, attempts, switches)


def _metric_gaps_ok(deltas: dict[str, float], schema: FeatureSchema,
                    config: AugmentConfig) -> bool:
    """Acceptance requires every metric dimension within the threshold;
    operator dimensions are advisory for generation."""
    return all(abs(deltas[m]) <= config.accept_threshold for m in schema.metrics)


def bad_windows(plans: list[SelectionPlan], threshold: float) -> list[int]:
    return sorted(p.window_index for p in plans if p.objective_value > threshold)


def augment_catalog(
    trace: Trace,
    plans: list[SelectionPlan],
    window_targets: list[WindowTarget],
    catalog: Catalog,
    provider: Provider,
    executor: Executor,
    config: AugmentConfig | None = None,
    seed: int = 0,
) -> tuple[Catalog, list[GenerationReport]]:
    """Generate one component per cluster of queries in badly-fit windows.

    Accepted components are appended to a copy of the catalog.  Appending
    only ever enlarges the candidate set, so re-solving any window with the
    returned catalog cannot worsen its objective.
    """
    config = config or AugmentConfig()
    bad = set(bad_windows(plans, config.bad_window_threshold))
    if not bad:
        return catalog, []
    # the queries that arrive inside a bad window, in trace order; windows are disjoint
    windows = sorted((w.window_start_ts, w.window_len_ms, w.window_index)
                     for w in window_targets if w.window_index in bad)
    start, length, index = (np.array(col) for col in zip(*windows))
    at = np.maximum(np.searchsorted(start, trace.arrival_ts, side="right") - 1, 0)
    offset = trace.arrival_ts - start[at]
    hit = np.flatnonzero((offset >= 0) & (offset < length[at]))
    if not hit.size:
        return catalog, []
    targets = _cluster_targets(trace.features[hit], index[at[hit]].tolist(),
                               trace.schema.n_metrics, config.k, seed)
    augmented = catalog.copy()
    reports = []
    serial = sum(1 for c in catalog if c.origin == ORIGIN_AUGMENTED)
    for target in targets:
        report = generate_component(
            target, augmented, provider, executor, config,
            component_id=f"aug-{serial:03d}",
        )
        reports.append(report)
        if report.accepted:
            augmented.add(report.component)
            serial += 1
        else:
            log.warning(
                "generation failed for %s after %d attempts",
                target.target_id, len(report.attempts),
            )
    return augmented, reports


def write_attempt_log(reports: list[GenerationReport], path) -> None:
    """One JSON object per attempt, in generation order."""
    with open(path, "w", encoding="utf-8") as fh:
        for report in reports:
            for attempt in report.attempts:
                record = {"target_id": report.target_id}
                record.update(attempt.log_record())
                fh.write(json.dumps(record, sort_keys=True) + "\n")
