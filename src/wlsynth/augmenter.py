"""Close catalog-target gaps by generating new workload components.

When selection leaves some windows badly approximated, the queries in those
windows are clustered and each cluster centroid becomes a generation target.
An LLM provider is prompted with the target feature, nearby catalog rows as
positive examples, distant ones as negative examples and, on retries,
scenario-specific hints.  Generated queries are profiled through the
executor; persistent misses on the database-shaped scenarios trigger a
database re-selection (scale factor or skewness adjustment).  Features are
vectors, metrics then operators, and examples are catalog rows.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, replace
from typing import Callable, Protocol

import numpy as np
from numpy.random import Generator, default_rng

from .catalog import ORIGIN_AUGMENTED, Catalog, DatabaseDescriptor, Executor, profile_query
from .config import Config
from .errors import ProviderError, ValidationError, WlsynthError
from .features import FeatureSchema, relative_gaps, row_groups
from .selector import SelectionProblem, exceeds, map_windows, rank_components, znorm_stats
from .trace import Trace, WindowTargets

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

# floor of the relative gaps and of the CPU/SB ratio's operands
_EPS = 1e-9
# executor runs averaged into one generated component's profile
_PROFILE_REPETITIONS = 3


@dataclass(frozen=True)
class HintScenario:
    scenario_id: str
    hint_texts: tuple[str, ...]
    action: str


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
    feature: np.ndarray
    source_windows: tuple[int, ...]
    weight: int

    def __post_init__(self):
        if self.weight < 1:
            raise ValidationError("generation target weight must be >= 1")


@dataclass
class ExampleSet:
    """(catalog row, distance) of the nearest components (ascending distance)
    and of the farthest (descending)."""

    positives: list[tuple[int, float]]
    negatives: list[tuple[int, float]]


@dataclass
class GenerationAttempt:
    attempt_index: int
    prompt: str
    profiled: np.ndarray | None
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
    component: Catalog | None
    attempts: list[GenerationAttempt]
    database_switches: int

    @property
    def accepted(self) -> bool:
        return self.component is not None


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

    def __init__(self, endpoint: str, timeout_ms: int):
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
        if not isinstance(body, dict) or not isinstance(body.get("completion"), str):
            raise ProviderError("provider response is not a JSON object with a string "
                                "'completion' field")
        return body["completion"]


def _kmeans(points: np.ndarray, k: int, rng: Generator,
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


def _cluster_targets(matrix: np.ndarray, windows: list[int], k: int,
                     seed: int) -> list[GenerationTarget]:
    """Cluster under-fit queries' features; one target per non-empty cluster.

    `matrix` holds one feature row per query and `windows` each query's
    source window index.  Features are z-normalized before clustering and
    centroids are mapped back to native units.  With fewer distinct points
    than k, the distinct points are returned instead (with a warning).
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if not len(matrix):
        return []
    distinct = int(row_groups(matrix).max()) + 1
    if distinct < k:
        log.warning("only %d distinct feature points for k=%d clusters", distinct, k)
        k = distinct
    mean, std = znorm_stats(matrix)
    normed = (matrix - mean) / std
    rng = default_rng(seed)
    centroids, assignment = _kmeans(normed, k, rng)
    targets = []
    for c in range(k):
        members = np.flatnonzero(assignment == c)
        if len(members) == 0:
            continue
        targets.append(
            GenerationTarget(
                target_id=f"target-{len(targets)}",
                feature=np.maximum(centroids[c] * std + mean, 0.0),
                source_windows=tuple(sorted({windows[m] for m in members})),
                weight=len(members),
            )
        )
    return targets


def retrieve_examples(
    target: GenerationTarget, catalog: Catalog, n_examples: int
) -> ExampleSet:
    """N nearest components as positives, N farthest (from the remainder) as
    negatives, in `selector.rank_components` order."""
    if len(catalog) == 0:
        raise ValidationError("cannot retrieve examples from an empty catalog")
    order, distances = rank_components(catalog.features, catalog.ids, target.feature)
    return ExampleSet(
        positives=[(int(j), float(distances[j])) for j in order[:n_examples]],
        negatives=[(int(j), float(distances[j]))
                   for j in order[n_examples:][::-1][:n_examples]],
    )


def _format_feature(feature: np.ndarray, schema: FeatureSchema) -> str:
    return ", ".join(f"{name}={value:.6g}" for name, value in zip(schema.dimensions, feature))


def pick_database(examples: ExampleSet, catalog: Catalog) -> DatabaseDescriptor:
    """The database of the most positive examples' rows; ties by name."""
    votes: dict[tuple, int] = {}
    for j, _ in examples.positives:
        key = (catalog.benchmark[j], float(catalog.scale_factor[j]), int(catalog.skewness[j]))
        votes[key] = votes.get(key, 0) + 1
    if not votes:
        raise ValidationError("no positive examples to pick a database from")
    return DatabaseDescriptor(*sorted(votes, key=lambda key: (-votes[key], key))[0])


def build_prompt(
    target: GenerationTarget,
    examples: ExampleSet,
    catalog: Catalog,
    database: DatabaseDescriptor,
    hints: tuple[str, ...] = (),
) -> str:
    """Deterministic prompt text; identical inputs yield identical bytes."""
    lines = [
        "Write one SQL query for the database described below.",
        "",
        f"DATABASE: {database.benchmark_name} "
        f"(scale_factor={database.scale_factor:.6g}, skewness={database.skewness})",
        "",
        "TARGET FEATURE:",
        f"  {_format_feature(target.feature, catalog.schema)}",
    ]
    for title, side in (("POSITIVE EXAMPLES (learn the query patterns):", examples.positives),
                        ("NEGATIVE EXAMPLES (avoid the query patterns):", examples.negatives)):
        lines += ["", title]
        for j, distance in side:
            lines.append(f"  [{catalog.ids[j]}] distance={distance:.6g}")
            lines.append(f"    feature: {_format_feature(catalog.features[j], catalog.schema)}")
            if catalog.query_ref[j]:
                lines.append(f"    query: {catalog.query_ref[j]}")
    if hints:
        lines.append("")
        lines.append("HINTS:")
        for hint in hints:
            lines.append(f"  - {hint}")
    lines.append("")
    lines.append("Return only the SQL query.")
    return "\n".join(lines)


def _gap_dimensions(schema: FeatureSchema, cfg: Config) -> tuple[int, int]:
    """Positions of the CPU-time and scanned-bytes dimensions in the schema."""
    keys = ("augment.cpu_dimension", "augment.sb_dimension")
    for key in keys:
        if cfg[key] not in schema.dimensions:
            raise ValidationError(
                f"config key {key!r}: the schema has no dimension {cfg[key]!r}")
    return tuple(schema.dimensions.index(cfg[key]) for key in keys)


def classify_gap(gaps: np.ndarray, goal: np.ndarray, achieved: np.ndarray,
                 dims: tuple[int, int], tau: float) -> HintScenario | None:
    """Map the CPU-time / scanned-bytes gap sign pattern to a hint scenario.

    `gaps` are the relative gaps of the feature vector `achieved` against
    `goal`, and `dims` the positions of the CPU-time and scanned-bytes
    dimensions.  Returns None when the generated query is acceptable: both
    magnitudes and their ratio within `tau`.  Total over all gap sign
    patterns.
    """
    cpu, sb = dims
    d_cpu, d_sb = gaps[cpu], gaps[sb]
    target_ratio = max(goal[cpu], _EPS) / max(goal[sb], _EPS)
    profiled_ratio = max(achieved[cpu], _EPS) / max(achieved[sb], _EPS)
    d_ratio = profiled_ratio / target_ratio - 1.0

    if abs(d_cpu) <= tau and abs(d_sb) <= tau:
        if abs(d_ratio) > tau:
            return HINT_SCENARIOS[SCENARIO_RATIO_OFF]
        return None
    if (d_cpu < -tau and d_sb < -tau) or (d_cpu > tau and d_sb > tau):
        return HINT_SCENARIOS[SCENARIO_BOTH_LOW_OR_HIGH]
    if d_cpu > tau:
        # too much CPU relative to scanned data, whether SB is low or in range
        return HINT_SCENARIOS[SCENARIO_HIGH_CPU_LOW_SB]
    # CPU low or in range: SB high calls for operators, else for computation or scanning
    return HINT_SCENARIOS[SCENARIO_LOW_CPU_HIGH_SB if d_sb > tau else SCENARIO_LOW_CPU_LOW_SB]


def switch_database(database: DatabaseDescriptor, scenario: HintScenario, gaps: np.ndarray,
                    dims: tuple[int, int]) -> DatabaseDescriptor:
    """Re-select the database per the failure scenario, read from the
    relative `gaps` at the CPU-time and scanned-bytes positions `dims`.

    Scale-factor scenarios double the scale factor when CPU is low, else
    halve it; ratio scenarios step the skewness up when CPU's gap is below
    SB's (a low CPU/SB ratio), else down, within the supported 0..4 range.
    """
    cpu, sb = dims
    if scenario.scenario_id == SCENARIO_BOTH_LOW_OR_HIGH:
        factor = 2.0 if gaps[cpu] < 0 else 0.5
        return replace(database, scale_factor=database.scale_factor * factor)
    step = 1 if gaps[cpu] < gaps[sb] else -1
    return replace(database, skewness=min(4, max(0, database.skewness + step)))


def generate_component(
    target: GenerationTarget,
    catalog: Catalog,
    provider: Provider,
    executor: Executor,
    cfg: Config,
    component_id: str | None = None,
) -> GenerationReport:
    """Trial-and-error generation of one component for one target.

    Loop: build prompt -> provider -> profile -> classify.  Rewrite scenarios
    append their hints and retry; `augment.max_attempts` consecutive misses
    on a database-shaped scenario switch the database (up to
    `augment.max_db_switches`) and reset the attempt counter.  Acceptance
    needs every metric gap within `augment.accept_threshold`; operator gaps
    are advisory.  Exhaustion returns a failure report carrying every attempt.
    The report holds the accepted answer as a one-row catalog.
    """
    max_attempts, max_switches = cfg["augment.max_attempts"], cfg["augment.max_db_switches"]
    tau = cfg["augment.accept_threshold"]
    schema = catalog.schema
    dims = _gap_dimensions(schema, cfg)
    examples = retrieve_examples(target, catalog, cfg["augment.examples_per_side"])
    database = pick_database(examples, catalog)
    goal = target.feature
    hints: list[str] = []
    attempts: list[GenerationAttempt] = []

    for switches in range(max_switches + 1):
        db_misses = 0
        for attempt_index in range(max_attempts):
            prompt = build_prompt(target, examples, catalog, database, tuple(hints))
            try:
                response = provider.complete(prompt)
            except ProviderError as exc:
                raise ProviderError(str(exc), attempt_index=attempt_index) from exc
            try:
                duration, achieved = profile_query(executor, response, database,
                                                   _PROFILE_REPETITIONS)
                # the catalog's column checks are the check of a generated row
                component = Catalog(
                    [component_id or f"aug-{target.target_id}"], [database.benchmark_name],
                    [database.scale_factor], [database.skewness], [duration], achieved[None],
                    [response], [ORIGIN_AUGMENTED], schema)
            except WlsynthError as exc:
                log.warning("profiling attempt %d failed: %s", attempt_index, exc)
                attempts.append(
                    GenerationAttempt(attempt_index, prompt, None, {}, None, VERDICT_RETRY))
                continue
            gaps = relative_gaps(achieved, goal, _EPS)
            deltas = dict(zip(schema.dimensions, gaps.tolist()))
            scenario = classify_gap(gaps, goal, achieved, dims, tau)
            if scenario is None and np.all(np.abs(gaps[:schema.n_metrics]) <= tau):
                attempts.append(
                    GenerationAttempt(attempt_index, prompt, achieved, deltas, None,
                                      VERDICT_ACCEPTED))
                return GenerationReport(target.target_id, component, attempts, switches)

            scenario = scenario or HINT_SCENARIOS[SCENARIO_RATIO_OFF]
            db_misses += scenario.action == ACTION_CHANGE_DATABASE
            # every attempt of this round missed on a database-shaped scenario
            switch = db_misses == max_attempts and switches < max_switches
            attempts.append(
                GenerationAttempt(attempt_index, prompt, achieved, deltas, scenario.scenario_id,
                                  VERDICT_DATABASE_SWITCH if switch else VERDICT_RETRY))
            for hint in scenario.hint_texts:
                if hint not in hints:
                    hints.append(hint)
            if switch:
                database = switch_database(database, scenario, gaps, dims)
                break
        else:
            # attempt budget exhausted without a database switch
            return GenerationReport(target.target_id, None, attempts, switches)


def bad_windows(problems: list[SelectionProblem], roots: list[np.ndarray | None],
                threshold: float, jobs: int = 1) -> list[int]:
    """Indices of the windows whose optimum `selector.exceeds` the threshold,
    from their problems and roots as `selector.relax_windows` returns them,
    decided by `selector.map_windows` on `jobs` threads."""
    found = map_windows(lambda problem, root: exceeds(problem, root, threshold),
                        problems, roots, jobs)
    return [problem.window_index for problem, bad in zip(problems, found) if bad]


def augment_catalog(
    trace: Trace,
    bad: list[int],
    window_targets: WindowTargets,
    catalog: Catalog,
    provider: Provider,
    executor: Executor,
    cfg: Config,
    seed: int,
) -> tuple[Catalog, list[GenerationReport]]:
    """Generate one component per cluster (`augment.k` of them) of the
    queries in the `bad` windows: those whose optimum exceeds
    `augment.bad_window_threshold`, by `bad_windows` of their relaxation.

    Each accepted component is appended to a new catalog; the input catalog,
    and the selection problems that share its columns, stay as they are.
    Appending only ever enlarges the candidate set, so re-solving any window
    with the returned catalog cannot worsen its objective.
    """
    if not bad:
        return catalog, []
    # the queries that arrive inside a bad window, in trace order
    window = (trace.arrival_ts - window_targets.start_ts) // window_targets.len_ms
    hit = np.flatnonzero(np.isin(window, bad))
    if not hit.size:
        return catalog, []
    targets = _cluster_targets(trace.features[hit], window[hit].tolist(), cfg["augment.k"],
                               seed)
    augmented = catalog
    reports = []
    serial = catalog.origin.count(ORIGIN_AUGMENTED)
    for target in targets:
        report = generate_component(
            target, augmented, provider, executor, cfg,
            component_id=f"aug-{serial:03d}",
        )
        reports.append(report)
        if report.accepted:
            augmented = augmented.appended(report.component)
            serial += 1
        else:
            log.warning(
                "generation failed for %s after %d attempts",
                target.target_id, len(report.attempts),
            )
    return augmented, reports


def write_attempt_log(reports: list[GenerationReport], path) -> None:
    """One JSON object per attempt, in generation order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for report in reports:
            for attempt in report.attempts:
                record = {"target_id": report.target_id}
                record.update(attempt.log_record())
                fh.write(json.dumps(record, sort_keys=True) + "\n")
