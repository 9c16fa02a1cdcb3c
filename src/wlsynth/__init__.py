"""Synthesize runnable workloads whose replayed metrics track a target trace."""

from .augmenter import HttpProvider, MockProvider, augment_catalog
from .catalog import (
    Catalog,
    DatabaseDescriptor,
    SimulatedExecutor,
    WorkloadComponent,
    load_catalog,
    profile_query,
    save_catalog,
)
from .config import Config, load_config
from .errors import (
    ConfigError,
    ProfilingError,
    ProviderError,
    SchemaError,
    SolverError,
    TraceParseError,
    ValidationError,
    WlsynthError,
)
from .features import MODE_COUNTS, MODE_TIME_SHARES, FeatureSchema, PerformanceFeature
from .metrics import FidelityReport, gmape, gmqe, mae, report
from .scheduler import (
    AnnealResult,
    Schedule,
    ScheduleEntry,
    assign_timestamps,
    random_schedule,
    simulate_processor_sharing,
)
from .selector import (
    ONE_TO_MANY,
    ONE_TO_ONE,
    SelectionPlan,
    SelectionProblem,
    build_problem,
    match_query,
    solve_all_windows,
    solve_window,
)
from .simulator import replay
from .trace import (
    IntervalTargets,
    QueryRecord,
    Trace,
    WindowTargets,
    build_targets,
    export_trace,
    ingest_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AnnealResult",
    "Catalog",
    "Config",
    "ConfigError",
    "DatabaseDescriptor",
    "FeatureSchema",
    "FidelityReport",
    "HttpProvider",
    "IntervalTargets",
    "MODE_COUNTS",
    "MODE_TIME_SHARES",
    "MockProvider",
    "ONE_TO_MANY",
    "ONE_TO_ONE",
    "PerformanceFeature",
    "ProfilingError",
    "ProviderError",
    "QueryRecord",
    "Schedule",
    "ScheduleEntry",
    "SchemaError",
    "SelectionPlan",
    "SelectionProblem",
    "SimulatedExecutor",
    "SolverError",
    "Trace",
    "TraceParseError",
    "ValidationError",
    "WindowTargets",
    "WlsynthError",
    "WorkloadComponent",
    "assign_timestamps",
    "augment_catalog",
    "build_problem",
    "build_targets",
    "export_trace",
    "gmape",
    "gmqe",
    "ingest_trace",
    "load_catalog",
    "load_config",
    "mae",
    "match_query",
    "profile_query",
    "random_schedule",
    "replay",
    "report",
    "save_catalog",
    "simulate_processor_sharing",
    "solve_all_windows",
    "solve_window",
]
