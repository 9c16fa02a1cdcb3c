"""Flat key/value configuration shared by the CLI subcommands.

The file format is one `key = value` per line, `#` comments, UTF-8.  Lists
are comma-separated.  Keys are named exactly as the modules name them so a
config diff reads like a parameter change log.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .features import MODES, FeatureSchema

DEFAULTS: dict[str, str] = {
    "metrics": "cpu_time_ms, scanned_bytes",
    "operators": "filter_num, aggregate_num, join_num, sort_num",
    "mode": "counts",
    "window_ms": "300000",
    "interval_ms": "30000",
    "cores": "8",
    "y": "10",
    "z": "",
    "z_per_query_factor": "2.0",
    "denom_floor": "1.0",
    "solver.node_limit": "20000",
    "solver.time_limit_s": "",
    "sa.no_improve": "100",
    "sa.max_steps": "3000",
    "sa.move_granularity_ms": "1000",
    "metrics_eps": "1e-9",
    "augment.k": "3",
    "augment.examples_per_side": "3",
    "augment.accept_threshold": "0.15",
    "augment.max_attempts": "5",
    "augment.max_db_switches": "2",
    "augment.bad_window_threshold": "0.2",
    "augment.cpu_dimension": "cpu_time_ms",
    "augment.sb_dimension": "scanned_bytes",
    "provider.kind": "mock",
    "provider.endpoint": "",
    "provider.timeout_ms": "30000",
    "seed": "0",
}
FLOOR_KEYS = ("denom_floor", "metrics_eps")  # relative-error floors: positive, or x / 0


@dataclass
class Config:
    values: dict[str, str] = field(default_factory=dict)

    def get(self, key: str) -> str:
        if key in self.values:
            return self.values[key]
        if key in DEFAULTS:
            return DEFAULTS[key]
        raise ConfigError(f"unknown config key {key!r}")

    def get_int(self, key: str) -> int:
        raw = self.get(key)
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: expected integer, got {raw!r}") from exc

    def get_float(self, key: str) -> float:
        raw = self.get(key)
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: expected number, got {raw!r}") from exc

    def get_optional_int(self, key: str) -> int | None:
        raw = self.get(key).strip()
        return int(raw) if raw else None

    def get_optional_float(self, key: str) -> float | None:
        raw = self.get(key).strip()
        return float(raw) if raw else None

    def get_list(self, key: str) -> tuple[str, ...]:
        return tuple(part.strip() for part in self.get(key).split(",") if part.strip())

    def set(self, key: str, value) -> None:
        self.values[key] = str(value)

    def schema(self) -> FeatureSchema:
        return FeatureSchema(metrics=self.get_list("metrics"),
                             operators=self.get_list("operators"))

    def mode(self) -> str:
        mode = self.get("mode")
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        return mode


def load_config(path) -> Config:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            values[key.strip()] = value.strip()
    unknown = set(values) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    config = Config(values)
    for key in FLOOR_KEYS:
        if not config.get_float(key) > 0:  # NaN too
            raise ConfigError(f"config key {key!r}: expected a positive number, "
                              f"got {config.get(key)!r}")
    return config


def write_config(config: Config, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in DEFAULTS:
            fh.write(f"{key} = {config.get(key)}\n")
