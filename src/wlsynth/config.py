"""Flat key/value configuration shared by the CLI subcommands.

The file format is one `key = value` per line, `#` comments, UTF-8.  Lists
are comma-separated.  `KEYS` is the only declaration of a key: its type,
default and rule.  Every key is parsed and checked once, when the config is
built, so a bad value stops a run before any stage writes; an int key (or
its CLI flag) reads as every CSV's int column does, by `trace._parse_int`.
The stage functions then read their knobs from the `Config`
(`Config()` for the defaults) and mirror none of them.
"""
from __future__ import annotations

from .errors import ConfigError, WlsynthError
from .features import MODES, FeatureSchema
from .trace import _parse_int

POSITIVE = "positive"
NON_NEGATIVE = "non-negative"

# key -> (type, typed default, rule).  A tuple-typed key is a comma list; a
# key whose default is None is optional, and an empty value leaves it unset.
# The rule is POSITIVE, NON_NEGATIVE, a tuple of the allowed values, or None.
# Rules over two keys stay with the stage that reads them.
KEYS: dict[str, tuple[type, object, object]] = {
    "metrics": (tuple, ("cpu_time_ms", "scanned_bytes"), None),
    "operators": (tuple, ("filter_num", "aggregate_num", "join_num", "sort_num"), None),
    "mode": (str, "counts", MODES),
    "window_ms": (int, 300000, POSITIVE),
    "interval_ms": (int, 30000, POSITIVE),
    "cores": (int, 8, POSITIVE),
    "y": (int, 10, POSITIVE),
    "z": (int, None, POSITIVE),
    "z_per_query_factor": (float, 2.0, POSITIVE),
    # relative-error floors: positive, or x / 0
    "denom_floor": (float, 1.0, POSITIVE),
    "solver.node_limit": (int, 20000, POSITIVE),
    "sa.no_improve": (int, 100, POSITIVE),
    "sa.max_steps": (int, 3000, POSITIVE),
    "sa.move_granularity_ms": (int, 1000, POSITIVE),
    "metrics_eps": (float, 1e-9, POSITIVE),
    "augment.k": (int, 3, POSITIVE),
    "augment.examples_per_side": (int, 3, POSITIVE),
    "augment.accept_threshold": (float, 0.15, NON_NEGATIVE),
    "augment.max_attempts": (int, 5, POSITIVE),
    "augment.max_db_switches": (int, 2, NON_NEGATIVE),
    "augment.bad_window_threshold": (float, 0.2, NON_NEGATIVE),
    "augment.cpu_dimension": (str, "cpu_time_ms", None),
    "augment.sb_dimension": (str, "scanned_bytes", None),
    "provider.kind": (str, "mock", ("mock", "http")),
    "provider.endpoint": (str, "", None),
    "provider.timeout_ms": (int, 30000, POSITIVE),
    "seed": (int, 0, None),
}
_EXPECTED = {int: "an integer", float: "a finite number"}


def _resolve(key: str, raw: str):
    kind, default, rule = KEYS[key]
    if not isinstance(raw, str):
        raise ConfigError(f"config key {key!r}: expected a string, got {raw!r}")
    if default is None and not raw:
        return None
    try:
        value = (tuple(part.strip() for part in raw.split(",") if part.strip())
                 if kind is tuple else _parse_int(raw, 0, key) if kind is int else kind(raw))
        if value in (float("inf"), -float("inf")):  # inf, or past float64 such as 1e400
            raise ValueError
    except (ValueError, WlsynthError):
        raise ConfigError(f"config key {key!r}: expected {_EXPECTED[kind]}, "
                          f"got {raw!r}") from None
    if rule == POSITIVE and not value > 0:  # NaN too
        raise ConfigError(f"config key {key!r}: expected a positive number, got {raw!r}")
    if rule == NON_NEGATIVE and not value >= 0:  # NaN too
        raise ConfigError(f"config key {key!r}: expected a number >= 0, got {raw!r}")
    if isinstance(rule, tuple) and value not in rule:
        raise ConfigError(f"config key {key!r}: expected one of {rule}, got {raw!r}")
    return value


class Config:
    """Every key of KEYS at its typed value: the `raw` strings given are
    parsed and checked, the other keys take their defaults."""

    def __init__(self, raw: dict[str, str] | None = None):
        raw = raw or {}
        unknown = set(raw) - set(KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        self.values = {key: _resolve(key, raw[key]) if key in raw else default
                       for key, (_, default, _) in KEYS.items()}

    def __getitem__(self, key: str):
        if key not in self.values:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def get_int(self, key: str) -> int:
        """`self[key]`; bench/child.py reads `cores` through this name."""
        return self[key]

    def schema(self) -> FeatureSchema:
        return FeatureSchema(metrics=self["metrics"], operators=self["operators"])


def load_config(path=None, overrides: dict | None = None) -> Config:
    """The config file at `path` (defaults when None), with each override
    that is not None (the CLI flags) taking the place of the file's value."""
    raw: dict[str, str] = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            raw[key.strip()] = value.strip()
    raw.update((key, str(value)) for key, value in (overrides or {}).items()
               if value is not None)
    return Config(raw)
