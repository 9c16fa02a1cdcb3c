from importlib import resources

import pytest

from wlsynth.config import KEYS, Config, load_config
from wlsynth.errors import ConfigError

DEMO_CONFIG = resources.files("wlsynth.data") / "demo_config.txt"


class TestConfig:
    def test_defaults(self):
        cfg = Config()
        assert cfg["window_ms"] == 300000
        assert cfg["interval_ms"] == 30000
        assert cfg["y"] == 10
        assert cfg["z"] is None
        assert cfg["metrics"] == ("cpu_time_ms", "scanned_bytes")
        assert cfg["mode"] == "counts"

    def test_set_overrides_default(self):
        assert Config({"cores": "16"})["cores"] == 16

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            Config()["no_such_key"]

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError, match="'cores'"):
            Config({"cores": "eight"})

    @pytest.mark.parametrize("key", [key for key, (kind, _, _) in KEYS.items() if kind is int])
    @pytest.mark.parametrize("raw, value", [("8.0", 8), ("8", 8), ("3e5", 300000),
                                            ("800e-2", 8)])
    def test_int_keys_read_an_integral_number(self, key, raw, value):
        """An int key reads its text as every CSV's int column does."""
        assert Config({key: raw})[key] == value

    @pytest.mark.parametrize("key", [key for key, (kind, _, _) in KEYS.items() if kind is int])
    @pytest.mark.parametrize("bad", ["8.5", "1e400", "nan", "1e-3", "9223372036854775808"])
    def test_int_keys_reject_what_is_no_int64(self, key, bad):
        with pytest.raises(ConfigError, match=f"^config key '{key}': expected an integer, "
                                              f"got '{bad}'$"):
            Config({key: bad})

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="'mode'"):
            Config({"mode": "percentages"})

    @pytest.mark.parametrize("key, bad", [("augment.max_db_switches", "-1"),
                                          ("augment.accept_threshold", "-0.1"),
                                          ("augment.accept_threshold", "nan")])
    def test_non_negative_rule(self, key, bad):
        assert Config({key: "0"})[key] == 0
        with pytest.raises(ConfigError, match=f"'{key}': expected a number >= 0"):
            Config({key: bad})

    @pytest.mark.parametrize("key", [key for key, (kind, _, _) in KEYS.items() if kind is float])
    @pytest.mark.parametrize("bad", ["inf", "-inf", "Infinity", "1e400", "-1e400"])
    def test_float_keys_must_be_finite(self, key, bad):
        with pytest.raises(ConfigError, match=f"'{key}': expected a finite number, got '{bad}'"):
            Config({key: bad})

    def test_empty_time_limit_is_no_limit(self):
        assert Config({"solver.time_limit_s": ""})["solver.time_limit_s"] is None

    @pytest.mark.parametrize("key, value", [("y", 6.7), ("cores", True),
                                            ("metrics", ("a", "b"))])
    def test_non_string_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}': expected a string"):
            Config({key: value})

    def test_schema_from_lists(self):
        schema = Config({"metrics": "a, b", "operators": "x"}).schema()
        assert schema.metrics == ("a", "b")
        assert schema.operators == ("x",)


class TestConfigFile:
    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\n\nseed = 9\n")
        assert load_config(path)["seed"] == 9

    def test_override_replaces_file_value(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("cores = 4\ny = 3\n")
        cfg = load_config(path, {"cores": 16, "y": None})
        assert (cfg["cores"], cfg["y"]) == (16, 3)

    def test_unknown_key_in_file_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("sneaky = 1\n")
        with pytest.raises(ConfigError, match="sneaky"):
            load_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(path)

    def test_demo_config_lists_every_key_at_its_default(self):
        keys = [line.partition("=")[0].strip()
                for line in DEMO_CONFIG.read_text(encoding="utf-8").splitlines()
                if line.strip() and not line.startswith("#")]
        assert sorted(keys) == sorted(KEYS)
        cfg = load_config(DEMO_CONFIG)
        assert {key: cfg[key] for key in KEYS} == {key: KEYS[key][1] for key in KEYS}
