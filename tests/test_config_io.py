"""Flat key=value config files."""

import pytest

from tea.config_io import config_lines, load_config, parse_overrides
from tea.population import ConfigError, PoolConfig


class TestParseOverrides:
    def test_basic(self):
        overrides = parse_overrides(
            """
            # tuning
            band_width = 0.5
            clone_factor = 3
            shortening_enabled = false
            gaussian_mean = 1.2   # inline comment
            """
        )
        assert overrides == {
            "band_width": 0.5,
            "clone_factor": 3,
            "shortening_enabled": False,
            "gaussian_mean": 1.2,
        }

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_overrides("pool_size = 3")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_overrides("band_width 0.5")

    @pytest.mark.parametrize("raw,expected", [("true", True), ("0", False), ("Yes", True)])
    def test_booleans(self, raw, expected):
        assert parse_overrides(f"shortening_enabled = {raw}") == {"shortening_enabled": expected}

    def test_bad_boolean(self):
        with pytest.raises(ConfigError):
            parse_overrides("shortening_enabled = maybe")

    @pytest.mark.parametrize("line", ["init_size = 1.5", "band_width = wide"])
    def test_unparseable_value_names_line(self, line):
        with pytest.raises(ConfigError, match="line 2"):
            parse_overrides(f"# tuning\n{line}\n")


class TestLoadConfig:
    def test_overrides_on_base(self, tmp_path):
        path = tmp_path / "tune.cfg"
        path.write_text("clone_factor = 5\n")
        base = PoolConfig(band_width=0.5, gaussian_mean=1.2)
        config = load_config(path, base=base)
        assert config.clone_factor == 5
        assert config.band_width == 0.5
        assert config.gaussian_mean == 1.2

    def test_defaults_without_base(self, tmp_path):
        path = tmp_path / "tune.cfg"
        path.write_text("min_pool = 30\n")
        config = load_config(path, PoolConfig())
        assert config.min_pool == 30
        assert config.band_width == PoolConfig().band_width


class TestRoundTrip:
    def test_config_lines_reparse_to_same_config(self):
        original = PoolConfig(
            band_width=0.5,
            gaussian_mean=1.2,
            gaussian_std=0.45,
            clone_factor=3,
            shortening_enabled=False,
        )
        reparsed = PoolConfig(**parse_overrides("\n".join(config_lines(original))))
        assert reparsed == original
