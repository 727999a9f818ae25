"""Flat key-value config files for PoolConfig overrides.

Format: one `key = value` per line, `#` comments, blank lines ignored.
Keys are PoolConfig field names; values are parsed by the field's type.
"""

from __future__ import annotations

import dataclasses

from .population import ConfigError, PoolConfig

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}

# each field parses as the type of its default; PoolConfig fills gaussian_std's None in
_KINDS = {name: type(value) for name, value in dataclasses.asdict(PoolConfig()).items()}


def _parse_value(raw: str, kind):
    if kind is bool:
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    return kind(raw)


def parse_overrides(text: str) -> dict:
    """Parse config text into a PoolConfig kwargs dict."""
    overrides = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _KINDS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        try:
            overrides[key] = _parse_value(raw.strip(), _KINDS[key])
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    return overrides


def load_config(path, base: PoolConfig | None = None) -> PoolConfig:
    """PoolConfig from a file, on top of `base` (or the defaults)."""
    with open(path) as fh:
        overrides = parse_overrides(fh.read())
    fields = {}
    if base is not None:
        fields = {f.name: getattr(base, f.name) for f in dataclasses.fields(PoolConfig)}
    fields.update(overrides)
    return PoolConfig(**fields)


def config_lines(config: PoolConfig) -> list[str]:
    """Every field in config-file syntax (round-trips through parsing)."""
    out = []
    for f in dataclasses.fields(PoolConfig):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        out.append(f"{f.name} = {value}")
    return out
