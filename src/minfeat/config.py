"""Flat JSON configuration with environment-variable overrides.

One flat object carries every pipeline and trainer key. Precedence, low
to high: built-in defaults, config file, MINFEAT_<KEY> environment
variables, explicit CLI flags. Unknown keys in the file or matching
environment variables are hard errors, so typos never pass silently.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, fields
from typing import Any, Mapping

from .errors import ConfigError, InputError, checked_value, is_int_field
from .model import TrainConfig
from .pipeline import CidrConfig

ENV_PREFIX = "MINFEAT_"

# Keys and their int/float types come from the config dataclasses; seed
# is shared by both.
_CIDR_KEYS = tuple(f.name for f in fields(CidrConfig))
_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))
_INT_KEYS = {f.name for cls in (CidrConfig, TrainConfig) for f in fields(cls) if is_int_field(f)}

ALL_KEYS = tuple(sorted(set(_CIDR_KEYS) | set(_TRAIN_KEYS)))


def _defaults() -> dict[str, Any]:
    # seed is a field of both, with one default.
    return {**asdict(CidrConfig()), **asdict(TrainConfig())}


def _coerce(key: str, value: Any) -> Any:
    """The value of a known key, type-checked and converted to int or float."""
    integer = key in _INT_KEYS
    return (int if integer else float)(checked_value(key, value, integer))


def _coerce_env(key: str, raw: str) -> Any:
    try:
        value = int(raw) if key in _INT_KEYS else float(raw)
    except ValueError as exc:
        raise ConfigError(f"environment override {ENV_PREFIX}{key.upper()}={raw!r}: {exc}") from exc
    return _coerce(key, value)


def load_config(path: str | None = None, env: Mapping[str, str] | None = None) -> dict[str, Any]:
    """Resolve the flat config mapping from defaults, file, and environment."""
    values = _defaults()

    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a flat JSON object")
        for key, value in raw.items():
            if key not in ALL_KEYS:
                raise ConfigError(f"unknown config key {key!r}; valid keys: {list(ALL_KEYS)}")
            values[key] = _coerce(key, value)

    env = os.environ if env is None else env
    for key in ALL_KEYS:
        env_name = ENV_PREFIX + key.upper()
        if env_name in env:
            values[key] = _coerce_env(key, env[env_name])
    return values


def cidr_config_from(values: Mapping[str, Any]) -> CidrConfig:
    return CidrConfig(**{key: values[key] for key in _CIDR_KEYS})


def train_config_from(values: Mapping[str, Any]) -> TrainConfig:
    return TrainConfig(**{key: values[key] for key in _TRAIN_KEYS})
