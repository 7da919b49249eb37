"""Flat JSON configuration with environment-variable overrides.

One flat object carries every pipeline and trainer key. Precedence, low
to high: built-in defaults, config file, MINFEAT_<KEY> environment
variables, explicit CLI flags. Unknown keys in the file or matching
environment variables are hard errors, so typos never pass silently.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Mapping

from .errors import ConfigError, InputError
from .model import TrainConfig
from .pipeline import CidrConfig

ENV_PREFIX = "MINFEAT_"

# key -> (python type, belongs-to) ; seed is shared by both configs
_FLOAT_KEYS = ("beta", "t", "epsilon", "learning_rate")
_INT_KEYS = ("n_iter", "steps", "q", "seed", "epochs", "batch_size")

_CIDR_KEYS = ("beta", "t", "epsilon", "n_iter", "steps", "q", "seed")
_TRAIN_KEYS = ("learning_rate", "epochs", "batch_size", "seed")

ALL_KEYS = tuple(sorted(set(_CIDR_KEYS) | set(_TRAIN_KEYS)))


def _defaults() -> dict[str, Any]:
    cidr = CidrConfig()
    train = TrainConfig()
    values: dict[str, Any] = {key: getattr(cidr, key) for key in _CIDR_KEYS}
    for key in _TRAIN_KEYS:
        if key != "seed":
            values[key] = getattr(train, key)
    return values


def _finite(key: str, value: float) -> float:
    # JSON's Infinity and NaN literals and float("inf") would otherwise pass.
    if not math.isfinite(value):
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    return value


def _coerce(key: str, value: Any) -> Any:
    if key in _INT_KEYS:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
        return int(value)
    if key in _FLOAT_KEYS:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
        return _finite(key, float(value))
    raise ConfigError(f"unknown config key {key!r}; valid keys: {list(ALL_KEYS)}")


def _coerce_env(key: str, raw: str) -> Any:
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return _finite(key, float(raw))
    except ValueError as exc:
        raise ConfigError(f"environment override {ENV_PREFIX}{key.upper()}={raw!r}: {exc}") from exc
    raise ConfigError(f"unknown config key {key!r}; valid keys: {list(ALL_KEYS)}")


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
