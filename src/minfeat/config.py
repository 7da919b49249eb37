"""Flat JSON configuration.

One flat object carries every pipeline and trainer key. Precedence, low
to high: built-in defaults, the config file, the CLI's --seed flag.
Nothing else is read, so a run's config is the one its command line
names. Unknown keys in the file are hard errors, so typos never pass
silently.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from typing import Any, Mapping

from .errors import ConfigError, InputError, checked_value, is_int_field
from .files import read_text
from .model import TrainConfig
from .pipeline import CidrConfig

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


def load_config(path: str | None = None, env: Mapping[str, str] | None = None) -> dict[str, Any]:
    """Resolve the flat config mapping from the defaults and the file at path.

    MINFEAT_* overrides are no longer read: env must be None or empty,
    so that overrides passed in are refused, not silently ignored.
    """
    if env:
        raise TypeError("load_config no longer takes MINFEAT_* overrides; set the keys in a config file")
    values = _defaults()

    if path is not None:
        try:
            raw = json.loads(read_text(path, "config"))
        except json.JSONDecodeError as exc:
            raise InputError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a flat JSON object")
        for key, value in raw.items():
            if key not in ALL_KEYS:
                raise ConfigError(f"unknown config key {key!r}; valid keys: {list(ALL_KEYS)}")
            values[key] = _coerce(key, value)
    return values


def cidr_config_from(values: Mapping[str, Any]) -> CidrConfig:
    return CidrConfig(**{key: values[key] for key in _CIDR_KEYS})


def train_config_from(values: Mapping[str, Any]) -> TrainConfig:
    return TrainConfig(**{key: values[key] for key in _TRAIN_KEYS})
