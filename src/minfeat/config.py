"""Flat JSON configuration.

One flat object carries every pipeline and trainer key. Precedence, low
to high: built-in defaults, the config file, the CLI's --seed flag.
Nothing else is read, so a run's config is the one its command line
names. Unknown keys in the file are hard errors, so typos never pass
silently. load_config checks every key through both config dataclasses,
so a file is valid for every command or for none.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from typing import Any, Mapping

from .errors import ConfigError
from .files import parse_json, read_text
from .model import TrainConfig
from .pipeline import CidrConfig

# Keys come from the config dataclasses; seed is shared by both.
_CIDR_KEYS = tuple(f.name for f in fields(CidrConfig))
_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))

ALL_KEYS = tuple(sorted(set(_CIDR_KEYS) | set(_TRAIN_KEYS)))


def load_config(path: str | None = None, env: Mapping[str, str] | None = None) -> dict[str, Any]:
    """Resolve the flat config mapping from the defaults and the file at path.

    Every value is checked by CidrConfig and TrainConfig, and comes back
    in their canonical form (an integer given for a float key is a float).
    MINFEAT_* overrides are no longer read: env must be None or empty,
    so that overrides passed in are refused, not silently ignored.
    """
    if env:
        raise TypeError("load_config no longer takes MINFEAT_* overrides; set the keys in a config file")
    raw = {} if path is None else parse_json(read_text(path, "config"), "config")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat JSON object")
    for key in raw:
        if key not in ALL_KEYS:
            raise ConfigError(f"unknown config key {key!r}; valid keys: {list(ALL_KEYS)}")
    # seed is a field of both: the file's seed, or their one default, feeds each.
    cidr = CidrConfig(**{key: raw[key] for key in _CIDR_KEYS if key in raw})
    train = TrainConfig(**{key: raw[key] for key in _TRAIN_KEYS if key in raw})
    return {**asdict(cidr), **asdict(train)}


def cidr_config_from(values: Mapping[str, Any]) -> CidrConfig:
    return CidrConfig(**{key: values[key] for key in _CIDR_KEYS})


def train_config_from(values: Mapping[str, Any]) -> TrainConfig:
    return TrainConfig(**{key: values[key] for key in _TRAIN_KEYS})
