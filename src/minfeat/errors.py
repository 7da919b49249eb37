"""Exception taxonomy shared across the package, and the config type check.

CLI exit-code mapping: InputError and its subclasses exit with 2,
InternalError with 70.
"""

import math
import numbers
from dataclasses import fields
from typing import Any


class MinfeatError(Exception):
    """Base class for all package errors."""


class InputError(MinfeatError):
    """Caller-correctable problem: bad file, bad argument, bad value."""


class ConfigError(InputError):
    """Invalid, unknown, or out-of-range configuration."""


class NumericError(InputError):
    """Non-finite values where finite numbers are required."""


class InternalError(MinfeatError):
    """An internal invariant failed; indicates a bug, not a user error."""


def checked_value(key: str, value: Any, integer: bool) -> Any:
    """value itself if it is an integer, or (integer=False) a finite number.

    bool is neither. Anything else raises ConfigError naming key.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")
    try:
        finite = integer or math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    return value


def is_int_field(field) -> bool:
    """Whether a config dataclass field is annotated int (else float)."""
    return field.type in ("int", int)


def check_field_types(config: Any) -> None:
    """checked_value on every field of a config dataclass, by its annotation."""
    for field in fields(config):
        checked_value(field.name, getattr(config, field.name), is_int_field(field))
