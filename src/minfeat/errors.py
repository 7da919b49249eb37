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


def check_field_types(config: Any) -> None:
    """Check every field of a config dataclass against its annotation.

    An int field takes an integer and a float field a finite number; bool
    is neither, and anything else raises ConfigError naming the field. A
    float field given an integer holds it as a float afterwards, so a
    config and its echo read the same whether a file wrote 1 or 1.0.
    """
    for field in fields(config):
        key, value = field.name, getattr(config, field.name)
        integer = field.type in ("int", int)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
            kind = "an integer" if integer else "a number"
            raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")
        if not integer:
            try:
                number = float(value)
            except OverflowError:  # an int too large for a float
                number = math.inf
            if not math.isfinite(number):
                raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
            object.__setattr__(config, key, number)  # the config dataclasses are frozen
