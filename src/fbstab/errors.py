"""Exception types shared across the package, and lookups that raise one."""

from math import isfinite
from numbers import Integral, Real


class GeometryError(Exception):
    """Base class for all geometric evaluation failures."""


class DomainError(GeometryError):
    """A field or metric was evaluated outside its domain of definition."""


class PreconditionError(GeometryError):
    """An operation was called with inputs violating its stated preconditions."""


class DegenerateSampleError(GeometryError):
    """A chart sample has a rank-deficient or badly conditioned Jacobian."""


class InvalidSampleError(GeometryError):
    """A boundary sample does not lie on the ambient boundary."""


class ProjectionError(GeometryError):
    """Newton projection onto a level set failed to converge."""


class DimensionError(GeometryError):
    """Dimensions (n, k, p) outside the range an operation supports."""


class StepFailureError(GeometryError):
    """Backtracking in the descent flow exhausted its halvings."""


class ConfigError(Exception):
    """Malformed configuration document or unknown catalog name."""


def required(params: dict, key: str, what: str):
    """``params[key]``, or a ``ConfigError`` naming ``what`` and the absent key."""
    if key not in params:
        raise ConfigError(f"{what} needs parameter {key!r}")
    return params[key]


def integer(params: dict, key: str, default: int, minimum: int = 0) -> int:
    """``params[key]`` (``default`` if absent), an integer of at least
    ``minimum``, or a ``ConfigError`` naming the key and the value."""
    value = params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def number(params: dict, key: str, default: float, minimum: float | None = None,
           strict: bool = False) -> float:
    """``params[key]`` (``default`` if absent), a finite real number of at least
    ``minimum`` (above it if ``strict``) where one is given, or a
    ``ConfigError`` naming the key and the value."""
    value = params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if not isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if minimum is not None and not (value > minimum if strict else value >= minimum):
        raise ConfigError(f"{key} must be a number {'>' if strict else '>='} {minimum:g}, "
                          f"got {value!r}")
    return float(value)
