"""Semantic exception hierarchy, and the one rule for count parameters.

Public functions raise these instead of bare ValueError so callers can
distinguish contract violations from genuine bugs.
"""

import operator


class FactoidLabError(Exception):
    """Base class for all errors raised by this package."""


class DistributionError(FactoidLabError, ValueError):
    """Invalid weights, indices, or parameters when building a distribution."""


class UniverseMismatchError(FactoidLabError, ValueError):
    """Two objects that must share a factoid universe do not."""


class PartitionError(FactoidLabError, ValueError):
    """Blocks are empty, overlapping, or do not cover the universe."""


class UnsupportedModelError(FactoidLabError, ValueError):
    """Operation requested for a world model it is not defined on."""


class InsufficientDataError(FactoidLabError, ValueError):
    """Not enough samples or trials for the requested computation."""


class ConfigError(FactoidLabError, ValueError):
    """Invalid experiment configuration (bad key, type, or invariant)."""


def check_count(
    value, name: str, low: int, high: int | None = None, unit: str = "", error=DistributionError
) -> int:
    """value as an int, or `error` unless it is an integer in [low, high].

    Integers are taken through operator.index: ints and numpy integers
    pass, while floats (NaN and 2.0 among them) and strings are refused
    rather than truncated or compared. A unit marks high as a resource
    limit ("{name} {value} exceeds the limit of {high} {unit}"); without
    one, [low, high] is the parameter's domain.
    """
    try:
        count = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if high is not None and not unit and not low <= count <= high:
        raise error(f"{name} {count} must be in [{low}, {high}]")
    if count < low:
        raise error(f"{name} must be >= {low}, got {count}")
    if high is not None and count > high:
        raise error(f"{name} {count} exceeds the limit of {high} {unit}")
    return count
