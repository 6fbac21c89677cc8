"""Exception types raised across the package, and the field check that every
config dataclass runs when it is built."""

import sys
from dataclasses import fields

import numpy as np


class RadarTagError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(RadarTagError, ValueError):
    """Operands have incompatible shapes."""


class SingularSystemError(RadarTagError):
    """An unregularized linear system is rank-deficient at tolerance."""


class UnsupportedDegreeError(RadarTagError, ValueError):
    """No Gold construction exists (or is supported) for this LFSR degree."""


class NotPreferredPairError(RadarTagError, ValueError):
    """The polynomial pair does not yield a three-valued cross-correlation."""


class OddLengthError(RadarTagError, ValueError):
    """Zero-sum +/-1 vectors require an even length."""


class InfeasibleDimensionsError(RadarTagError, ValueError):
    """Codeword length too short for the requested delay spread."""


class TooManyTapsError(RadarTagError, ValueError):
    """More nonzero taps requested than delay bins available."""


class EmptyCodebookError(RadarTagError, ValueError):
    """A codebook needs at least one codeword; raised at construction."""


class PilotConditionViolatedError(RadarTagError):
    """Pilot symbols do not satisfy the rank conditions needed for recovery."""


class BudgetExceededError(RadarTagError):
    """A discrete enumeration would exceed the configured budget."""


class RateTooLargeError(BudgetExceededError):
    """A rate grid point implies more codewords than the enumeration budget."""


class IndexOutOfRangeError(RadarTagError, ValueError):
    """Message index does not fit in the requested bit width."""


class ConfigInvalidError(RadarTagError, ValueError):
    """Experiment configuration failed validation."""


def require(cond: bool, message: str):
    if not cond:
        raise ConfigInvalidError(message)


# Python writes an int of at most 4300 digits as text, and a config must be
# writable as JSON, so no config number may be larger
_INT_LIMIT = 10 ** 4300


def is_int(value) -> bool:
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and -_INT_LIMIT < value < _INT_LIMIT)


def is_real(value) -> bool:
    return is_int(value) or isinstance(value, (float, np.floating))


def is_finite(value) -> bool:
    return is_real(value) and -sys.float_info.max <= value <= sys.float_info.max


# a check per field annotation: "T | None" also takes None, "tuple[T, ...]" a
# list or tuple of T, and any other name (bool, str, a config class) its type
_KIND_CHECKS = {"int": is_int, "float": is_real}


def _as_kind(value, kind: str):
    """``value`` as stored: numpy scalars as Python ones, lists as tuples."""
    if kind.startswith("tuple[") and isinstance(value, (list, tuple)):
        return tuple(_as_kind(v, kind[6:-6]) for v in value)
    if not _KIND_CHECKS.get(kind, lambda v: type(v).__name__ == kind)(value):
        raise TypeError(kind)
    return value.item() if isinstance(value, np.generic) else value


def _shown(value) -> str:
    try:
        return repr(value)
    except ValueError:         # it holds an int too long to write as text
        return "a value with an int of over 4300 digits"


def check_fields(obj):
    """Check each field of a frozen config dataclass against its annotation."""
    for f in fields(obj):
        value, kind = getattr(obj, f.name), f.type.removesuffix(" | None")
        if value is not None or kind == f.type:
            try:
                object.__setattr__(obj, f.name, _as_kind(value, kind))
            except TypeError:
                raise ConfigInvalidError(
                    f"{f.name} must be {kind}, got {_shown(value)}") from None
