"""Exception types raised across the package."""


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
