"""Semantic exception hierarchy shared across the package.

Everything user-facing derives from :class:`CmcorrError`.  Input and
validation problems additionally derive from :class:`InputError` (itself a
``ValueError``) so the CLI can map them to a single exit code, while
:class:`NumericalFailure` marks breached numerical contracts.
"""


class CmcorrError(Exception):
    """Base class for every error raised by this package."""


class InputError(CmcorrError, ValueError):
    """Inputs violate a contract: bad shapes, values, or configuration."""


class NumericalFailure(CmcorrError):
    """A numerical routine broke its accuracy contract (e.g. SVD)."""


# --- order construction ---


class CycleDetected(InputError):
    """The transitive closure of the given pairs contains a cycle."""


class DuplicateLabel(InputError):
    """Alphabet labels must be distinct."""


class LengthMismatch(InputError):
    """A sequence does not match the expected alphabet size."""


class SizeTooLarge(InputError):
    """Input exceeds the guard for an exhaustive enumeration."""


# --- distributions ---


class NegativeMass(InputError):
    """A probability entry is negative."""


class MassNotOne(InputError):
    """Total probability mass is not 1 within tolerance."""


class ShapeMismatch(InputError):
    """Matrix or sequence shapes are inconsistent."""


class DegenerateMarginal(InputError):
    """Fewer than two symbols carry positive mass on one side."""


class EmptyInput(InputError):
    """An input collection is empty."""


class NonFiniteValue(InputError):
    """A numeric input is NaN or infinite."""


# --- correlation measures ---


class MissingValues(InputError):
    """The operation needs numeric embeddings and none are present."""


class ZeroVariance(InputError):
    """A variance required to be positive is zero."""


class NotMonotoneComparator(InputError):
    """A pair comparator violates its monotonicity properties."""


class ZeroMarginal(InputError):
    """A marginal probability is zero where positivity is required."""


# --- enumeration guards ---


class EnumerationTooLarge(InputError):
    """The face enumeration exceeds the engine's ``FACE_LIMIT``."""


class SOutOfRange(InputError):
    """A moment-generating-function argument is too close to zero."""


class DegenerateDenominator(InputError):
    """A normalizing denominator is zero or non-finite."""


class CapExceeded(InputError):
    """The requested verification exceeds the exact-enumeration cap."""
