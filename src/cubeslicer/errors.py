"""Domain error types shared across the package."""


class SlicerError(Exception):
    """Base class for every error raised by cubeslicer."""


class DimensionZero(SlicerError):
    """A coefficient vector of length zero was supplied."""


class AllZeroCoefficients(SlicerError):
    """A hyperplane needs at least one nonzero coefficient."""


class NonFiniteScalar(SlicerError):
    """Float-kind scalar was NaN or infinite."""


class MalformedInput(SlicerError):
    """An input scalar or document is not what the schema expects."""


class DimensionMismatch(SlicerError):
    """Objects of incompatible dimensions were combined."""


class UnknownConstruction(SlicerError):
    """Construction name is not one of the known families."""


class NonFiniteEntry(SlicerError):
    """Vector entry was NaN or infinite."""


class OverlappingSupports(SlicerError):
    """Decomposition parts claim the same coordinate twice."""


class MixedScalarKinds(SlicerError):
    """A configuration must not mix exact and float planes."""


class UnnormalizedPlane(SlicerError):
    """Plane could not be normalized to unit length in float arithmetic."""


class DimensionTooSmall(SlicerError):
    """A dimension or plane count below what the operation needs: the sampler
    needs n >= 2 (log n must be positive) and m >= 1, random planes n >= 1."""


class RetriesExhausted(SlicerError):
    """Rejection sampling hit the retry cap before acceptance."""


class BiasOutOfRange(SlicerError):
    """Bias vector must satisfy max_i |p_i| <= 1."""


class BiasTooLarge(SlicerError):
    """Anti-concentration bounds require max_i |p_i| <= 1/2."""


class DimensionTooLargeForOracle(SlicerError):
    """Exhaustive 2^n oracle refuses dimensions above its cap."""


class NegativeAlpha(SlicerError):
    """Concentration radius alpha must be nonnegative."""


class DimensionTooLarge(SlicerError):
    """Exhaustive verification refuses dimensions above its cap."""


class BoundViolation(SlicerError):
    """A computed quantity broke a bound that the mathematics guarantees."""
