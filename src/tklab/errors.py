"""Exception hierarchy for tklab."""


class TKLabError(Exception):
    """Base class for all tklab errors."""


class DimensionMismatch(TKLabError, ValueError):
    """Operands do not share a compatible (components, degrees) shape."""


class NotInnerError(TKLabError, ValueError):
    """A symbol required to be inner failed the unit-circle isometry test."""


class NotInvertibleError(TKLabError, ValueError):
    """An analytic symbol is singular somewhere on the closed disk."""


class CircleRootError(TKLabError, ValueError):
    """A polynomial root lies too close to the unit circle to split inner/outer."""


class OrthonormalityError(TKLabError, ValueError):
    """A vector family required to be orthonormal is not, within tolerance."""


class ContainmentError(TKLabError, ValueError):
    """A subspace expected to contain another does not, within tolerance."""


class InconclusiveCutError(TKLabError, ValueError):
    """A rank cut at or above the largest singular value of a nonzero matrix
    declares every direction null and so decides nothing."""


class FrameDeficientError(TKLabError, ValueError):
    """Coordinate extraction could not reconstruct the input within tolerance."""


class ScenarioParseError(TKLabError, ValueError):
    """A scenario file is not parseable JSON or misses required structure."""


class ScenarioValidationError(TKLabError, ValueError):
    """A scenario file parsed but violates its declared constraints."""
