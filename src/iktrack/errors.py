"""Exception hierarchy shared across the package."""


class IkTrackError(Exception):
    """Base class for all iktrack errors."""


class NotARotation(IkTrackError):
    """Matrix failed the orthonormality / positive-determinant check."""


class NotSkewSymmetric(IkTrackError):
    """Matrix handed to vee() is not skew-symmetric within tolerance."""


class SingularMatrix(IkTrackError):
    """Matrix (or its Gram matrix) is not invertible."""


class DegenerateMatrix(IkTrackError):
    """Matrix has near-zero singular values or non-positive determinant."""


class UnknownFrame(IkTrackError):
    """Requested frame name does not exist in the model."""


class ParseError(IkTrackError):
    """Malformed input document; carries the offending position."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(IkTrackError):
    """Well-formed document violating a named model rule."""

    def __init__(self, rule, message):
        super().__init__(f"{rule}: {message}")
        self.rule = rule


class RankDeficient(IkTrackError):
    """Undamped normal equations are singular."""


class QPInfeasible(IkTrackError):
    """QP constraints admit no solution."""


class NonFiniteSolution(IkTrackError):
    """A solve overflowed to a non-finite result on finite input."""


class StaleSample(IkTrackError):
    """Sample timestamp violates the fixed-rate contract."""


class SchemaMismatch(IkTrackError):
    """Stream/sample target counts do not match the model declaration."""


class SpecInfeasible(IkTrackError):
    """Trajectory spec amplitudes violate model limits."""


class DecompositionError(IkTrackError):
    """Kinematic tree cannot be split into target-bounded subsystems."""
