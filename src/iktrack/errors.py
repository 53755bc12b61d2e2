"""Exception hierarchy shared across the package, and the range check of
numeric settings."""

import math

import numpy as np

# concrete number types: an isinstance check against numbers.Real costs about
# 0.5 us, paid on every tracking step by LeastSquaresQP's damping check
_REAL = (int, float, np.integer, np.floating)
_INTEGRAL = (int, np.integer)


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


class InvalidSetting(IkTrackError, ValueError):
    """A solver or trajectory setting outside its admissible range. It is
    also a ``ValueError``, the type callers of the settings classes catch."""


def check_setting(name: str, value, zero_ok: bool = False, integer: bool = False):
    """Raise ``InvalidSetting`` naming ``name`` unless ``value`` is a finite
    number (an integer with ``integer``) above zero, or at zero with
    ``zero_ok``. The range test is negated, so NaN fails it; a bool is not a
    number here."""
    if (isinstance(value, bool) or not isinstance(value, _INTEGRAL if integer else _REAL)
            or not ((0.0 <= value if zero_ok else 0.0 < value) and value < math.inf)):
        sign = "non-negative" if zero_ok else "positive"
        noun = "integer" if integer else "finite number"
        raise InvalidSetting(f"{name} must be a {sign} {noun}, got {value!r}")
