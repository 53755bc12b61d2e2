"""Exception hierarchy shared across the package, and the one rule of what
counts as a number: in a setting, a model document, a hand-built joint or
constraint, a target stream, and a configuration, velocity, rotation or QP."""

import math
import sys

import numpy as np

# concrete number types: an isinstance check against numbers.Real costs about
# 0.5 us, paid on every tracking step by LeastSquaresQP's damping check
_FLOAT = (float, np.floating)
_INTEGRAL = (int, np.integer)
# numpy's one native float64 descriptor: any other takes the checked path, which copies
_NDARRAY, _FLOAT64 = np.ndarray, np.dtype(np.float64)


class IkTrackError(Exception):
    """Base class for all iktrack errors."""


class NotARotation(IkTrackError):
    """Matrix failed the orthonormality / positive-determinant check."""


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
    """A solve overflowed to a non-finite result on finite input, or would turn
    the base half a turn or more in one sample, more than a stream resolves."""


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


def _is_number(value):
    """A float, or an integer (not a boolean) within the float range."""
    if isinstance(value, _FLOAT):
        return True
    return (isinstance(value, _INTEGRAL) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


def _float_array(value):
    """Nested sequences of numbers as a new float array: a string, null or
    boolean array is a TypeError, an integer past the float range an
    OverflowError."""
    a = np.array(value)
    if a.dtype.kind == "O" and all(type(x) in (int, float) for x in a.flat):
        a = a.astype(float)  # integers past int64
    if a.dtype.kind not in "iuf":
        raise TypeError(f"expected numbers, got {value!r:.40}")
    return a if a.dtype == np.float64 else a.astype(float)


def _reject_booleans(value):
    """Raise TypeError if nested lists or tuples hold a boolean, which numpy
    would promote to 1 or 0 among numbers."""
    if type(value) is bool or type(value) is np.bool_:
        raise TypeError("expected numbers, got a boolean")
    if type(value) is list or type(value) is tuple:
        for item in value:
            _reject_booleans(item)


def _shaped_numbers(value, shape, error, where, what="numbers"):
    """``value`` as a float array of ``shape`` (any shape when None), where no
    string, boolean or None is a number; else ``error(f"{where}: expected
    {what}, got {value!r:.40}")``. A float64 array is returned uncopied."""
    if type(value) is _NDARRAY and value.dtype is _FLOAT64 and (
            shape is None or value.shape == shape):
        return value
    try:
        _reject_booleans(value)
        a = _float_array(value)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is None or (shape is not None and a.shape != shape):
        raise error(f"{where}: expected {what}, got {value!r:.40}")
    return a


def check_setting(name: str, value, zero_ok: bool = False, integer: bool = False):
    """Raise ``InvalidSetting`` naming ``name`` unless ``value`` is a number
    by ``_is_number`` (an integer with ``integer``) above zero, or at zero
    with ``zero_ok``, and finite. The range test is negated, so NaN fails it."""
    if (not _is_number(value) or (integer and not isinstance(value, _INTEGRAL))
            or not ((0.0 <= value if zero_ok else 0.0 < value) and value < math.inf)):
        sign = "non-negative" if zero_ok else "positive"
        noun = "integer" if integer else "finite number"
        raise InvalidSetting(f"{name} must be a {sign} {noun}, got {value!r:.40}")
