"""Rotation-matrix algebra: validated rotations, orientation residuals on
SO(3), and drift-corrected integration of angular velocity.

All operations are pure functions on value types and safe to call from any
number of threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import (axis_factors, baumgarte_step_kernel, determinants,
                       orthonormality_errors, rotation_residuals, rotations_about_axes)
from .errors import DegenerateMatrix, InvalidSetting, NotARotation, _shaped_numbers, check_setting

ORTHONORMALITY_TOL = 1e-9


def _require_rotations(m):
    """Raise ``NotARotation`` unless every matrix of the (k, 3, 3) stack has
    orthonormality error within ``ORTHONORMALITY_TOL`` and a positive
    determinant. Both tests are negated, so NaN or Inf entries fail them."""
    err = orthonormality_errors(m)
    worst = int(np.argmax(err))
    if not err[worst] <= ORTHONORMALITY_TOL:
        raise NotARotation(
            f"orthonormality error {err[worst]:.3e} exceeds {ORTHONORMALITY_TOL:.0e}")
    if not np.all(determinants(m) > 0.0):
        raise NotARotation("determinant is not positive")


class Rotation:
    """A validated 3x3 rotation matrix.

    The regular constructor only accepts a 3x3 matrix of numbers (the one
    number rule) with orthonormality error below ``ORTHONORMALITY_TOL`` and
    positive determinant. ``drifting`` skips the check; it exists for the
    integrator's intermediate states, allowed to wander slightly off SO(3).
    """

    __slots__ = ("m",)

    def __init__(self, m):
        m = np.ascontiguousarray(_shaped_numbers(m, (3, 3), NotARotation, "rotation",
                                                 "a 3x3 matrix"))
        _require_rotations(m[None])
        self.m = m

    @classmethod
    def drifting(cls, m) -> "Rotation":
        r = object.__new__(cls)
        r.m = np.ascontiguousarray(m, dtype=float)
        return r

    @classmethod
    def identity(cls) -> "Rotation":
        return cls.drifting(np.eye(3))

    @classmethod
    def about_axis(cls, axis, angle: float) -> "Rotation":
        axis = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(axis)
        if norm == 0.0:
            raise ValueError("axis must be nonzero")
        axes = (axis / norm).reshape(1, 3)
        angles = np.full((1, 1), angle, dtype=float)
        return cls.drifting(rotations_about_axes(axis_factors(axes), angles)[0, 0])

    def __repr__(self) -> str:
        return f"Rotation({self.m.tolist()!r})"


@dataclass(frozen=True)
class BaumgarteConfig:
    """Integration step and gain pulling the integrated matrix back toward
    orthonormality. The Euler step scales the Gram error by about 1 - rho dt,
    so the guard rho * dt <= 1 keeps it decaying without overshoot."""

    rho: float = 10.0
    dt: float = 0.01

    def __post_init__(self):
        check_setting("rho", self.rho)
        check_setting("dt", self.dt)
        if not self.rho * self.dt <= 1.0:
            raise InvalidSetting(f"stability guard: rho * dt must be <= 1, got "
                                 f"{self.rho!r} * {self.dt!r}")


def _mat(r) -> np.ndarray:
    if isinstance(r, Rotation):
        return r.m
    return np.ascontiguousarray(r, dtype=float)


def orientation_residual(estimate, target) -> np.ndarray:
    """Rotation error vector: the skew part of (R_est^T R_target) as a vector.

    For a relative rotation of angle theta about unit axis n this equals
    sin(theta) * n; it vanishes both at theta = 0 and at the antipodal
    theta = pi, which is the excluded set of the almost-global convergence
    guarantee.
    """
    return rotation_residuals(_mat(estimate)[None], _mat(target)[None])[0]


def baumgarte_step(r_prev, omega, cfg: BaumgarteConfig) -> np.ndarray:
    """Integrate angular velocity over one step, returning a drifting matrix.

    The update is explicit Euler on Rdot = R (S(omega) + A) with
    A = (rho/2)((R^T R)^-1 - I); for an orthonormal input A is exactly zero.
    Raises ``ValueError`` for a non-finite omega and ``SingularMatrix`` when
    det(R^T R) <= 1e-24; a NaN in R passes into the result.
    """
    omega = np.asarray(omega, dtype=float)
    if not np.isfinite(omega).all():
        raise ValueError("omega must be finite")
    return baumgarte_step_kernel(_mat(r_prev), omega, cfg.rho, cfg.dt)


def project_to_so3(a) -> Rotation:
    """Nearest rotation in Frobenius norm (polar factor).

    Diagnostics and final-output sanitation only; the integration loop relies
    on the drift-correction term instead. ``project_stack_to_so3`` of one
    matrix, bit for bit and error for error, its checks made on floats."""
    a = _mat(a)
    if not all(map(math.isfinite, a.ravel().tolist())):
        raise DegenerateMatrix("matrix has a non-finite entry")
    u, sing, vt = np.linalg.svd(a)
    r = u @ vt
    # the determinant as ``determinants`` forms it, a . (b x c) of the columns
    (a0, b0, c0), (a1, b1, c1), (a2, b2, c2) = r.tolist()
    if (sing[-1] <= 1e-12 or a0 * (b1 * c2 - b2 * c1) + a1 * (b2 * c0 - b0 * c2)
            + a2 * (b0 * c1 - b1 * c0) <= 0.0):
        raise DegenerateMatrix("matrix is singular or reflects")
    return Rotation.drifting(r)


def project_stack_to_so3(a) -> np.ndarray:
    """``project_to_so3`` of each matrix of a (k, 3, 3) stack, as a (k, 3, 3)
    array of rotations. Raises ``DegenerateMatrix`` on a non-finite entry
    (before the SVD, which does not return on an infinite one), a singular
    value at or below 1e-12, or a polar factor u v^T that reflects."""
    if not np.isfinite(a).all():
        raise DegenerateMatrix("matrix has a non-finite entry")
    u, sing, vt = np.linalg.svd(a)
    r = u @ vt
    if np.any(sing[:, -1] <= 1e-12) or np.any(determinants(r) <= 0.0):
        raise DegenerateMatrix("matrix is singular or reflects")
    return r
