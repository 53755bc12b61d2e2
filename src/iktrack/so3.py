"""Rotation-matrix algebra: skew/vee operators, orientation residuals on
SO(3), and drift-corrected integration of angular velocity.

All operations are pure functions on value types and safe to call from any
number of threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import (baumgarte_step_kernel, orthonormality_errors, rotation_about_axis,
                       rotation_residuals, skew_stack)
from .errors import (DegenerateMatrix, NotARotation, NotSkewSymmetric, SingularMatrix,
                     check_setting)

ORTHONORMALITY_TOL = 1e-9


def orthonormality_error(m) -> float:
    """Frobenius norm of m^T m - I."""
    return float(orthonormality_errors(np.asarray(m, dtype=float)[None])[0])


def _require_rotations(m):
    """Raise ``NotARotation`` unless every matrix of the (k, 3, 3) stack has
    orthonormality error within ``ORTHONORMALITY_TOL`` and a positive
    determinant. Both tests are negated, so NaN or Inf entries fail them."""
    err = orthonormality_errors(m)
    worst = int(np.argmax(err))
    if not err[worst] <= ORTHONORMALITY_TOL:
        raise NotARotation(
            f"orthonormality error {err[worst]:.3e} exceeds {ORTHONORMALITY_TOL:.0e}")
    if not np.all(np.linalg.det(m) > 0.0):
        raise NotARotation("determinant is not positive")


class Rotation:
    """A validated 3x3 rotation matrix.

    The regular constructor only accepts matrices with orthonormality error
    below ``ORTHONORMALITY_TOL`` and positive determinant. ``drifting`` skips
    the check; it exists for the integrator's intermediate states, which are
    deliberately allowed to wander slightly off SO(3).
    """

    __slots__ = ("m",)

    def __init__(self, m):
        m = np.ascontiguousarray(m, dtype=float)
        if m.shape != (3, 3):
            raise NotARotation(f"expected 3x3 matrix, got shape {m.shape}")
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
        return cls.drifting(rotation_about_axis(axis / norm, float(angle)))

    def orthonormality_error(self) -> float:
        return orthonormality_error(self.m)

    def __repr__(self) -> str:
        return f"Rotation({self.m.tolist()!r})"


@dataclass(frozen=True)
class BaumgarteConfig:
    """Integration step and gain pulling the integrated matrix back toward
    orthonormality."""

    rho: float = 10.0
    dt: float = 0.01

    def __post_init__(self):
        check_setting("rho", self.rho)
        check_setting("dt", self.dt)


def _mat(r) -> np.ndarray:
    if isinstance(r, Rotation):
        return r.m
    return np.ascontiguousarray(r, dtype=float)


def skew(v) -> np.ndarray:
    """Skew-symmetric matrix S(v) with S(v) u = v x u."""
    return skew_stack(np.asarray(v, dtype=float).reshape(1, 3))[0]


def vee(a, tol: float = 1e-9) -> np.ndarray:
    """Inverse of ``skew``; rejects matrices that are not skew-symmetric."""
    a = np.asarray(a, dtype=float)
    sym = np.linalg.norm(a + a.T)
    if sym > tol:
        raise NotSkewSymmetric(f"symmetric part norm {sym:.3e} exceeds {tol:.0e}")
    return np.array([a[2, 1], a[0, 2], a[1, 0]])


def skew_part(a) -> np.ndarray:
    """Skew-symmetrization (a - a^T)/2."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a - a.T)


def orientation_residual(estimate, target) -> np.ndarray:
    """Rotation error vector: the skew part of (R_est^T R_target) as a vector.

    For a relative rotation of angle theta about unit axis n this equals
    sin(theta) * n; it vanishes both at theta = 0 and at the antipodal
    theta = pi, which is the excluded set of the almost-global convergence
    guarantee.
    """
    return rotation_residuals(_mat(estimate)[None], _mat(target)[None])[0]


def relative_angle(a, b) -> float:
    """Geodesic angle between two rotations, in [0, pi]."""
    c = 0.5 * (np.trace(_mat(a).T @ _mat(b)) - 1.0)
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def _singular(r) -> bool:
    """|det r| <= 1e-12 for a 3x3 matrix, by cofactor expansion along the
    first row (False for NaN entries, as for ``np.linalg.det``)."""
    (a, b, c), (d, e, f), (g, h, i) = r.tolist()
    return abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) <= 1e-12


def baumgarte_step(r_prev, omega, cfg: BaumgarteConfig) -> np.ndarray:
    """Integrate angular velocity over one step, returning a drifting matrix.

    The update is explicit Euler on Rdot = R (S(omega) + A) with
    A = (rho/2)((R^T R)^-1 - I); for an orthonormal input A is exactly zero.
    """
    r = _mat(r_prev)
    omega = np.asarray(omega, dtype=float)
    if not np.isfinite(omega).all():
        raise ValueError("omega must be finite")
    if _singular(r):
        raise SingularMatrix("r_prev^T r_prev is not invertible")
    return baumgarte_step_kernel(r, omega, cfg.rho, cfg.dt)


def baumgarte_integrate(r0, omegas, cfg: BaumgarteConfig) -> tuple[np.ndarray, float]:
    """Fold ``baumgarte_step`` over a sequence of angular velocities.

    Returns the final (drifting) matrix and the worst orthonormality error
    observed at any step.
    """
    r = _mat(r0).copy()
    omegas = np.ascontiguousarray(omegas, dtype=float)
    if not np.isfinite(omegas).all():
        raise ValueError("omega must be finite")
    if _singular(r):
        raise SingularMatrix("r0^T r0 is not invertible")
    max_err = 0.0
    for omega in omegas:
        r = baumgarte_step_kernel(r, omega, cfg.rho, cfg.dt)
        max_err = max(max_err, orthonormality_error(r))
    return r, max_err


def project_to_so3(a) -> Rotation:
    """Nearest rotation in Frobenius norm (polar factor).

    Diagnostics and final-output sanitation only; the integration loop relies
    on the drift-correction term instead.
    """
    return Rotation.drifting(project_stack_to_so3(_mat(a)[None])[0])


def project_stack_to_so3(a) -> np.ndarray:
    """``project_to_so3`` of each matrix of a (k, 3, 3) stack, as a (k, 3, 3)
    array of validated rotations."""
    u, sing, vt = np.linalg.svd(a)
    if np.any(sing[:, -1] <= 1e-12) or np.any(np.linalg.det(a) <= 0.0):
        raise DegenerateMatrix("matrix is singular or reflects")
    r = u @ vt
    flip = np.linalg.det(r) < 0.0
    if np.any(flip):
        r[flip] = u[flip] @ np.diag([1.0, 1.0, -1.0]) @ vt[flip]
    _require_rotations(r)
    return r
