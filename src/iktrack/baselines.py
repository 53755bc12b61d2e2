"""Per-sample iterative IK baselines for the accuracy/timing comparison:
whole-body damped least squares over the full configuration, and a pair-wise
scheme that cuts the tree at target frames and solves each slice on its
relative rotation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import rotation_about_axis, rotations_about_axes
from .errors import DecompositionError
from .model import Configuration, KinematicModel
from .qp import ActiveSetSolver, LeastSquaresQP
from .so3 import Rotation, orientation_residual, project_to_so3
from .tracker import TargetSample


@dataclass(eq=False)
class InstantaneousConfig:
    """Residual weights, stopping threshold on the weighted pose error,
    iteration cap, and the initial damping of the iterative scheme."""

    weights: float | np.ndarray = 1.0
    stop_tol: float = 1e-4
    max_iters: int = 30
    lm_lambda0: float = 1e-3

    def __post_init__(self):
        if np.any(np.asarray(self.weights) <= 0.0):
            raise ValueError("weights must be positive")
        if not self.stop_tol > 0.0:
            raise ValueError("stop_tol must be positive")

    def weight_vector(self, model: KinematicModel) -> np.ndarray:
        dim = 3 * (model.n_p + model.n_o)
        w = np.asarray(self.weights, dtype=float)
        if w.ndim == 0:
            return np.full(dim, float(w))
        if w.shape == (model.n_p + model.n_o,):
            return np.repeat(w, 3)
        if w.shape == (dim,):
            return w
        raise ValueError(f"weights must be scalar, per-target, or length {dim}")


@dataclass(eq=False)
class IkResult:
    q: Configuration
    iterations: int
    pose_error: float
    converged: bool


@dataclass(frozen=True)
class Subsystem:
    """Joints between two consecutive target frames, root side first."""

    joint_indices: tuple[int, ...]
    root_frame: str
    tip_frame: str
    path_links: tuple[int, ...]  # link indices from below root down to tip


@dataclass(eq=False)
class SubsystemReport:
    tip_frame: str
    iterations: int
    residual_norm: float
    converged: bool


def _weighted_error(model, q, sample, w):
    fk = model.fk_arrays(q)
    r = model.pose_residual_arrays(fk, sample.positions, sample.rotations)
    return float(np.linalg.norm(w * r)), r, fk


def _residual_jacobian(model, q, fk, w):
    """Gauss-Newton Jacobian of the weighted residual w.r.t. the local update
    (base position step, world rotation step, joint steps)."""
    jac = model.stacked_jacobian(q, fk=fk)
    out = -jac.copy()
    _, rot = fk
    for i, frame in enumerate(model.orientation_target_frames):
        rows = slice(3 * model.n_p + 3 * i, 3 * model.n_p + 3 * i + 3)
        # rotation error lives in the estimated frame: pull the world rows back
        out[rows] = -(rot[model.link_index(frame)].T @ jac[rows])
    return w[:, None] * out


def _apply_update(q, delta):
    dtheta = delta[3:6]
    angle = np.linalg.norm(dtheta)
    rot = q.base_rot.m
    if angle > 0.0:
        rot = rotation_about_axis(dtheta / angle, angle) @ rot
    return Configuration(q.base_pos + delta[0:3],
                         base_rot=Rotation.drifting(rot),
                         s=q.s + delta[6:])


def _project_constraints(model, s, tol=1e-9):
    """Project the joint vector onto A s <= b_q (covers coupled rows)."""
    a, b = model.constraint_matrix, model.config_bounds
    if a.shape[0] == 0 or np.max(a @ s - b) <= tol:
        return s
    solver = ActiveSetSolver(damping=0.0)
    finite = np.isfinite(b)
    sol = solver.solve(LeastSquaresQP(np.eye(model.n), s, a[finite], b[finite]))
    return sol.x


def solve_whole_body(model: KinematicModel, sample: TargetSample, q_init: Configuration,
                     cfg: InstantaneousConfig) -> IkResult:
    """Damped Gauss-Newton on the full stacked residual, joint bounds enforced
    by projection at every iterate. Accepted iterates never increase the
    weighted pose error.
    """
    sample.check_model(model)
    w = cfg.weight_vector(model)
    q = q_init
    err, r, fk = _weighted_error(model, q, sample, w)
    lam = cfg.lm_lambda0
    iterations = 0
    while err > cfg.stop_tol and iterations < cfg.max_iters:
        iterations += 1
        jr = _residual_jacobian(model, q, fk, w)
        h = jr.T @ jr + lam * np.eye(jr.shape[1])
        try:
            delta = np.linalg.solve(h, -jr.T @ (w * r))
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        candidate = _apply_update(q, delta)
        candidate.s = _project_constraints(model, np.clip(candidate.s, model._pos_lo,
                                                          model._pos_hi))
        new_err, new_r, new_fk = _weighted_error(model, candidate, sample, w)
        if new_err < err:
            q, err, r, fk = candidate, new_err, new_r, new_fk
            lam = max(lam / 3.0, 1e-12)
        else:
            lam *= 10.0
            if lam > 1e10:
                break
    q = Configuration(q.base_pos, project_to_so3(q.base_rot.m), q.s)
    return IkResult(q=q, iterations=iterations, pose_error=err,
                    converged=err <= cfg.stop_tol)


def decompose_pairwise(model: KinematicModel) -> list[Subsystem]:
    """Cut the tree at every orientation-target link; each subsystem spans the
    joints between consecutive targets. The base must carry both a position
    and an orientation target so its pose can be read off directly.
    """
    if model.base_link not in model.position_target_frames:
        raise DecompositionError("base frame needs a position target")
    if model.base_link not in model.orientation_target_frames:
        raise DecompositionError("base frame needs an orientation target")
    for frame in model.position_target_frames:
        if frame != model.base_link:
            raise DecompositionError(f"non-base position target {frame!r} is not supported")
    targets = set(model.orientation_target_frames)
    subsystems = []
    assigned = set()
    link_names = [l.name for l in model.links]
    for frame in model.orientation_target_frames:
        if frame == model.base_link:
            continue
        path = []
        l = model.link_index(frame)
        while True:
            path.append(l)
            p = int(model._parent[l])
            if p < 0:
                raise DecompositionError(f"no ancestor target above {frame!r}")
            if link_names[p] in targets:
                root = link_names[p]
                break
            l = p
        path.reverse()
        joint_indices = tuple(int(model._joint_of[l]) for l in path)
        assigned.update(joint_indices)
        subsystems.append(Subsystem(joint_indices=joint_indices, root_frame=root,
                                    tip_frame=frame, path_links=tuple(path)))
    if len(assigned) != model.n:
        missing = sorted(set(range(model.n)) - assigned)
        raise DecompositionError(f"joints {missing} lie between no target pair")
    return subsystems


def _relative_rotation(origin_r, axis, angles):
    """Rotation of a subsystem's tip frame w.r.t. its root frame, plus the
    per-joint axes expressed in the root frame, from the path's joint origin
    rotations, axes and angles (root side first)."""
    local = origin_r @ rotations_about_axes(axis, angles[None])[0]
    rels = np.empty_like(local)
    rel = np.eye(3)
    for i in range(local.shape[0]):
        rel = rels[i] = rel @ local[i]
    return rel, (rels @ axis[:, :, None])[:, :, 0]


def _solve_subsystem(model, sub, target_rel, s_init, cfg):
    """Gauss-Newton on the relative rotation error of one subsystem."""
    idx = np.array(sub.joint_indices)
    links = np.array(sub.path_links)
    origin_r, axis = model._origin_r[links], model._axis[links]
    s = s_init.copy()
    lam = cfg.lm_lambda0

    def error(s_vec):
        rel, axes = _relative_rotation(origin_r, axis, s_vec[idx])
        return orientation_residual(rel, target_rel), rel, axes

    r, rel, axes = error(s)
    err = float(np.linalg.norm(r))
    iterations = 0
    while err > cfg.stop_tol and iterations < cfg.max_iters:
        iterations += 1
        jr = -(rel.T @ axes.T)  # 3 x n_sub
        h = jr.T @ jr + lam * np.eye(len(idx))
        delta = np.linalg.solve(h, -jr.T @ r)
        cand = s.copy()
        cand[idx] = s[idx] + delta
        cand = np.clip(cand, model._pos_lo, model._pos_hi)
        new_r, new_rel, new_axes = error(cand)
        new_err = float(np.linalg.norm(new_r))
        if new_err < err:
            s, r, rel, axes, err = cand, new_r, new_rel, new_axes, new_err
            lam = max(lam / 3.0, 1e-12)
        else:
            lam *= 10.0
            if lam > 1e10:
                break
    return s[idx], SubsystemReport(tip_frame=sub.tip_frame, iterations=iterations,
                                   residual_norm=err, converged=err <= cfg.stop_tol)


def solve_pairwise(model: KinematicModel, sample: TargetSample, q_init: Configuration,
                   cfg: InstantaneousConfig, subsystems=None):
    """Base pose assigned from its targets verbatim; every subsystem solved
    independently on its relative rotation. The merged result is identical for
    any subsystem ordering.
    """
    sample.check_model(model)
    if subsystems is None:
        subsystems = decompose_pairwise(model)
    base_pos = sample.positions[model.position_target_frames.index(model.base_link)]
    ori_index = {f: i for i, f in enumerate(model.orientation_target_frames)}
    base_rot = sample.rotations[ori_index[model.base_link]]
    s = q_init.s.copy()
    reports = []
    for sub in subsystems:
        root_t = sample.rotations[ori_index[sub.root_frame]]
        tip_t = sample.rotations[ori_index[sub.tip_frame]]
        target_rel = root_t.T @ tip_t
        s_sub, report = _solve_subsystem(model, sub, target_rel, q_init.s, cfg)
        s[np.array(sub.joint_indices)] = s_sub
        reports.append(report)
    s = _project_constraints(model, s)
    q = Configuration(np.asarray(base_pos, dtype=float).copy(),
                      Rotation.drifting(np.asarray(base_rot, dtype=float).copy()), s)
    return q, reports
