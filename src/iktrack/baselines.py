"""Per-sample iterative IK baselines for the accuracy/timing comparison:
whole-body damped least squares over the full configuration, and a pair-wise
scheme that cuts the tree at target frames and solves each slice on its
relative rotation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import axis_factors, rotation_vector, rotations_about_axes
from .errors import DecompositionError, QPInfeasible, RankDeficient, check_setting
from .model import Configuration, KinematicModel
from .qp import (ActiveSetSolver, LeastSquaresQP, QPStatus, _damped, _normal_equations,
                 _solve_normal)
from .so3 import Rotation, orientation_residual, project_to_so3
from .tracker import TargetSample, _check_start


@dataclass(eq=False)
class InstantaneousConfig:
    """Stopping threshold on the pose error norm, iteration cap, and the
    initial damping of the iterative scheme."""

    stop_tol: float = 1e-4
    max_iters: int = 30
    lm_lambda0: float = 1e-3

    def __post_init__(self):
        check_setting("stop_tol", self.stop_tol)
        check_setting("max_iters", self.max_iters, integer=True)
        check_setting("lm_lambda0", self.lm_lambda0)

    def weight_vector(self, model: KinematicModel) -> np.ndarray:
        """Per-component weights of the stacked residual: all ones, since the
        pose error is the plain residual norm."""
        return np.ones(3 * (model.n_p + model.n_o))


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


def _damped_gauss_newton(x, evaluate, jacobian, update, cfg):
    """Levenberg-Marquardt on a residual from the iterate ``x``.

    ``evaluate(x)`` gives the residual r = target - f(x) and whatever
    ``jacobian(x, state)`` reuses to form J, the Jacobian of f w.r.t. the
    step (r's own is -J); ``update(x, delta)`` takes the step. A step is
    kept only when it lowers the residual norm. Returns the iterate, its
    residual norm and the iteration count.
    """
    r, state = evaluate(x)
    # norms as np.linalg.norm forms a vector's: the root of its dot product
    err = math.sqrt(r.dot(r))
    lam = cfg.lm_lambda0
    iterations = 0
    normal = None  # J^T J and J^T r at x, formed once per accepted iterate
    while err > cfg.stop_tol and iterations < cfg.max_iters:
        iterations += 1
        if normal is None:
            normal = _normal_equations(jacobian(x, state), r)
        try:
            # the Levenberg-Marquardt step, (J^T J + lam I) delta = J^T r
            delta = _solve_normal(_damped(normal[0].copy(), lam), normal[1])
        except RankDeficient:
            lam *= 10.0
            continue
        candidate = update(x, delta)
        new_r, new_state = evaluate(candidate)
        new_err = math.sqrt(new_r.dot(new_r))
        if new_err < err:
            x, r, state, err, normal = candidate, new_r, new_state, new_err, None
            lam = max(lam / 3.0, 1e-12)
        else:
            lam *= 10.0
            if lam > 1e10:
                break
    return x, err, iterations


def _project_constraints(model, s):
    """Project the joint vector onto A s <= b_q (covers coupled rows); raises
    ``QPInfeasible`` when the rows are inconsistent."""
    a, b = model.constraint_matrix, model.config_bounds
    if a.shape[0] == 0 or np.max(a @ s - b) <= 1e-9:
        return s
    solver = ActiveSetSolver(damping=0.0)
    finite = np.isfinite(b)
    sol = solver.solve(LeastSquaresQP(np.eye(model.n), s, a[finite], b[finite]))
    if sol.status is QPStatus.INFEASIBLE:
        raise QPInfeasible("the joint constraints A s <= b_q are inconsistent")
    return sol.x


def solve_whole_body(model: KinematicModel, sample: TargetSample, q_init: Configuration,
                     cfg: InstantaneousConfig) -> IkResult:
    """Damped Gauss-Newton on the full stacked residual, joint bounds enforced
    by projection at every iterate. Accepted iterates never increase the
    pose error. A ``q_init`` that is unfit or not finite is an ``InvalidSetting``.
    """
    sample.check_model(model)
    _check_start(model, q_init, "q_init")

    def evaluate(q):
        fk = model.fk_arrays(q)
        return model.pose_residual_arrays(fk, sample.positions, sample.rotations), fk

    def jacobian(q, fk):
        # w.r.t. the step (base position, world rotation, joints)
        return model.stacked_jacobian(q, fk=fk)

    def update(q, delta):
        rot = rotation_vector(delta[3:6]) @ q.base_rot.m
        # np.clip's values, NaN included, without its Python wrapper
        s = np.minimum(np.maximum(q.s + delta[6:], model._pos_lo), model._pos_hi)
        return Configuration(q.base_pos + delta[0:3], Rotation.drifting(rot),
                             _project_constraints(model, s))

    q, err, iterations = _damped_gauss_newton(q_init, evaluate, jacobian, update, cfg)
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
        # climb to the nearest target above; the base is one, so the climb ends
        path = [model.link_index(frame)]
        while link_names[model._parent[path[-1]]] not in targets:
            path.append(int(model._parent[path[-1]]))
        root = link_names[model._parent[path[-1]]]
        path.reverse()
        joint_indices = tuple(int(model._joint_of[l]) for l in path)
        assigned.update(joint_indices)
        subsystems.append(Subsystem(joint_indices=joint_indices, root_frame=root,
                                    tip_frame=frame, path_links=tuple(path)))
    if len(assigned) != model.n:
        missing = sorted(set(range(model.n)) - assigned)
        raise DecompositionError(f"joints {missing} lie between no target pair")
    return subsystems


def _relative_rotation(origin_r, axis, factors, angles):
    """Rotation of a subsystem's tip frame w.r.t. its root frame, plus the
    per-joint axes expressed in the root frame, from the path's joint origin
    rotations, axes, their ``AxisFactors`` and angles (root side first)."""
    local = origin_r @ rotations_about_axes(factors, angles[None])[0]
    rels = np.empty_like(local)
    rel = np.eye(3)
    for i in range(local.shape[0]):
        rel = rels[i] = rel @ local[i]
    return rel, (rels @ axis[:, :, None])[:, :, 0]


def _solve_subsystem(model, sub, target_rel, s_init, cfg):
    """Gauss-Newton on the relative rotation error of one subsystem, over its
    own joints; returns their angles and a report."""
    idx = np.array(sub.joint_indices)
    links = np.array(sub.path_links)
    origin_r, axis = model._origin_r[links], model._axis[links]
    factors = axis_factors(axis)
    lo, hi = model._pos_lo[idx], model._pos_hi[idx]

    def evaluate(s):
        rel, axes = _relative_rotation(origin_r, axis, factors, s)
        return orientation_residual(rel, target_rel), (rel, axes)

    def jacobian(s, state):
        rel, axes = state
        return rel.T @ axes.T  # 3 x n_sub

    def update(s, delta):
        return np.minimum(np.maximum(s + delta, lo), hi)

    s, err, iterations = _damped_gauss_newton(s_init[idx], evaluate, jacobian, update, cfg)
    return s, SubsystemReport(tip_frame=sub.tip_frame, iterations=iterations,
                              residual_norm=err, converged=err <= cfg.stop_tol)


def solve_pairwise(model: KinematicModel, sample: TargetSample, q_init: Configuration,
                   cfg: InstantaneousConfig, subsystems=None):
    """Base pose assigned from its targets verbatim; every subsystem solved
    independently on its relative rotation. The merged result is identical for
    any subsystem ordering. An unfit or non-finite ``q_init`` is an ``InvalidSetting``.
    """
    sample.check_model(model)
    _check_start(model, q_init, "q_init")
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
    q = Configuration(base_pos.copy(), Rotation.drifting(base_rot.copy()), s)
    return q, reports
