"""Closed-loop velocity-level inverse kinematics.

Each sample is handled at constant cost: one residual evaluation, one stacked
Jacobian, one constrained differential-kinematics inversion (QP), and one
integration step. Feedback gains drive the pose residual to zero over time
instead of iterating to convergence per sample.
"""
from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._kernels import determinants, orthonormality_errors
from .errors import (IkTrackError, InvalidSetting, NonFiniteSolution, QPInfeasible,
                     SchemaMismatch, StaleSample, check_setting)
from .model import Configuration, KinematicModel, Velocity
from .qp import ActiveSetSolver, LeastSquaresQP, QPStatus
from .so3 import BaumgarteConfig, Rotation, baumgarte_step

RATE_TOL = 1e-9
ACTIVE_TOL = 1e-6


_FIELDS = ("t", "positions", "rotations", "lin_vels", "ang_vels")


def _check_counts(positions, rotations, lin_vels, ang_vels):
    if lin_vels.shape != positions.shape:
        raise SchemaMismatch("lin_vels count differs from positions")
    if ang_vels.shape[:-1] != rotations.shape[:-2]:
        raise SchemaMismatch("ang_vels count differs from rotations")


def _check_values(t, positions, rotations, lin_vels, ang_vels):
    """Raise ``SchemaMismatch`` for the first sample, along the leading time
    axis, that holds a non-finite value or a rotation target that is not a
    rotation; the message names the field or the target, not the sample."""
    count = t.shape[0]
    if count == 0:
        return
    finite = [np.isfinite(a).reshape(count, -1).all(axis=1)
              for a in (t, positions, rotations, lin_vels, ang_vels)]
    r = rotations.reshape(-1, 3, 3)
    # a non-finite rotation is reported as such, one too large to square as
    # not a rotation
    with np.errstate(invalid="ignore", over="ignore"):
        is_rotation = (orthonormality_errors(r) <= 1e-8) & (determinants(r) > 0.0)
    is_rotation = is_rotation.reshape(count, -1)
    good = np.logical_and.reduce(finite) & is_rotation.all(axis=1)
    if good.all():
        return
    k = int(np.argmin(good))
    for name, ok in zip(_FIELDS, finite):
        if not ok[k]:
            raise SchemaMismatch(f"{name} holds a non-finite value")
    raise SchemaMismatch(f"rotation target {int(np.argmin(is_rotation[k]))} is not a rotation")


@dataclass(eq=False)
class TargetSample:
    """Timestamped pose and velocity targets for all declared frames.

    Construction checks the sample as a ``TargetStream`` of one. A row of a
    ``TargetStream`` is a ``TargetSample`` whose arrays are views into the
    stream's arrays.
    """

    t: float
    positions: np.ndarray   # (n_p, 3)
    rotations: np.ndarray   # (n_o, 3, 3)
    lin_vels: np.ndarray    # (n_p, 3)
    ang_vels: np.ndarray    # (n_o, 3)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        self.rotations = np.ascontiguousarray(self.rotations, dtype=float).reshape(-1, 3, 3)
        self.lin_vels = np.asarray(self.lin_vels, dtype=float).reshape(-1, 3)
        self.ang_vels = np.asarray(self.ang_vels, dtype=float).reshape(-1, 3)
        _check_counts(self.positions, self.rotations, self.lin_vels, self.ang_vels)
        _check_values(np.atleast_1d(self.t), self.positions[None], self.rotations[None],
                      self.lin_vels[None], self.ang_vels[None])

    def velocity_stack(self) -> np.ndarray:
        return np.concatenate([self.lin_vels.ravel(), self.ang_vels.ravel()])

    def check_model(self, model: KinematicModel):
        if self.positions.shape[0] != model.n_p or self.rotations.shape[0] != model.n_o:
            raise SchemaMismatch(
                f"sample has {self.positions.shape[0]} position / "
                f"{self.rotations.shape[0]} orientation targets, model declares "
                f"{model.n_p} / {model.n_o}")


class TargetStream(Sequence):
    """The targets of a whole stream as arrays over time: ``t`` (T,),
    ``positions`` (T, n_p, 3), ``rotations`` (T, n_o, 3, 3), ``lin_vels``
    (T, n_p, 3) and ``ang_vels`` (T, n_o, 3).

    Construction copies the arrays and checks them in one pass with the
    checks and messages of ``TargetSample`` (a bad value raises the message
    of the first bad sample). The stream is a sequence of ``TargetSample``
    rows: an index gives a row that views the arrays, a slice a stream that
    does. As with numpy views, a write into a row changes the stream, and is
    not checked again.
    """

    __slots__ = _FIELDS

    def __init__(self, t, positions, rotations, lin_vels, ang_vels):
        t = np.array(t, dtype=float).reshape(-1)
        count = t.shape[0]
        arrays = [t]
        for name, value, tail in (("positions", positions, (3,)),
                                  ("rotations", rotations, (3, 3)),
                                  ("lin_vels", lin_vels, (3,)),
                                  ("ang_vels", ang_vels, (3,))):
            a = np.array(value, dtype=float)
            if (a.shape[0] if a.ndim else 0) != count:
                raise SchemaMismatch(f"{name} and t differ in length")
            arrays.append(a.reshape((count, -1) + tail) if count else
                          a.reshape((0, 0) + tail))
        _check_counts(*arrays[1:])
        _check_values(*arrays)
        for name, a in zip(_FIELDS, arrays):
            setattr(self, name, a)

    def __len__(self) -> int:
        return self.t.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            view = object.__new__(TargetStream)
            for name in _FIELDS:
                setattr(view, name, getattr(self, name)[index])
            return view
        row = object.__new__(TargetSample)  # views of arrays checked already
        row.t, row.positions, row.rotations, row.lin_vels, row.ang_vels = (
            float(self.t[index]), self.positions[index], self.rotations[index],
            self.lin_vels[index], self.ang_vels[index])
        return row

    def check_model(self, model: KinematicModel):
        """Raise ``SchemaMismatch``, naming sample 0, when the stream's target
        counts differ from the model's."""
        if len(self):
            try:
                self[0].check_model(model)
            except SchemaMismatch as e:
                raise SchemaMismatch(f"sample 0: {e}") from None

    def check_spacing(self, dt: float, name: str = "dt"):
        """Raise ``SchemaMismatch``, naming the first pair, when consecutive
        timestamps are not ``dt`` apart within ``RATE_TOL`` (a NaN ``dt`` fails
        every pair); ``name`` is what the message calls ``dt``."""
        spacing = np.diff(self.t)
        bad = np.flatnonzero(~(np.abs(spacing - dt) <= RATE_TOL))
        if bad.size:
            raise SchemaMismatch(f"samples {bad[0]} and {bad[0] + 1} are spaced "
                                 f"{float(spacing[bad[0]])!r}, not {name} {dt}")


@dataclass(eq=False)
class GainConfig:
    """Feedback gains for the velocity correction and the joint-limit
    velocity shaping.

    ``gain`` is the residual-feedback gain K, one for every stacked residual
    component, ``limit_slope`` the slope of the tanh bound shaping on every
    constraint row, and ``vel_bound_default`` the stand-in for unbounded
    velocity rows. Construction checks that each value is a finite positive
    number and enforces the discrete-time stability guard gain * dt <= 1;
    either failure is an ``InvalidSetting``.
    """

    gain: float = 2.0
    limit_slope: float = 10.0
    vel_bound_default: float = 1e3
    dt: float = BaumgarteConfig.dt

    def __post_init__(self):
        for name in ("gain", "limit_slope", "vel_bound_default", "dt"):
            check_setting(name, getattr(self, name))
        if not self.gain * self.dt <= 1.0:
            raise InvalidSetting(f"stability guard: gain * dt must be <= 1, got "
                                 f"{self.gain!r} * {self.dt!r}")

    @classmethod
    def build(cls, model: KinematicModel, dt: float, gain: float = gain,
              limit_slope: float = limit_slope,
              vel_bound_default: float = vel_bound_default) -> "GainConfig":
        """The gains for sample spacing ``dt``, with the class's defaults.
        The gains no longer depend on the model; ``model`` stays in the
        signature for the callers that pass it."""
        return cls(gain=gain, limit_slope=limit_slope,
                   vel_bound_default=vel_bound_default, dt=dt)


@dataclass(eq=False)
class SolverState:
    """Rolling state of the tracking loop; ``t`` is the timestamp of the last
    consumed sample (None before the first step)."""

    q: Configuration
    nu: Velocity
    last_active_set: tuple[int, ...] = ()
    step_index: int = 0
    t: float | None = None

    @classmethod
    def initial(cls, model: KinematicModel, q0: Configuration) -> "SolverState":
        return cls(q=q0, nu=Velocity.zeros(model))


@dataclass(eq=False)
class StepReport:
    """Pre-update diagnostics for one step: the pose residual r fed back
    (``pose_residual``), the velocity residual u = v - J nu, the QP's status,
    the step's wall time and which limit rows ended active."""

    residual_r: np.ndarray
    residual_u: np.ndarray
    qp_status: QPStatus
    step_wall_time: float
    constraint_active: np.ndarray


def initial_configuration(model: KinematicModel, sample: TargetSample) -> Configuration:
    """Zero joints, identity base placed at the base position target (when the
    base frame is a position target)."""
    sample.check_model(model)
    base_pos = None
    if model.base_link in model.position_target_frames:
        base_pos = sample.positions[model.position_target_frames.index(model.base_link)]
    return Configuration.zeros(model, base_pos=base_pos)


def pose_residual(model: KinematicModel, q: Configuration, sample: TargetSample) -> np.ndarray:
    """Stacked pose error in the world frame: position differences, then
    rotation error vectors (``KinematicModel.pose_residual_arrays``)."""
    sample.check_model(model)
    fk = model.fk_arrays(q)
    return model.pose_residual_arrays(fk, sample.positions, sample.rotations)


def corrected_velocity(sample: TargetSample, residual: np.ndarray,
                       gains: GainConfig, velocity: np.ndarray | None = None) -> np.ndarray:
    """Velocity targets with the residual fed back through the gain; ``velocity``
    is ``sample.velocity_stack()`` when the caller already holds it."""
    if velocity is None:
        velocity = sample.velocity_stack()
    return velocity + gains.gain * residual


def build_limit_constraints(model: KinematicModel, q: Configuration,
                            gains: GainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Velocity-space constraints G nu <= g realizing the configuration
    limits: the admissible joint velocity shrinks through a tanh profile as a
    row approaches its configuration bound, reaching zero at the bound and
    turning negative past it. G depends on the model alone and is returned
    read-only.
    """
    G, b_nu = model.limit_rows(gains.vel_bound_default)
    if G.shape[0] == 0:
        return G, np.zeros(0)
    margin = model.config_bounds - model.constraint_matrix @ q.s
    g = np.tanh(gains.limit_slope * margin) * b_nu
    return G, g


def step(state: SolverState, sample: TargetSample, model: KinematicModel,
         gains: GainConfig, baumgarte: BaumgarteConfig,
         solver: ActiveSetSolver) -> tuple[SolverState, StepReport]:
    """Advance the tracker by one sample: exactly one stacked-Jacobian
    evaluation and one QP solve. The report carries pre-update quantities."""
    dt = gains.dt
    if abs(baumgarte.dt - dt) > RATE_TOL:
        raise ValueError("baumgarte.dt differs from gains.dt")
    sample.check_model(model)
    if state.t is not None and abs(sample.t - state.t - dt) > RATE_TOL:
        raise StaleSample(f"sample at t={sample.t} after state t={state.t}, dt={dt}")
    t_start = time.perf_counter()
    fk = model.fk_arrays(state.q)
    residual = model.pose_residual_arrays(fk, sample.positions, sample.rotations)
    jac = model.stacked_jacobian(state.q, fk=fk)
    velocity = sample.velocity_stack()
    v_star = corrected_velocity(sample, residual, gains, velocity)
    G, g = build_limit_constraints(model, state.q, gains)
    problem = LeastSquaresQP(jac, v_star, G, g, damping=solver.damping)
    solution = solver.solve(problem, warm_start=state.last_active_set)
    if solution.status is QPStatus.INFEASIBLE:
        raise QPInfeasible(f"step {state.step_index}: constraints are inconsistent")
    nu = solution.x
    if not np.isfinite(nu).all():
        raise NonFiniteSolution(f"step {state.step_index}: the QP returned a non-finite "
                                "velocity; the targets overflow float arithmetic")
    residual_u = velocity - jac @ nu
    base_pos = state.q.base_pos + dt * nu[0:3]
    # nu carries the base angular velocity in the inertial frame; the
    # integrator steps R + dt R S(omega), so it takes omega in the base frame
    base_rot = baumgarte_step(state.q.base_rot, state.q.base_rot.m.T @ nu[3:6], baumgarte)
    s = state.q.s + dt * nu[6:]
    if not np.isfinite(np.concatenate((base_pos, base_rot.ravel(), s))).all():
        raise NonFiniteSolution(f"step {state.step_index}: the integrated configuration is "
                                "not finite; the targets overflow float arithmetic")
    new_q = Configuration(base_pos=base_pos, base_rot=Rotation.drifting(base_rot), s=s)
    wall = time.perf_counter() - t_start
    active = (g - G @ nu <= ACTIVE_TOL) if G.shape[0] else np.zeros(0, dtype=bool)
    report = StepReport(residual_r=residual, residual_u=residual_u,
                        qp_status=solution.status, step_wall_time=wall,
                        constraint_active=active)
    new_state = SolverState(q=new_q, nu=Velocity.from_stacked(nu),
                            last_active_set=solution.active_set,
                            step_index=state.step_index + 1, t=sample.t)
    return new_state, report


@dataclass(eq=False)
class TrackResult:
    configurations: list
    velocities: list
    reports: list
    error: str | None = None

    @property
    def completed(self) -> bool:
        return self.error is None

    def __len__(self) -> int:
        return len(self.configurations)


def track(model: KinematicModel, stream, gains: GainConfig,
          baumgarte: BaumgarteConfig, solver: ActiveSetSolver | None = None,
          q0: Configuration | None = None) -> TrackResult:
    """Fold ``step`` over a fixed-rate sample stream.

    Every sample is consumed exactly once; the first ``IkTrackError`` aborts
    and the partial results are returned with the error recorded.
    """
    result = TrackResult([], [], [])
    solver = solver if solver is not None else ActiveSetSolver()
    state = None
    for sample in stream:
        try:
            if state is None:
                start = q0 if q0 is not None else initial_configuration(model, sample)
                state = SolverState.initial(model, start)
            state, report = step(state, sample, model, gains, baumgarte, solver)
        except IkTrackError as e:
            result.error = str(e)
            break
        result.configurations.append(state.q)
        result.velocities.append(state.nu)
        result.reports.append(report)
    return result
