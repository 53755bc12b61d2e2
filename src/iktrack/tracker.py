"""Closed-loop velocity-level inverse kinematics.

Each sample is handled at constant cost: one residual evaluation, one stacked
Jacobian, one constrained differential-kinematics inversion (QP), and one
integration step. Feedback gains drive the pose residual to zero over time
instead of iterating to convergence per sample.
"""
from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._kernels import determinants, orthonormality_errors
from .errors import (IkTrackError, InvalidSetting, NonFiniteSolution, QPInfeasible,
                     SchemaMismatch, StaleSample, _float_array, _reject_booleans,
                     _shaped_numbers, check_setting)
from .model import Configuration, KinematicModel, Velocity
from .qp import ActiveSetSolver, LeastSquaresQP, QPStatus
from .so3 import BaumgarteConfig, Rotation, baumgarte_step

RATE_TOL = 1e-9


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


def _check_start(model: KinematicModel, q: Configuration, name: str):
    """Raise ``InvalidSetting`` naming ``name``, the caller's argument, unless
    the start ``q`` is a ``Configuration`` that fits ``model`` and is finite."""
    if not isinstance(q, Configuration):
        raise InvalidSetting(f"{name} must be a Configuration, got {q!r:.40}")
    if q.base_rot.m.shape != (3, 3) or q.s.shape != (model.n,):
        raise InvalidSetting(f"{name} must have a 3x3 base rotation and {model.n} joint angles, "
                             f"got shapes {q.base_rot.m.shape} and {q.s.shape}")
    if not np.isfinite(np.concatenate((q.base_pos, q.base_rot.m.ravel(), q.s))).all():
        raise InvalidSetting(f"{name} holds a non-finite value")


@dataclass(eq=False)
class TargetSample:
    """Timestamped pose and velocity targets for all declared frames.

    Construction copies and checks the sample as a ``TargetStream`` of one,
    and keeps that row's arrays. A row of a ``TargetStream`` is a
    ``TargetSample`` whose arrays are views into the stream's arrays.
    """

    t: float
    positions: np.ndarray   # (n_p, 3)
    rotations: np.ndarray   # (n_o, 3, 3)
    lin_vels: np.ndarray    # (n_p, 3)
    ang_vels: np.ndarray    # (n_o, 3)

    def __post_init__(self):
        row = TargetStream(*([getattr(self, name)] for name in _FIELDS))[0]
        vars(self).update(vars(row))

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

    Construction copies the arrays and checks them in one pass, the check
    that constructing a ``TargetSample`` makes too (a bad value raises the
    message of the first bad sample; a field that is not numbers of its
    shape, or that holds a string, a boolean or a None, raises one that names
    the field, as ``load_stream`` refuses those values in a file). The stream
    is a sequence of ``TargetSample`` rows: an index gives a row that views
    the arrays, a slice a stream that does. As with numpy views, a write
    into a row changes the stream, and is not checked again.
    """

    __slots__ = _FIELDS

    def __init__(self, t, positions, rotations, lin_vels, ang_vels):
        t = _shaped_numbers(t, None, lambda _: SchemaMismatch("t must be numbers"), "t").flatten()
        count = t.shape[0]
        arrays = [t]
        for name, value, tail in (("positions", positions, (3,)),
                                  ("rotations", rotations, (3, 3)),
                                  ("lin_vels", lin_vels, (3,)),
                                  ("ang_vels", ang_vels, (3,))):
            try:
                _reject_booleans(value)
                a = _float_array(value)
                if (a.shape[0] if a.ndim else 0) != count:
                    raise SchemaMismatch(f"{name} and t differ in length")
                arrays.append(a.reshape(((count, -1) if count else (0, 0)) + tail))
            except (TypeError, ValueError, OverflowError):
                shape = ", ".join(map(str, ("samples", "targets") + tail))
                raise SchemaMismatch(f"{name} must be numbers of shape ({shape})") from None
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
    t: float | None = None

    @classmethod
    def initial(cls, model: KinematicModel, q0: Configuration) -> "SolverState":
        _check_start(model, q0, "q0")
        return cls(q=q0, nu=Velocity.zeros(model))


@dataclass(eq=False)
class StepReport:
    """Pre-update diagnostics for one step: the pose residual r fed back
    (``KinematicModel.pose_residual_arrays``), the QP's status and the
    step's wall time. The limit rows that ended active are the new state's
    ``last_active_set``."""

    residual_r: np.ndarray
    qp_status: QPStatus
    step_wall_time: float


def initial_configuration(model: KinematicModel, sample: TargetSample) -> Configuration:
    """Zero joints, identity base placed at the base position target (when the
    base frame is a position target)."""
    sample.check_model(model)
    base_pos = None
    if model.base_link in model.position_target_frames:
        base_pos = sample.positions[model.position_target_frames.index(model.base_link)]
    return Configuration.zeros(model, base_pos=base_pos)


def corrected_velocity(sample: TargetSample, residual: np.ndarray,
                       gains: GainConfig) -> np.ndarray:
    """Velocity targets with the residual fed back through the gain."""
    return sample.velocity_stack() + gains.gain * residual


def build_limit_constraints(model: KinematicModel, q: Configuration,
                            gains: GainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Velocity-space constraints G nu <= g realizing the configuration
    limits: the admissible joint velocity shrinks through a tanh profile as a
    row approaches its configuration bound, reaching zero at the bound and
    turning negative past it, and is never more than the velocity that lands
    on the bound in one sample, margin / dt. G depends on the model alone and
    is returned read-only.
    """
    G, b_nu = model.limit_rows(gains.vel_bound_default)
    if G.shape[0] == 0:
        return G, np.zeros(0)
    margin = model.config_bounds - model.constraint_matrix @ q.s
    shaped = np.tanh(gains.limit_slope * margin) * b_nu
    return G, np.minimum(shaped, np.maximum(margin, 0.0) / gains.dt)


def step(state: SolverState, sample: TargetSample, model: KinematicModel,
         gains: GainConfig, baumgarte: BaumgarteConfig,
         solver: ActiveSetSolver) -> tuple[SolverState, StepReport]:
    """Advance the tracker by one sample: exactly one stacked-Jacobian
    evaluation and one QP solve. The report carries pre-update quantities.
    Raises ``NonFiniteSolution`` before integrating a velocity that is not
    finite or turns the base half a turn or more (dt |omega| >= pi): below
    that, R (I + dt S(omega)) of an orthonormal R has determinant 1 + (dt |omega|)^2."""
    dt = gains.dt
    if abs(baumgarte.dt - dt) > RATE_TOL:
        raise InvalidSetting("baumgarte.dt differs from gains.dt")
    sample.check_model(model)
    if state.t is not None and abs(sample.t - state.t - dt) > RATE_TOL:
        raise StaleSample(f"sample at t={sample.t} after state t={state.t}, dt={dt}")
    t_start = time.perf_counter()
    fk = model.fk_arrays(state.q)
    residual = model.pose_residual_arrays(fk, sample.positions, sample.rotations)
    jac = model.stacked_jacobian(state.q, fk=fk)
    v_star = corrected_velocity(sample, residual, gains)
    G, g = build_limit_constraints(model, state.q, gains)
    problem = LeastSquaresQP(jac, v_star, G, g, damping=solver.damping)
    solution = solver.solve(problem, warm_start=state.last_active_set)
    if solution.status is QPStatus.INFEASIBLE:
        raise QPInfeasible("constraints are inconsistent")
    nu = solution.x
    if not np.isfinite(nu).all():
        raise NonFiniteSolution("the QP returned a non-finite velocity; the targets "
                                "overflow float arithmetic")
    turn = dt * math.hypot(*nu[3:6].tolist())
    if turn >= math.pi:
        raise NonFiniteSolution(f"the base would turn {turn:.3g} rad in one sample, half a "
                                "turn or more")
    base_pos = state.q.base_pos + dt * nu[0:3]
    # nu carries the base angular velocity in the inertial frame; the
    # integrator steps R + dt R S(omega), so it takes omega in the base frame
    base_rot = baumgarte_step(state.q.base_rot, state.q.base_rot.m.T @ nu[3:6], baumgarte)
    s = state.q.s + dt * nu[6:]
    if not np.isfinite(np.concatenate((base_pos, base_rot.ravel(), s))).all():
        raise NonFiniteSolution("the integrated configuration is not finite; the targets "
                                "overflow float arithmetic")
    new_q = Configuration(base_pos=base_pos, base_rot=Rotation.drifting(base_rot), s=s)
    report = StepReport(residual_r=residual, qp_status=solution.status,
                        step_wall_time=time.perf_counter() - t_start)
    new_state = SolverState(q=new_q, nu=Velocity(nu),
                            last_active_set=solution.active_set, t=sample.t)
    return new_state, report


@dataclass(eq=False)
class TrackResult:
    """A run of any method as arrays over time, row i for sample i:
    ``base_pos`` (T, 3), ``base_rot`` (T, 3, 3), ``s`` (T, n), ``nu``
    (T, 6 + n) and ``step_time`` (T,) in seconds, with ``error`` set when the
    run stopped before its last sample."""

    base_pos: np.ndarray
    base_rot: np.ndarray
    s: np.ndarray
    nu: np.ndarray
    step_time: np.ndarray
    error: str | None = None

    @classmethod
    def of_run(cls, model: KinematicModel, samples, advance,
               q0: Configuration | None = None) -> "TrackResult":
        """The one loop from a sized sample sequence to a record. The start
        configuration is ``q0``, or sample 0's ``initial_configuration``;
        ``advance(q, sample)`` returns the next (configuration, stacked
        velocity, seconds), row i of the record. The first ``IkTrackError``
        stops the run, keeping the rows before it, with ``error`` set to
        ``step <i>: <message>``; an ``InvalidSetting`` is the caller's
        error, not a sample's, and is raised, as is a bad ``q0``."""
        if q0 is not None:
            _check_start(model, q0, "q0")
        count, n = len(samples), model.n
        base_pos, base_rot, s = np.empty((count, 3)), np.empty((count, 3, 3)), np.empty((count, n))
        nu, step_time = np.empty((count, 6 + n)), np.empty(count)
        q, error = q0, None
        for i, sample in enumerate(samples):
            try:
                q = initial_configuration(model, sample) if q is None else q
                q, nu[i], step_time[i] = advance(q, sample)
            except InvalidSetting:
                raise
            except IkTrackError as e:
                count, error = i, f"step {i}: {e}"
                break
            base_pos[i], base_rot[i], s[i] = q.base_pos, q.base_rot.m, q.s
        return cls(base_pos[:count], base_rot[:count], s[:count], nu[:count],
                   step_time[:count], error)


def track(model: KinematicModel, stream, gains: GainConfig,
          baumgarte: BaumgarteConfig, solver: ActiveSetSolver | None = None,
          q0: Configuration | None = None) -> TrackResult:
    """Fold ``step`` over a fixed-rate sample sequence (a ``TargetStream`` or
    a list) through ``TrackResult.of_run``: every sample is consumed exactly
    once, and the first ``IkTrackError`` ends the run."""
    solver = solver if solver is not None else ActiveSetSolver()
    state = None

    def advance(q, sample):
        nonlocal state
        state, report = step(state or SolverState.initial(model, q), sample, model, gains,
                             baumgarte, solver)
        return state.q, state.nu.stacked(), report.step_wall_time

    return TrackResult.of_run(model, stream, advance, q0)
