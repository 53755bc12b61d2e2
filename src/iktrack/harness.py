"""Synthetic trajectory generation, tracking metrics, stream files, and the
benchmark sweep. This module owns all I/O; the solvers stay pure.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._kernels import axis_factors, rotation_vectors, rotations_about_axes
from .baselines import (InstantaneousConfig, decompose_pairwise, solve_pairwise,
                        solve_whole_body)
from .errors import (IkTrackError, InvalidSetting, ParseError, SchemaMismatch, SpecInfeasible,
                     check_setting)
from .model import Configuration, KinematicModel, Velocity
from .qp import ActiveSetSolver, LeastSquaresQP
from .so3 import BaumgarteConfig, Rotation, project_stack_to_so3
from .tracker import (GainConfig, TargetSample, TargetStream, _check_counts,
                      initial_configuration, track)

METHODS = ("dynamical", "whole-body", "pairwise")

# the settings classes own the defaults; this is their one flat view
DEFAULT_CONFIG = {
    "gain": GainConfig.gain,
    "limit_slope": GainConfig.limit_slope,
    "rho": BaumgarteConfig.rho,
    "damping": ActiveSetSolver.damping,
    "vel_bound_default": GainConfig.vel_bound_default,
    "stop_tol": InstantaneousConfig.stop_tol,
    "max_iters": InstantaneousConfig.max_iters,
    "lm_lambda0": InstantaneousConfig.lm_lambda0,
}

# the leading window, in seconds, left out of a run's summary statistics
TRANSIENT_DISCARD = 2.0


# -- metrics ------------------------------------------------------------------

# samples per batched kinematics pass in stream generation and scoring; the
# Jacobian batch grows with it, so it bounds their working memory
CHUNK = 25


def _stacked_configurations(qs):
    """Base positions (B, 3), base rotation matrices (B, 3, 3) and joint
    angles (B, n) of a sequence of configurations."""
    return (np.array([q.base_pos for q in qs]), np.array([q.base_rot.m for q in qs]),
            np.array([q.s for q in qs]))


def _mnte_batch(model, qs, target_rot) -> np.ndarray:
    """mnte of configurations against orientation targets (B, n_o, 3, 3)."""
    if model.n_o == 0:
        return np.zeros(len(qs))
    base_pos, base_rot, s = _stacked_configurations(qs)
    fk = model.fk_batch(base_pos, project_stack_to_so3(base_rot), s)
    rotations = model.stacked_poses(fk).rotations
    traces = np.einsum("bkij,bkij->bk", rotations, target_rot)
    return np.mean(np.maximum((3.0 - traces) / 2.0, 0.0), axis=1)


def _rmse_angvel_batch(model, qs, nus, target_angvel) -> np.ndarray:
    """rmse_angvel of configurations and velocities against angular-velocity
    targets (B, n_o, 3)."""
    if model.n_o == 0:
        return np.zeros(len(qs))
    jac = model.stacked_jacobians(model.fk_batch(*_stacked_configurations(qs)))
    vel = (jac @ np.array([nu.stacked() for nu in nus])[:, :, None])[:, :, 0]
    est = vel[:, 3 * model.n_p:].reshape(len(qs), -1, 3)
    err = target_angvel - est
    return np.sqrt(np.mean(np.sum(err * err, axis=2) / 3.0, axis=1))


def mnte(model: KinematicModel, q: Configuration, sample: TargetSample) -> float:
    """Mean normalized trace error over the orientation targets: the per-frame
    term tr(I - R_est^T R_target)/2 equals 1 - cos of the relative angle.

    The estimate is scored with its base rotation projected onto SO(3): on a
    drifting base the trace of the raw matrix can exceed 3. A term that reads
    below 0 by rounding counts as 0.
    """
    sample.check_model(model)
    return float(_mnte_batch(model, [q], sample.rotations[None])[0])


def rmse_angvel(model: KinematicModel, q: Configuration, nu: Velocity,
                sample: TargetSample) -> float:
    """Root mean squared angular-velocity error over the orientation targets,
    with the estimate read from the differential kinematics at (q, nu)."""
    sample.check_model(model)
    return float(_rmse_angvel_batch(model, [q], [nu], sample.ang_vels[None])[0])


# -- trajectory specs and synthetic streams -----------------------------------

@dataclass(frozen=True)
class TrajectorySpec:
    """Recipe for a synthetic target stream. Construction rejects a NaN,
    infinite or negative number (``InvalidSetting``) and makes ``freq_band``
    a tuple."""

    kind: str  # static_pose | sinusoidal | random_smooth
    duration: float
    dt: float
    amplitude: float
    freq_band: tuple[float, float] = (0.5, 1.5)
    seed: int = 0
    noise_std: float = 0.0

    def __post_init__(self):
        if self.kind not in ("static_pose", "sinusoidal", "random_smooth"):
            raise InvalidSetting(f"unknown trajectory kind {self.kind!r}")
        check_setting("dt", self.dt)
        check_setting("duration", self.duration)
        if not self.duration >= self.dt:
            raise InvalidSetting("need duration >= dt")
        check_setting("amplitude", self.amplitude, zero_ok=True)
        check_setting("noise_std", self.noise_std, zero_ok=True)
        band = tuple(self.freq_band)
        if len(band) != 2:
            raise InvalidSetting(f"freq_band must hold two frequencies, got {band!r}")
        for f in band:
            check_setting("freq_band", f, zero_ok=True)
        object.__setattr__(self, "freq_band", band)


def _joint_waves(model, spec, rng):
    """Per-joint (midpoint, component amplitudes, frequencies, phases); raises
    when the requested amplitude cannot keep a 5% margin to the limits."""
    n = model.n
    ncomp = 1 if spec.kind != "random_smooth" else 3
    mid = np.zeros(n)
    amp = np.zeros((n, ncomp))
    freq = np.zeros((n, ncomp))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n, ncomp))
    for jidx, joint in enumerate(model.joints):
        total = spec.amplitude * rng.uniform(0.5, 1.0)
        if joint.pos_limits is not None:
            lo, hi = joint.pos_limits
            mid[jidx] = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            if total * 1.05 > half:
                raise SpecInfeasible(
                    f"joint {joint.name}: amplitude {total:.3f} rad exceeds the "
                    f"95% usable half-range {half / 1.05:.3f} rad")
        shares = rng.uniform(0.5, 1.0, size=ncomp)
        amp[jidx] = total * shares / shares.sum()
        freq[jidx] = rng.uniform(spec.freq_band[0], spec.freq_band[1], size=ncomp)
    return mid, amp, freq, phase


def generate_stream(model: KinematicModel, spec: TrajectorySpec):
    """Ground-truth (Configuration, Velocity) list plus the target stream, a
    ``TargetStream``.

    Joint trajectories are band-limited sums of sinusoids around the limit
    midpoints; the base follows a smooth curve and a single-axis orientation
    wobble. Velocity targets are produced through the stacked differential
    kinematics, so pose and velocity targets are exactly consistent.
    Deterministic in the seed.
    """
    rng = np.random.default_rng(spec.seed)
    steps = int(round(spec.duration / spec.dt))
    mid, amp, freq, phase = _joint_waves(model, spec, rng)
    base_amp = 0.25 * spec.amplitude
    base_freq = rng.uniform(spec.freq_band[0], spec.freq_band[1], size=3)
    base_phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
    rot_axis = rng.normal(size=3)
    rot_axis /= np.linalg.norm(rot_axis)
    rot_amp = 0.5 * min(spec.amplitude, 0.4)
    rot_freq = rng.uniform(spec.freq_band[0], spec.freq_band[1])
    rot_phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(steps) * spec.dt
    if spec.kind == "static_pose":
        s = np.tile(mid + amp[:, 0] * np.sin(phase[:, 0]), (steps, 1))
        s_dot = np.zeros((steps, model.n))
        base_pos = np.zeros((steps, 3))
        base_vel = np.zeros((steps, 3))
        base_rot = np.tile(np.eye(3), (steps, 1, 1))
        base_omega = np.zeros((steps, 3))
    else:
        arg = 2.0 * np.pi * freq * t[:, None, None] + phase
        s = mid + np.sum(amp * np.sin(arg), axis=2)
        s_dot = np.sum(amp * 2.0 * np.pi * freq * np.cos(arg), axis=2)
        barg = 2.0 * np.pi * base_freq * t[:, None] + base_phase
        base_pos = base_amp * np.sin(barg)
        base_vel = base_amp * 2.0 * np.pi * base_freq * np.cos(barg)
        rarg = 2.0 * np.pi * rot_freq * t + rot_phase
        base_rot = rotations_about_axes(axis_factors(rot_axis[None]),
                                        rot_amp * np.sin(rarg)[:, None])[:, 0]
        base_omega = rot_axis * (rot_amp * 2.0 * np.pi * rot_freq * np.cos(rarg))[:, None]
    nu = np.concatenate([base_vel, base_omega, s_dot], axis=1)
    positions = np.empty((steps, model.n_p, 3))
    rotations = np.empty((steps, model.n_o, 3, 3))
    lin = np.empty((steps, model.n_p, 3))
    ang = np.empty((steps, model.n_o, 3))
    for lo in range(0, steps, CHUNK):
        chunk = slice(lo, min(lo + CHUNK, steps))
        fk = model.fk_batch(base_pos[chunk], base_rot[chunk], s[chunk])
        positions[chunk], rotations[chunk] = model.stacked_poses(fk)
        vel = (model.stacked_jacobians(fk) @ nu[chunk, :, None])[:, :, 0]
        lin[chunk] = vel[:, :3 * model.n_p].reshape(lin[chunk].shape)
        ang[chunk] = vel[:, 3 * model.n_p:].reshape(ang[chunk].shape)
    if spec.noise_std > 0.0:
        # drawn at once in the order of a draw per sample: the position,
        # linear- and angular-velocity noise, then the rotation wobble
        sizes = [3 * model.n_p, 3 * model.n_p, 3 * model.n_o, 3 * model.n_o]
        draws = rng.normal(0.0, spec.noise_std, size=(steps, sum(sizes)))
        dp, dv, dw, wobble = np.split(draws, np.cumsum(sizes[:-1]), axis=1)
        positions = positions + dp.reshape(positions.shape)
        lin = lin + dv.reshape(lin.shape)
        ang = ang + dw.reshape(ang.shape)
        rotations = rotation_vectors(wobble.reshape(-1, 3)).reshape(rotations.shape) @ rotations
    truth = [(Configuration(base_pos[k], Rotation.drifting(base_rot[k]), s[k]),
              Velocity(base_vel[k], base_omega[k], s_dot[k])) for k in range(steps)]
    return truth, TargetStream(t, positions, rotations, lin, ang)


# -- stream files --------------------------------------------------------------

def save_stream(path, samples):
    """One JSON record per line; float repr keeps round-trips lossless."""
    with open(path, "w") as fh:
        for sample in samples:
            record = {
                "t": float(sample.t),
                "p": sample.positions.tolist(),
                "R": sample.rotations.reshape(-1, 9).tolist(),
                "v": sample.lin_vels.tolist(),
                "w": sample.ang_vels.tolist(),
            }
            fh.write(json.dumps(record) + "\n")


def _float_array(value):
    """A JSON array of numbers as a float array: a string, null or all-boolean
    array is a TypeError, an integer past the float range an OverflowError."""
    a = np.asarray(value)
    if a.dtype.kind == "O" and all(type(x) in (int, float) for x in a.flat):
        a = a.astype(float)  # integers past int64
    if a.dtype.kind not in "iuf":
        raise TypeError(f"expected numbers, got {value!r:.40}")
    return a if a.dtype == np.float64 else a.astype(float)


def _reject_booleans(value):
    """Raise TypeError if a nested JSON array holds ``true`` or ``false``,
    which numpy would promote to 1 or 0 among numbers."""
    if type(value) is bool:
        raise TypeError("expected numbers, got a boolean")
    if type(value) is list:
        for item in value:
            _reject_booleans(item)


def load_stream(path) -> TargetStream:
    """The ``TargetStream`` of a stream file, one JSON record per line. A
    malformed line raises ``ParseError``; target counts that differ between
    lines, a non-finite value or a rotation that is not one raise
    ``SchemaMismatch``. Lines are parsed one by one and the values checked
    once, for the whole stream."""
    columns = ([], [], [], [], [])
    first = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                t = record["t"]
                if type(t) not in (int, float):
                    raise TypeError(f"t must be a number, got {t!r:.40}")
                # only a line with a "u" (true) or an "a" (false) can hold a
                # boolean; a one-letter search is far cheaper than a word search
                if "u" in line or "a" in line:
                    for key in ("p", "R", "v", "w"):
                        _reject_booleans(record[key])
                t = float(t)
                p = _float_array(record["p"])
                rot = _float_array(record["R"]).reshape(-1, 3, 3)
                v, w = _float_array(record["v"]), _float_array(record["w"])
                row = (t, p.reshape(-1, 3), rot, v.reshape(-1, 3), w.reshape(-1, 3))
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as e:
                raise ParseError(f"line {lineno}: {e}", line=lineno) from None
            _check_counts(*row[1:])
            counts = (len(row[1]), len(row[2]))
            if first is None:
                first = (lineno, counts)
            elif counts != first[1]:
                raise SchemaMismatch(
                    f"line {lineno}: {counts[0]} position / {counts[1]} orientation "
                    f"targets, line {first[0]} has {first[1][0]} / {first[1][1]}")
            for column, value in zip(columns, row):
                column.append(value)
    return TargetStream(*columns)


# -- per-method runners ----------------------------------------------------------

def _velocity_stage(model, q, sample, solver):
    """Differential-kinematics inversion at a solved configuration, under the
    constant joint-velocity bounds."""
    jac = model.stacked_jacobian(q)
    finite = np.isfinite(model.vel_bounds)
    if np.any(finite):
        G = np.zeros((int(finite.sum()), model.n + 6))
        G[:, 6:] = model.constraint_matrix[finite]
        g = model.vel_bounds[finite]
    else:
        G, g = None, None
    sol = solver.solve(LeastSquaresQP(jac, sample.velocity_stack(), G, g,
                                      damping=solver.damping))
    return Velocity.from_stacked(sol.x)


def run_dynamical(model, samples, config):
    gains = GainConfig.build(model, dt=config["dt"], gain=config["gain"],
                             limit_slope=config["limit_slope"],
                             vel_bound_default=config["vel_bound_default"])
    baumgarte = BaumgarteConfig(rho=config["rho"], dt=config["dt"])
    solver = ActiveSetSolver(damping=config["damping"])
    result = track(model, samples, gains, baumgarte, solver=solver)
    times = [r.step_wall_time for r in result.reports]
    return result.configurations, result.velocities, times, result.error


def _run_instantaneous(model, samples, config, solve_fn):
    cfg = InstantaneousConfig(stop_tol=config["stop_tol"], max_iters=config["max_iters"],
                              lm_lambda0=config["lm_lambda0"])
    solver = ActiveSetSolver(damping=config["damping"])
    qs, nus, times = [], [], []
    q = initial_configuration(model, samples[0]) if len(samples) else None
    for sample in samples:
        t0 = time.perf_counter()
        q = solve_fn(sample, q, cfg)
        nu = _velocity_stage(model, q, sample, solver)
        times.append(time.perf_counter() - t0)
        qs.append(q)
        nus.append(nu)
    return qs, nus, times, None


def run_whole_body(model, samples, config):
    return _run_instantaneous(model, samples, config,
                              lambda sample, q, cfg: solve_whole_body(model, sample, q, cfg).q)


def run_pairwise(model, samples, config):
    subsystems = decompose_pairwise(model)

    def solve_fn(sample, q, cfg):
        return solve_pairwise(model, sample, q, cfg, subsystems=subsystems)[0]

    return _run_instantaneous(model, samples, config, solve_fn)


_RUNNERS = {"dynamical": run_dynamical, "whole-body": run_whole_body,
            "pairwise": run_pairwise}


def run_method(method, model, samples, config=None):
    """Track a stream with one method; returns per-step configurations,
    velocities, wall times, and an error string for aborted runs."""
    if method not in _RUNNERS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    merged = dict(DEFAULT_CONFIG)
    merged.update(config or {})
    if "dt" not in merged:
        merged["dt"] = samples[1].t - samples[0].t if len(samples) > 1 else BaumgarteConfig.dt
    return _RUNNERS[method](model, samples, merged)


# -- summaries and the benchmark sweep -----------------------------------------

@dataclass(frozen=True)
class SeriesStats:
    median: float
    p95: float
    iqr: float
    mean: float
    count: int

    @classmethod
    def of(cls, values) -> "SeriesStats":
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return cls(math.nan, math.nan, math.nan, math.nan, 0)
        q25, q75 = np.percentile(values, [25.0, 75.0])
        return cls(median=float(np.median(values)), p95=float(np.percentile(values, 95.0)),
                   iqr=float(q75 - q25), mean=float(values.mean()), count=int(values.size))


@dataclass(eq=False)
class MetricsSummary:
    """Per-step series plus distribution stats over the post-transient window."""

    t: np.ndarray
    mnte_series: np.ndarray
    rmse_series: np.ndarray
    time_series: np.ndarray
    transient_discard: float = TRANSIENT_DISCARD
    mnte_stats: SeriesStats = field(init=False)
    rmse_stats: SeriesStats = field(init=False)
    time_stats: SeriesStats = field(init=False)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.mnte_series = np.asarray(self.mnte_series, dtype=float)
        self.rmse_series = np.asarray(self.rmse_series, dtype=float)
        self.time_series = np.asarray(self.time_series, dtype=float)
        if not (len(self.t) == len(self.mnte_series) == len(self.rmse_series)
                == len(self.time_series)):
            raise ValueError("series lengths differ")
        keep = self.steady_window()
        self.mnte_stats = SeriesStats.of(self.mnte_series[keep])
        self.rmse_stats = SeriesStats.of(self.rmse_series[keep])
        self.time_stats = SeriesStats.of(self.time_series[keep])

    def steady_window(self) -> np.ndarray:
        if self.t.size == 0:
            return np.zeros(0, dtype=bool)
        return self.t - self.t[0] >= self.transient_discard


@dataclass(eq=False)
class RunRecord:
    method: str
    model_id: str
    trajectory_id: str
    config: dict
    metrics: MetricsSummary
    steps: int
    failures: int
    error: str | None = None


def summarize_run(model, stream: TargetStream, qs, nus, times,
                  transient_discard=TRANSIENT_DISCARD) -> MetricsSummary:
    """Per-step metrics of a run: ``qs[i]`` and ``nus[i]`` are scored against
    sample i of the stream, in chunks of ``CHUNK`` steps."""
    count = len(qs)
    if count:
        stream.check_model(model)
    mnte_series = np.zeros(count)
    rmse_series = np.zeros(count)
    for lo in range(0, count, CHUNK):
        chunk = slice(lo, min(lo + CHUNK, count))
        mnte_series[chunk] = _mnte_batch(model, qs[chunk], stream.rotations[chunk])
        rmse_series[chunk] = _rmse_angvel_batch(model, qs[chunk], nus[chunk],
                                                stream.ang_vels[chunk])
    return MetricsSummary(stream.t[:count], mnte_series, rmse_series,
                          np.asarray(times, dtype=float), transient_discard=transient_discard)


def _bench_cell(method, model_id, model, trajectory_id, samples, config, transient_discard):
    try:
        qs, nus, times, error = run_method(method, model, samples, config)
    except InvalidSetting:
        raise  # a bad setting is the sweep's error, not the cell's
    except IkTrackError as e:
        qs, nus, times, error = [], [], [], str(e)
    metrics = summarize_run(model, samples, qs, nus, times, transient_discard)
    return RunRecord(method=method, model_id=model_id, trajectory_id=trajectory_id,
                     config=dict(config or {}), metrics=metrics, steps=len(qs),
                     failures=0 if error is None else 1, error=error)


def run_benchmark(models, specs, methods, config=None, transient_discard=TRANSIENT_DISCARD):
    """Run the full (model x spec x method) grid.

    ``models`` and ``specs`` are (id, value) pairs; streams are generated per
    (model, spec) cell. Individual failures are recorded without aborting the
    sweep, except an ``InvalidSetting``, which aborts it. Returns the records
    in declaration order plus the results CSV.
    """
    merged = dict(DEFAULT_CONFIG)
    merged.update(config or {})
    records = []
    for model_id, model in models:
        for spec_id, spec in specs:
            _, samples = generate_stream(model, spec)
            cell_config = dict(merged)
            cell_config.setdefault("dt", spec.dt)
            records.extend(_bench_cell(method, model_id, model, spec_id, samples, cell_config,
                                       transient_discard) for method in methods)
    return records, results_csv(records)


def results_csv(records) -> str:
    lines = ["method,model,scenario,mnte_median,mnte_p95,rmse_median,rmse_p95,"
             "time_median_ms,time_p95_ms,steps,failures"]
    for rec in records:
        m = rec.metrics
        lines.append(",".join([
            rec.method, rec.model_id, rec.trajectory_id,
            repr(m.mnte_stats.median), repr(m.mnte_stats.p95),
            repr(m.rmse_stats.median), repr(m.rmse_stats.p95),
            repr(m.time_stats.median * 1e3), repr(m.time_stats.p95 * 1e3),
            str(rec.steps), str(rec.failures),
        ]))
    return "\n".join(lines) + "\n"
