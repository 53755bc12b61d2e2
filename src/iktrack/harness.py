"""Synthetic trajectory generation, tracking metrics, stream files, and the
benchmark sweep. This module owns all I/O; the solvers stay pure.
"""
from __future__ import annotations

import json
import math
import time
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, replace

import numpy as np
import orjson

from ._kernels import axis_factors, rotation_vectors, rotations_about_axes
from .baselines import (InstantaneousConfig, decompose_pairwise, solve_pairwise,
                        solve_whole_body)
from .errors import (IkTrackError, InvalidSetting, ParseError, QPInfeasible, SchemaMismatch,
                     SpecInfeasible, _float_array, _reject_booleans, check_setting)
from .model import Configuration, KinematicModel, Velocity
from .qp import ActiveSetSolver, LeastSquaresQP, QPStatus
from .so3 import BaumgarteConfig, Rotation, project_stack_to_so3
from .tracker import (_FIELDS, GainConfig, TargetStream, TrackResult, _check_counts,
                      _check_values, track)

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


def _frame_targets(model, base_pos, base_rot, s, nu):
    """Target-frame positions, rotations, linear and angular velocities over T
    samples of configurations (T, 3), (T, 3, 3), (T, n) moving at (T, 6 + n):
    FK, the stacked poses and J·ν, in batches of ``CHUNK`` samples."""
    count = len(s)
    positions = np.empty((count, model.n_p, 3))
    rotations = np.empty((count, model.n_o, 3, 3))
    vel = np.empty((count, model.n_p + model.n_o, 3))
    for lo in range(0, count, CHUNK):
        chunk = slice(lo, min(lo + CHUNK, count))
        fk = model.fk_batch(base_pos[chunk], base_rot[chunk], s[chunk])
        positions[chunk], rotations[chunk] = model.stacked_poses(fk)
        vel[chunk] = (model.stacked_jacobians(fk) @ nu[chunk, :, None]).reshape(vel[chunk].shape)
    return positions, rotations, vel[:, :model.n_p], vel[:, model.n_p:]


def _scores(model, base_pos, base_rot, s, nu, target_rot, target_angvel):
    """mnte and rmse_angvel of configurations (B, 3), (B, 3, 3), (B, n) and
    velocities (B, 6 + n) against targets (B, n_o, 3, 3) and (B, n_o, 3),
    both from one ``_frame_targets`` pass with the bases projected onto
    SO(3). No orientation targets score 0, and no samples score empty."""
    if model.n_o == 0 or not len(s):
        return np.zeros(len(s)), np.zeros(len(s))
    _, rotations, _, ang = _frame_targets(model, base_pos, project_stack_to_so3(base_rot), s, nu)
    traces = np.einsum("bkij,bkij->bk", rotations, target_rot)
    mnte_scores = np.mean(np.maximum((3.0 - traces) / 2.0, 0.0), axis=1)
    err = target_angvel - ang
    return mnte_scores, np.sqrt(np.mean(np.sum(err * err, axis=2) / 3.0, axis=1))


# -- trajectory specs and synthetic streams -----------------------------------

@dataclass(frozen=True)
class TrajectorySpec:
    """Recipe for a synthetic target stream. Construction rejects a NaN,
    infinite or negative number, a ``freq_band`` whose low end is above its
    high end and a seed that is not a non-negative integer
    (``InvalidSetting``), and makes ``freq_band`` a tuple."""

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
        check_setting("seed", self.seed, zero_ok=True, integer=True)
        band = tuple(self.freq_band)
        if len(band) != 2:
            raise InvalidSetting(f"freq_band must hold two frequencies, got {band!r}")
        for f in band:
            check_setting("freq_band", f, zero_ok=True)
        if band[0] > band[1]:
            raise InvalidSetting(f"freq_band must run from low to high, got {band!r}")
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
        joint_vel = np.zeros((steps, model.n))
        base_pos = np.zeros((steps, 3))
        base_vel = np.zeros((steps, 3))
        base_rot = np.tile(np.eye(3), (steps, 1, 1))
        base_omega = np.zeros((steps, 3))
    else:
        arg = 2.0 * np.pi * freq * t[:, None, None] + phase
        s = mid + np.sum(amp * np.sin(arg), axis=2)
        joint_vel = np.sum(amp * 2.0 * np.pi * freq * np.cos(arg), axis=2)
        barg = 2.0 * np.pi * base_freq * t[:, None] + base_phase
        base_pos = base_amp * np.sin(barg)
        base_vel = base_amp * 2.0 * np.pi * base_freq * np.cos(barg)
        rarg = 2.0 * np.pi * rot_freq * t + rot_phase
        base_rot = rotations_about_axes(axis_factors(rot_axis[None]),
                                        rot_amp * np.sin(rarg)[:, None])[:, 0]
        base_omega = rot_axis * (rot_amp * 2.0 * np.pi * rot_freq * np.cos(rarg))[:, None]
    nu = np.concatenate([base_vel, base_omega, joint_vel], axis=1)
    positions, rotations, lin, ang = _frame_targets(model, base_pos, base_rot, s, nu)
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
    truth = [(Configuration(base_pos[k], Rotation.drifting(base_rot[k]), s[k]), Velocity(nu[k]))
             for k in range(steps)]
    return truth, TargetStream(t, positions, rotations, lin, ang)


# -- stream files --------------------------------------------------------------

def save_stream(path, samples):
    """One JSON record per line, written by orjson without spaces. Each number
    has the shortest digits that read back to the same float (``repr``'s
    digits), so ``load_stream`` gives the saved arrays bit for bit. A NaN or
    an infinity raises ``SchemaMismatch`` before the file is opened."""
    lines = []
    for sample in samples:
        line = orjson.dumps({
            "t": float(sample.t),
            "p": sample.positions.tolist(),
            "R": sample.rotations.reshape(-1, 9).tolist(),
            "v": sample.lin_vels.tolist(),
            "w": sample.ang_vels.tolist(),
        }, option=orjson.OPT_APPEND_NEWLINE)
        # orjson writes a NaN or an infinity as null, whose "n" no key or
        # number holds; a one-byte search is far cheaper than a finite check
        if b"n" in line:
            _check_values(*(np.asarray(getattr(sample, name))[None] for name in _FIELDS))
        lines.append(line)
    with open(path, "wb") as fh:
        fh.writelines(lines)


# orjson 3.8 parses nesting of any depth and recurses until the C stack
# overflows (a line nested 100000 deep kills the interpreter), where json.loads
# raises RecursionError near the recursion limit (1000 by default). A line with
# at most this many "[" and "{" nests within both; a human66 record holds 53.
_ORJSON_OPENERS = 512


def load_stream(path) -> TargetStream:
    """The ``TargetStream`` of a stream file, one JSON record per line. A
    malformed line raises ``ParseError``; target counts that differ between
    lines, a non-finite value or a rotation that is not one raise
    ``SchemaMismatch``. Lines are parsed one by one and the values checked
    once, for the whole stream.

    Each line is parsed by ``orjson.loads``; a line it refuses (``NaN``,
    ``Infinity``, a number past the float range, a lone surrogate, a
    malformed record) or one with more than ``_ORJSON_OPENERS`` brackets is
    parsed by ``json.loads``, which accepts it or raises the error that names
    the line. Both parsers give the same doubles, so the arrays and the
    errors are those of a ``json.loads`` reader."""
    columns = ([], [], [], [], [])
    first = None
    # a byte that is not UTF-8 is read as a lone surrogate, so the line that
    # holds it is the one named
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if not line.isascii():
                try:
                    line.encode()
                except UnicodeEncodeError as e:
                    raise ParseError(f"line {lineno}, column {e.start + 1}: not UTF-8",
                                     line=lineno, column=e.start + 1) from None
            try:
                record = None
                if line.count("[") + line.count("{") <= _ORJSON_OPENERS:
                    try:
                        record = orjson.loads(line)
                    except orjson.JSONDecodeError:
                        pass
                if record is None:
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

def _velocity_stage(model, q, sample, gains, solver):
    """Differential-kinematics inversion at a solved configuration, under the
    constant joint-velocity bounds: the model's limit rows, where an unbounded
    row's stand-in bound, ``gains.vel_bound_default`` (1e3 rad/s by default),
    is beyond any human joint speed, so that row does not bind. Inconsistent
    rows raise ``QPInfeasible``."""
    G, g = model.limit_rows(gains.vel_bound_default)
    sol = solver.solve(LeastSquaresQP(model.stacked_jacobian(q), sample.velocity_stack(), G, g,
                                      damping=solver.damping))
    if sol.status is QPStatus.INFEASIBLE:
        raise QPInfeasible("the velocity constraints are inconsistent")
    return sol.x


def _settings(config, dt):
    """The gains, drift correction, QP solver and iterative-baseline settings
    of a merged config at sample spacing ``dt``; ``InvalidSetting`` for a
    value out of range or past a stability guard."""
    return (GainConfig(gain=config["gain"], limit_slope=config["limit_slope"],
                       vel_bound_default=config["vel_bound_default"], dt=dt),
            BaumgarteConfig(rho=config["rho"], dt=dt),
            ActiveSetSolver(damping=config["damping"]),
            InstantaneousConfig(stop_tol=config["stop_tol"], max_iters=config["max_iters"],
                                lm_lambda0=config["lm_lambda0"]))


def _check_method(method):
    if method not in METHODS:
        raise InvalidSetting(f"unknown method {method!r}; expected one of {METHODS}")


def _merged_config(config):
    """``DEFAULT_CONFIG`` updated by ``config``. ``InvalidSetting`` for a
    config that is not a mapping, or a key that is neither a default's nor
    ``dt``, so a misspelt setting is never dropped."""
    if config is None:
        config = {}
    if not isinstance(config, Mapping):
        raise InvalidSetting(f"config must be a mapping of settings, got {config!r:.40}")
    for key in config:
        if key not in DEFAULT_CONFIG and key != "dt":
            raise InvalidSetting(f"unknown setting {key!r}; expected one of "
                                 f"{(*DEFAULT_CONFIG, 'dt')}")
    return {**DEFAULT_CONFIG, **config}


def run_method(method, model, samples, config=None) -> TrackResult:
    """Track a stream with one method; returns its ``TrackResult``, with the
    error set for a run that stopped early. An unknown method, or a setting
    of any method unknown or out of range, raises ``InvalidSetting``."""
    _check_method(method)
    merged = _merged_config(config)
    if "dt" not in merged:
        merged["dt"] = samples[1].t - samples[0].t if len(samples) > 1 else BaumgarteConfig.dt
    gains, baumgarte, solver, cfg = _settings(merged, merged["dt"])
    if method == "dynamical":
        return track(model, samples, gains, baumgarte, solver=solver)
    subsystems = decompose_pairwise(model) if method == "pairwise" else None

    def advance(q, sample):
        """Solve a sample from the last configuration with the method's
        per-sample solve, then its velocity."""
        t0 = time.perf_counter()
        if subsystems is None:
            q = solve_whole_body(model, sample, q, cfg).q
        else:
            q = solve_pairwise(model, sample, q, cfg, subsystems=subsystems)[0]
        nu = _velocity_stage(model, q, sample, gains, solver)
        return q, nu, time.perf_counter() - t0

    return TrackResult.of_run(model, samples, advance)


# -- summaries and the benchmark sweep -----------------------------------------

@dataclass(frozen=True)
class SeriesStats:
    median: float
    p95: float

    @classmethod
    def of(cls, values) -> "SeriesStats":
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return cls(math.nan, math.nan)
        return cls(median=float(np.median(values)), p95=float(np.percentile(values, 95.0)))


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


def summarize_run(model, stream: TargetStream, run: TrackResult,
                  transient_discard=TRANSIENT_DISCARD) -> MetricsSummary:
    """Per-step metrics of a run: row i of ``run`` is scored against sample i
    of the stream in one ``_scores`` call, both scores at its configuration
    with the base projected onto SO(3)."""
    count = len(run.step_time)
    if count:
        stream.check_model(model)
    mnte_series, rmse_series = _scores(model, run.base_pos, run.base_rot, run.s, run.nu,
                                       stream.rotations[:count], stream.ang_vels[:count])
    return MetricsSummary(stream.t[:count], mnte_series, rmse_series, run.step_time,
                          transient_discard=transient_discard)


def _bench_cell(method, model_id, model, trajectory_id, samples, config, transient_discard):
    try:
        run = run_method(method, model, samples, config)
    except InvalidSetting:
        raise  # a bad setting is the sweep's error, not the cell's
    except IkTrackError as e:
        run = replace(TrackResult.of_run(model, [], None), error=str(e))
    metrics = summarize_run(model, samples, run, transient_discard)
    return RunRecord(method=method, model_id=model_id, trajectory_id=trajectory_id,
                     config=dict(config or {}), metrics=metrics, steps=len(run.step_time),
                     failures=0 if run.error is None else 1, error=run.error)


def _sweep_settings(specs, methods, config):
    """The method list and merged config of a sweep over ``specs``;
    ``InvalidSetting`` for an unknown method, or a setting unknown or out of
    range at any spec's sample spacing (at the default spacing when there is
    no spec)."""
    if isinstance(methods, str) or not isinstance(methods, Iterable):
        raise InvalidSetting(f"methods must be a list of method names, got {methods!r:.40}")
    methods = list(methods)
    for method in methods:
        _check_method(method)
    merged = _merged_config(config)
    for dt in [spec.dt for _, spec in specs] or [BaumgarteConfig.dt]:
        _settings(merged, merged.get("dt", dt))
    return methods, merged


def run_benchmark(models, specs, methods, config=None, transient_discard=TRANSIENT_DISCARD):
    """Run the full (model x spec x method) grid.

    ``models`` and ``specs`` are (id, value) pairs; streams are generated per
    (model, spec) cell. A method's failure is recorded in its cell, with the
    steps it completed. Two errors abort the sweep: an ``InvalidSetting``,
    which an unknown method, a setting unknown or out of range, or a gain or
    rho past its stability guard raises before any stream is generated, and
    the ``SpecInfeasible`` of a stream that cannot be generated.
    Returns the records in declaration order plus the results CSV.
    """
    methods, merged = _sweep_settings(specs, methods, config)
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
