import copy
import dataclasses
import hashlib
import json
import re
import warnings

import numpy as np
import orjson
import pytest

import iktrack as ik
from iktrack import (Configuration, MetricsSummary, Rotation, TargetSample,
                     TrajectorySpec, Velocity, generate_stream, load_stream, project_to_so3,
                     results_csv, run_benchmark, run_method, save_stream, summarize_run)
from iktrack.errors import (DegenerateMatrix, ParseError, QPInfeasible, SchemaMismatch,
                            SpecInfeasible)
from iktrack._kernels import orthonormality_errors
from iktrack.harness import CHUNK, METHODS

from conftest import (base_only_model, branched_model, mnte, rmse_angvel, rodrigues,
                      run_configurations, run_velocities, single_joint_model, static_sample,
                      target_poses)


class TestMetrics:
    def test_mnte_zero_when_matched(self, human66):
        rng = np.random.default_rng(0)
        q = Configuration(rng.normal(size=3), Rotation.about_axis([1, 0, 1], 0.5),
                          rng.normal(scale=0.3, size=human66.n))
        assert mnte(human66, q, static_sample(human66, q)) <= 1e-15

    def test_mnte_not_negative_on_drifting_base(self, human66):
        rng = np.random.default_rng(4)
        q = Configuration(rng.normal(size=3), Rotation.about_axis([1, 0, 1], 0.5),
                          rng.normal(scale=0.3, size=human66.n))
        sample = static_sample(human66, q)
        drifted = Configuration(q.base_pos, Rotation.drifting(1.01 * q.base_rot.m), q.s)
        assert 0.0 <= mnte(human66, drifted, sample) <= 1e-12

    def test_mnte_single_frame_values(self):
        m = base_only_model(orientation_target=True)
        q = Configuration.zeros(m)
        for angle, expected in ((np.pi / 3, 0.5), (np.pi / 2, 1.0)):
            sample = TargetSample(t=0.0, positions=[[0.0, 0.0, 0.0]],
                                  rotations=rodrigues([0, 1, 0], angle)[None],
                                  lin_vels=np.zeros((1, 3)), ang_vels=np.zeros((1, 3)))
            assert abs(mnte(m, q, sample) - expected) <= 1e-12

    def test_mnte_invariant_under_global_rotation(self, human66):
        rng = np.random.default_rng(1)
        q = Configuration(rng.normal(size=3), Rotation.about_axis([0, 1, 0], 0.4),
                          rng.normal(scale=0.3, size=human66.n))
        spec = TrajectorySpec(kind="static_pose", duration=0.02, dt=0.01,
                              amplitude=0.2, seed=2)
        _, samples = generate_stream(human66, spec)
        sample = samples[0]
        before = mnte(human66, q, sample)
        world = rodrigues([0.3, -0.5, 0.8], 1.3)
        q_rot = Configuration(world @ q.base_pos, Rotation.drifting(world @ q.base_rot.m), q.s)
        sample_rot = TargetSample(t=sample.t,
                                  positions=sample.positions @ world.T,
                                  rotations=np.einsum("ab,kbc->kac", world, sample.rotations),
                                  lin_vels=sample.lin_vels,
                                  ang_vels=sample.ang_vels)
        assert abs(mnte(human66, q_rot, sample_rot) - before) <= 1e-12

    def test_rmse_zero_for_exact_state(self, human66):
        rng = np.random.default_rng(3)
        q = Configuration(rng.normal(size=3), Rotation.about_axis([1, 1, 1], 0.3),
                          rng.normal(scale=0.3, size=human66.n))
        nu = Velocity(rng.normal(size=human66.n + 6))
        positions, rotations = target_poses(human66, q)
        vel = human66.stacked_jacobian(q) @ nu.stacked()
        sample = TargetSample(t=0.0, positions=positions, rotations=rotations,
                              lin_vels=vel[:3].reshape(-1, 3),
                              ang_vels=vel[3:].reshape(-1, 3))
        assert rmse_angvel(human66, q, nu, sample) <= 1e-12

    def test_rmse_single_frame_values(self):
        m = base_only_model(orientation_target=True)
        q = Configuration.zeros(m)
        nu = Velocity.zeros(m)
        sample = TargetSample(t=0.0, positions=[[0.0, 0.0, 0.0]],
                              rotations=np.eye(3)[None],
                              lin_vels=np.zeros((1, 3)), ang_vels=[[1.0, 1.0, 1.0]])
        assert abs(rmse_angvel(m, q, nu, sample) - 1.0) <= 1e-12
        sample2 = TargetSample(t=0.0, positions=[[0.0, 0.0, 0.0]],
                               rotations=np.eye(3)[None],
                               lin_vels=np.zeros((1, 3)), ang_vels=[[2.0, 0.0, 0.0]])
        assert abs(rmse_angvel(m, q, nu, sample2) - np.sqrt(4.0 / 3.0)) <= 1e-12


class TestGenerateStream:
    def test_static_pose_is_constant(self, human66):
        spec = TrajectorySpec(kind="static_pose", duration=0.05, dt=0.01,
                              amplitude=0.2, seed=4)
        truth, samples = generate_stream(human66, spec)
        assert len(samples) == 5
        for sample in samples[1:]:
            assert np.array_equal(sample.positions, samples[0].positions)
            assert np.array_equal(sample.rotations, samples[0].rotations)
            assert np.array_equal(sample.lin_vels, np.zeros((1, 3)))

    def test_velocity_consistency(self, human66):
        spec = TrajectorySpec(kind="random_smooth", duration=0.1, dt=0.01,
                              amplitude=0.3, seed=5)
        truth, samples = generate_stream(human66, spec)
        for (q, nu), sample in zip(truth, samples):
            vel = human66.stacked_jacobian(q) @ nu.stacked()
            stacked = sample.velocity_stack()
            assert np.abs(vel - stacked).max() <= 1e-10

    def test_deterministic_in_seed(self, human66):
        spec = TrajectorySpec(kind="sinusoidal", duration=0.05, dt=0.01,
                              amplitude=0.25, seed=6)
        _, a = generate_stream(human66, spec)
        _, b = generate_stream(human66, spec)
        for x, y in zip(a, b):
            assert np.array_equal(x.positions, y.positions)
            assert np.array_equal(x.rotations, y.rotations)
            assert np.array_equal(x.lin_vels, y.lin_vels)
            assert np.array_equal(x.ang_vels, y.ang_vels)

    def test_amplitude_over_limits_rejected(self, human48):
        spec = TrajectorySpec(kind="sinusoidal", duration=0.05, dt=0.01,
                              amplitude=1.0, seed=7)
        with pytest.raises(SpecInfeasible):
            generate_stream(human48, spec)

    def test_within_limits_accepted(self, human48):
        spec = TrajectorySpec(kind="sinusoidal", duration=0.05, dt=0.01,
                              amplitude=0.3, seed=7)
        truth, _ = generate_stream(human48, spec)
        a, b = human48.constraint_matrix, human48.config_bounds
        for q, _ in truth:
            assert np.max(a @ q.s - b) <= 0.0

    def test_noise_switch(self, human66):
        clean = TrajectorySpec(kind="sinusoidal", duration=0.03, dt=0.01,
                               amplitude=0.2, seed=8)
        noisy = TrajectorySpec(kind="sinusoidal", duration=0.03, dt=0.01,
                               amplitude=0.2, seed=8, noise_std=0.01)
        _, a = generate_stream(human66, clean)
        _, b = generate_stream(human66, noisy)
        assert not np.array_equal(a[0].positions, b[0].positions)
        assert orthonormality_errors(b[0].rotations).max() <= 1e-9  # still rotations

    @pytest.mark.parametrize("field, value", [
        ("duration", np.nan), ("duration", np.inf), ("dt", np.nan), ("amplitude", np.nan),
        ("amplitude", -0.1), ("noise_std", np.nan), ("noise_std", -0.01),
        ("freq_band", (0.5, np.nan)), ("freq_band", (-1.0, 1.0)), ("freq_band", (1.0,)),
        ("freq_band", (2.0, 1.0)),
    ])
    def test_spec_rejects_nan_infinite_and_negative_values(self, field, value):
        """A NaN or infinite duration would fail in the step count, a NaN or
        negative noise level would give a clean stream; each bad value is an
        ``InvalidSetting`` naming its field."""
        fields = {"kind": "sinusoidal", "duration": 0.3, "dt": 0.01, "amplitude": 0.2,
                  field: value}
        with pytest.raises(ValueError, match=field) as exc:
            TrajectorySpec(**fields)
        assert isinstance(exc.value, ik.IkTrackError)

    @pytest.mark.parametrize("seed", ["x", 1.5, 1e30, -1, True, None])
    def test_spec_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        """A string, float or negative seed would fail in the generator with a
        raw error, and ``True`` would run as seed 1."""
        with pytest.raises(ik.InvalidSetting, match="seed must be a non-negative integer"):
            TrajectorySpec(kind="sinusoidal", duration=0.3, dt=0.01, amplitude=0.2, seed=seed)

    @pytest.mark.parametrize("fields, message", [
        ({"kind": "walk"}, "unknown trajectory kind 'walk'"),
        ({"duration": 0.005}, "need duration >= dt"),
    ])
    def test_spec_rejects_an_unknown_kind_or_less_than_one_sample(self, fields, message):
        fields = {"kind": "sinusoidal", "duration": 0.3, "dt": 0.01, "amplitude": 0.2, **fields}
        with pytest.raises(ik.InvalidSetting) as exc:
            TrajectorySpec(**fields)
        assert str(exc.value) == message

    def test_spec_holds_freq_band_as_a_tuple(self):
        spec = TrajectorySpec(kind="sinusoidal", duration=0.3, dt=0.01, amplitude=0.2,
                              freq_band=[0.5, 1.5])
        assert spec.freq_band == (0.5, 1.5)
        assert hash(spec) == hash(TrajectorySpec(kind="sinusoidal", duration=0.3, dt=0.01,
                                                 amplitude=0.2, freq_band=(0.5, 1.5)))
        # equal ends are one frequency, not an inverted band
        assert TrajectorySpec(kind="sinusoidal", duration=0.3, dt=0.01, amplitude=0.2,
                              freq_band=[1.0, 1.0]).freq_band == (1.0, 1.0)


def pipeline_model(name, request):
    return branched_model() if name == "branched" else request.getfixturevalue(name)


def per_sample_scores(model, q, nu, sample):
    """mnte and rmse_angvel of one step from single-configuration kinematics
    at q with its base rotation polar-projected: the estimate's rotations
    against the targets, and the angular rows of J nu against the
    angular-velocity targets."""
    projected = Configuration(q.base_pos, project_to_so3(q.base_rot), q.s)
    rotations = target_poses(model, projected).rotations
    traces = np.einsum("kij,kij->k", rotations, sample.rotations)
    score = float(np.mean(np.maximum((3.0 - traces) / 2.0, 0.0)))
    est = (model.stacked_jacobian(projected) @ nu.stacked())[3 * model.n_p:].reshape(-1, 3)
    err = sample.ang_vels - est
    return score, float(np.sqrt(np.mean(np.sum(err * err, axis=1) / 3.0)))


# sha256 prefixes of the stream files for random_smooth, amplitude 0.3,
# noise_std 0.01, seed 21 (numpy 2.4, x86-64), in orjson's notation. Every
# line parses to the floats, bit for bit, of the file the per-sample generator
# wrote with json.dumps; the chunked generator draws the noise in the same order
NOISY_DIGESTS = {
    ("human66", 1): "70cf00b13630bc9f", ("human66", CHUNK): "c914687d244f037f",
    ("human66", CHUNK + 1): "528dbde7833b5ec5",
    ("human48", 1): "c04e675cc4e3746e", ("human48", CHUNK): "3351275b73928d87",
    ("human48", CHUNK + 1): "fe5a5a5295b2a554",
    ("branched", 1): "928827e8f2796a7f", ("branched", CHUNK): "56f504371b7cb124",
    ("branched", CHUNK + 1): "712a20d7c95f963a",
}


@pytest.mark.parametrize("name", ["human66", "human48", "branched"])
@pytest.mark.parametrize("length", [1, CHUNK, CHUNK + 1])
class TestChunkedPipeline:
    """Stream generation and scoring run in chunks over time; each sample must
    equal, bit for bit, what single-configuration kinematics give."""

    @pytest.mark.parametrize("kind", ["static_pose", "sinusoidal", "random_smooth"])
    def test_stream_equals_per_sample_kinematics(self, name, length, kind, request):
        model = pipeline_model(name, request)
        spec = TrajectorySpec(kind=kind, duration=0.01 * length, dt=0.01, amplitude=0.3,
                              seed=13)
        truth, samples = generate_stream(model, spec)
        assert len(samples) == len(truth) == length
        for k, ((q, nu), sample) in enumerate(zip(truth, samples)):
            positions, rotations = target_poses(model, q)
            assert type(sample.t) is float and sample.t == k * 0.01
            assert np.array_equal(sample.positions, positions)
            assert np.array_equal(sample.rotations, rotations)
            velocities = model.stacked_jacobian(q) @ nu.stacked()
            assert np.array_equal(sample.velocity_stack(), velocities)

    def test_noisy_stream_file_is_pinned(self, name, length, request, tmp_path):
        model = pipeline_model(name, request)
        spec = TrajectorySpec(kind="random_smooth", duration=0.01 * length, dt=0.01,
                              amplitude=0.3, seed=21, noise_std=0.01)
        path = tmp_path / "noisy.jsonl"
        save_stream(path, generate_stream(model, spec)[1])
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == NOISY_DIGESTS[name, length]

    def test_summary_equals_per_sample_scores(self, name, length, request):
        model = pipeline_model(name, request)
        spec = TrajectorySpec(kind="random_smooth", duration=0.01 * length, dt=0.01,
                              amplitude=0.3, seed=15)
        _, samples = generate_stream(model, spec)
        tracked = run_method("dynamical", model, samples)
        # a drifting base: scaled and sheared off SO(3), as the integrator may leave it
        rng = np.random.default_rng(length)
        drifting = dataclasses.replace(tracked, base_rot=np.array([
            r @ (1.01 * np.eye(3) + 0.003 * rng.normal(size=(3, 3)))
            for r in tracked.base_rot]).reshape(-1, 3, 3))
        nus = run_velocities(tracked)
        for run in (tracked, drifting):
            summary = summarize_run(model, samples, run)
            for i, (q, nu, sample) in enumerate(zip(run_configurations(run), nus, samples)):
                expected = per_sample_scores(model, q, nu, sample)
                assert (summary.mnte_series[i], summary.rmse_series[i]) == expected
                assert (mnte(model, q, sample), rmse_angvel(model, q, nu, sample)) == expected


def truth_run(model, truth):
    """The ground truth of ``generate_stream`` as a ``TrackResult`` with zero
    step times."""
    return ik.TrackResult(np.array([q.base_pos for q, _ in truth]),
                          np.array([q.base_rot.m for q, _ in truth]),
                          np.array([q.s for q, _ in truth]),
                          np.array([nu.stacked() for _, nu in truth]), np.zeros(len(truth)))


def test_summary_rejects_a_reflecting_base_inside_a_chunk(human66):
    spec = TrajectorySpec(kind="static_pose", duration=0.05, dt=0.01, amplitude=0.1, seed=3)
    truth, samples = generate_stream(human66, spec)
    run = truth_run(human66, truth)
    run.base_rot[2] = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(DegenerateMatrix):
        summarize_run(human66, samples, run)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_scores_reject_a_non_finite_drifting_base(human66, value):
    spec = TrajectorySpec(kind="static_pose", duration=0.05, dt=0.01, amplitude=0.1, seed=3)
    truth, samples = generate_stream(human66, spec)
    run = truth_run(human66, truth)
    run.base_rot[2] = np.eye(3)
    run.base_rot[2, 0, 0] = value
    with pytest.raises(DegenerateMatrix):
        mnte(human66, run_configurations(run)[2], samples[2])
    with pytest.raises(DegenerateMatrix):
        summarize_run(human66, samples, run)


def test_no_orientation_targets_score_zero():
    """A position-only model has no orientation to score: 0 in the summary and
    in both single-sample scores."""
    m = base_only_model()
    spec = TrajectorySpec(kind="sinusoidal", duration=0.05, dt=0.01, amplitude=0.1, seed=3)
    _, samples = generate_stream(m, spec)
    run = run_method("dynamical", m, samples)
    qs, nus, error = run_configurations(run), run_velocities(run), run.error
    assert error is None and len(qs) == 5
    summary = summarize_run(m, samples, run)
    assert np.array_equal(summary.mnte_series, np.zeros(5))
    assert np.array_equal(summary.rmse_series, np.zeros(5))
    for q, nu, sample in zip(qs, nus, samples):
        assert (mnte(m, q, sample), rmse_angvel(m, q, nu, sample)) == (0.0, 0.0)


def finite_row_velocity(model, q, sample, solver):
    """The velocity stage's QP over the finite-bound limit rows only, leaving
    out an unbounded row instead of giving it a stand-in bound."""
    finite = np.isfinite(model.vel_bounds)
    G = np.zeros((int(finite.sum()), model.n + 6))
    G[:, 6:] = model.constraint_matrix[finite]
    return solver.solve(ik.LeastSquaresQP(model.stacked_jacobian(q), sample.velocity_stack(),
                                          G, model.vel_bounds[finite],
                                          damping=solver.damping))


def test_velocity_stage_equals_the_finite_rows_only(human48):
    """The whole-body velocity stage keeps the model's unbounded row at its
    stand-in bound, which never binds: each velocity equals, bit for bit,
    the QP over the finite-bound rows, on a stream fast enough that they
    bind."""
    assert np.isinf(human48.vel_bounds).sum() == 1
    spec = TrajectorySpec(kind="random_smooth", duration=1.0, dt=0.01, amplitude=0.4,
                          freq_band=(3.0, 5.0), seed=5)
    _, stream = generate_stream(human48, spec)
    run = run_method("whole-body", human48, stream)
    qs, nus, error = run_configurations(run), run_velocities(run), run.error
    assert error is None
    solver = ik.ActiveSetSolver()
    bound = 0
    for q, nu, sample in zip(qs, nus, stream):
        sol = finite_row_velocity(human48, q, sample, solver)
        bound += bool(sol.active_set)
        assert np.array_equal(nu.stacked(), sol.x)
    assert bound >= 5


def test_vel_bound_default_bounds_the_whole_body_velocity(human48, human66):
    """``vel_bound_default`` is the stand-in bound of the whole-body velocity
    stage, as of the tracker's limit rows: on human48 retargeting a human66
    stream, 0.05 rad/s holds the model's unbounded row and changes the
    velocities, which the default bound leaves past it; the configurations
    do not move."""
    spec = TrajectorySpec(kind="random_smooth", duration=1.0, dt=0.01, amplitude=1.0,
                          freq_band=(0.3, 1.0), seed=5)
    _, stream = generate_stream(human66, spec)
    default = run_method("whole-body", human48, stream)
    slow = run_method("whole-body", human48, stream, {"vel_bound_default": 0.05})
    assert (default.error, slow.error) == (None, None)
    assert np.array_equal(slow.s, default.s)
    G, g = human48.limit_rows(0.05)
    assert (slow.nu @ G.T <= g + 1e-9).all()
    assert not (default.nu @ G.T <= g + 1e-9).all()


@pytest.mark.parametrize("method", ["whole-body", "pairwise"])
def test_inconsistent_velocity_rows_are_reported(method):
    """A two-link arm whose extra rows ask the first joint's velocity to be
    at most -1 and at least 1, with its angle unbounded: the baseline solves
    sample 0, its velocity stage finds no velocity, and the run records the
    reason and no row."""
    rows = ik.ExtraConstraints(a=[[1, 0], [-1, 0]], b_q=[np.inf, np.inf], b_nu=[-1, -1])
    m = ik.KinematicModel(
        links=[ik.Link("base"), ik.Link("upper"), ik.Link("tip")],
        joints=[ik.Joint("shoulder", "base", "upper", axis=[0, 0, 1], origin_xyz=[0.1, 0, 0]),
                ik.Joint("elbow", "upper", "tip", axis=[0, 1, 0], origin_xyz=[0.5, 0, 0])],
        base_link="base", position_targets=["base"], orientation_targets=["base", "tip"],
        extra_constraints=rows)
    run = run_method(method, m, [static_sample(m, Configuration.zeros(m))])
    assert run.error == "step 0: the velocity constraints are inconsistent"
    assert len(run.step_time) == 0


def per_element_lines(samples, dumps):
    """The lines of a stream file that ``dumps`` writes from records built
    one float at a time."""
    return [dumps({
        "t": float(x.t),
        "p": [[float(v) for v in row] for row in x.positions],
        "R": [[float(v) for v in rot.ravel()] for rot in x.rotations],
        "v": [[float(v) for v in row] for row in x.lin_vels],
        "w": [[float(v) for v in row] for row in x.ang_vels],
    }) for x in samples]


def assert_same_stream(a, b):
    for name in ("t", "positions", "rotations", "lin_vels", "ang_vels"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64)), name


def replace_first_position(number):
    """An edit of a stream-file line that writes ``number``, as text, in
    place of its first position coordinate."""
    return lambda line: re.sub(r'"p":\[\[[^,\]]*', lambda m: '"p":[[' + number, line, count=1)


def json_loads_outcome(path):
    """What a stream file loads to when every line is parsed by
    ``json.loads``, newline included: a ``TargetStream``, or the error's
    (type, line, message)."""
    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(keepends=True), start=1):
        try:
            record = json.loads(line)
            rows.append([float(record["t"])]
                        + [np.array(record[key], dtype=float) for key in ("p", "R", "v", "w")])
        except (ValueError, OverflowError, RecursionError) as e:
            return ParseError, lineno, f"line {lineno}: {e}"
    t, p, rot, v, w = (np.array(column) for column in zip(*rows))
    try:
        return ik.TargetStream(t, p, rot.reshape(len(t), -1, 3, 3), v, w)
    except SchemaMismatch as e:
        return SchemaMismatch, None, str(e)


class TestStreamFiles:
    def test_bytes_equal_a_per_element_writer(self, human66, tmp_path):
        spec = TrajectorySpec(kind="random_smooth", duration=0.3, dt=0.01, amplitude=0.3,
                              seed=14, noise_std=0.01)
        _, samples = generate_stream(human66, spec)
        path = tmp_path / "stream.jsonl"
        save_stream(path, samples)
        lines = per_element_lines(samples, orjson.dumps)
        assert path.read_bytes() == b"".join(line + b"\n" for line in lines)

    def test_json_dumps_notation_still_loads(self, human66, tmp_path):
        """A file in ``json.dumps``'s notation (spaces after separators,
        ``1e-05``, ``1e+16``), as stream files were first written, loads to
        the arrays of ``save_stream``'s file, bit for bit."""
        spec = TrajectorySpec(kind="random_smooth", duration=0.3, dt=0.01, amplitude=0.3,
                              seed=14, noise_std=0.01)
        _, samples = generate_stream(human66, spec)
        old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        old.write_text("".join(line + "\n" for line in per_element_lines(samples, json.dumps)))
        save_stream(new, samples)
        assert b", " in old.read_bytes() and b"e-0" in old.read_bytes()
        assert old.read_bytes() != new.read_bytes()
        assert_same_stream(load_stream(old), load_stream(new))
        assert_same_stream(load_stream(new), samples)

    def test_golden_line(self, tmp_path):
        """The exact bytes of one hand-built sample: a number below 1e-4 is
        written positionally, an exponent has no "+", and -0.0 and the
        smallest subnormal keep their bits."""
        stream = ik.TargetStream(t=[0.1], positions=[[[1e-05, 1e16, -0.0]]],
                                 rotations=[[[[1.0, -0.0, 0.0], [0.0, 1.0, 0.0],
                                              [0.0, 0.0, 1.0]]]],
                                 lin_vels=[[[5e-324, 0.1, 0.0]]],
                                 ang_vels=[[[0.0, -0.0, 1e-05]]])
        path = tmp_path / "stream.jsonl"
        save_stream(path, stream)
        assert path.read_bytes() == (
            b'{"t":0.1,"p":[[0.00001,1e16,-0.0]],'
            b'"R":[[1.0,-0.0,0.0,0.0,1.0,0.0,0.0,0.0,1.0]],'
            b'"v":[[5e-324,0.1,0.0]],"w":[[0.0,-0.0,0.00001]]}\n')
        assert_same_stream(load_stream(path), stream)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_value_is_refused_at_save(self, human66, tmp_path, value):
        """A NaN or an infinity written into a row, which the stream does not
        check again, is refused before the file is opened; orjson would write
        it as ``null``."""
        spec = TrajectorySpec(kind="static_pose", duration=0.05, dt=0.01, amplitude=0.1,
                              seed=10)
        _, stream = generate_stream(human66, spec)
        stream[3].positions[0, 0] = value
        path = tmp_path / "stream.jsonl"
        with pytest.raises(SchemaMismatch, match="^positions holds a non-finite value$"):
            save_stream(path, stream)
        assert not path.exists()

    def test_lossless_roundtrip(self, human66, tmp_path):
        spec = TrajectorySpec(kind="random_smooth", duration=0.05, dt=0.01,
                              amplitude=0.3, seed=9)
        _, samples = generate_stream(human66, spec)
        path = tmp_path / "stream.jsonl"
        save_stream(path, samples)
        loaded = load_stream(path)
        assert len(loaded) == len(samples)
        for x, y in zip(samples, loaded):
            assert x.t == y.t
            assert np.array_equal(x.positions, y.positions)
            assert np.array_equal(x.rotations, y.rotations)
            assert np.array_equal(x.lin_vels, y.lin_vels)
            assert np.array_equal(x.ang_vels, y.ang_vels)

    def test_truncated_line_reports_position(self, human66, tmp_path):
        spec = TrajectorySpec(kind="static_pose", duration=0.03, dt=0.01,
                              amplitude=0.1, seed=10)
        _, samples = generate_stream(human66, spec)
        path = tmp_path / "stream.jsonl"
        save_stream(path, samples)
        text = path.read_text().splitlines()
        text[1] = text[1][:40]
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ParseError) as exc:
            load_stream(path)
        assert exc.value.line == 2

    def test_bytes_that_are_not_utf8_report_their_line(self, human66, tmp_path):
        """The line is named although the file is decoded in blocks: line 40
        of 50 lies well past the first block."""
        spec = TrajectorySpec(kind="static_pose", duration=0.5, dt=0.01,
                              amplitude=0.1, seed=10)
        path = tmp_path / "stream.jsonl"
        save_stream(path, generate_stream(human66, spec)[1])
        lines = path.read_bytes().splitlines(keepends=True)
        lines[39] = lines[39][:30] + b"\xff" + lines[39][31:]
        path.write_bytes(b"".join(lines))
        assert sum(map(len, lines[:39])) > 8192
        with pytest.raises(ParseError, match="^line 40, column 31: not UTF-8$") as exc:
            load_stream(path)
        assert (exc.value.line, exc.value.column) == (40, 31)

    def test_model_mismatch_detected_at_solve_time(self, human66, tmp_path):
        m = base_only_model()
        sample = static_sample(m, Configuration.zeros(m))
        path = tmp_path / "stream.jsonl"
        save_stream(path, [sample])
        loaded = load_stream(path)
        with pytest.raises(SchemaMismatch):
            loaded[0].check_model(human66)

    @pytest.mark.parametrize("edit", [
        *(replace_first_position(number) for number in (
            "5e-324", "0.12345678901234567", "9007199254740993.0",
            "1.234567890123456789012345", "2.2250738585072011e-308", "-0.0",
            "1.7976931348623157e308", str(2 ** 63), str(2 ** 64), str(10 ** 30), "1E5",
            # a number orjson refuses, handed on to json.loads
            "NaN", "Infinity", "-Infinity", "1e400", str(10 ** 400 - 1))),
        lambda line: line.replace("{", '{"\\ud800":0,', 1),
        lambda line: line[:40],
        lambda line: line.replace("{", '{"x":' + "[" * 5000 + "]" * 5000 + ",", 1),
        lambda line: line.replace("{", '{"x":[' + "[]," * 600 + "[]],", 1),
    ], ids=["subnormal", "17-digit", "2^53+1", "25-digit", "near-normal-min", "minus-zero",
            "max-double", "2^63", "2^64", "10^30", "upper-E", "nan", "infinity",
            "minus-infinity", "1e400", "400-digit", "lone-surrogate-key", "truncated",
            "nested-5000", "601-brackets"])
    def test_lines_load_as_json_loads_reads_them(self, tmp_path, edit):
        """Every line, whichever parser reads it, loads to what a loader that
        parses each line with ``json.loads`` gives: the same arrays bit for
        bit, or the same exception type, line and message."""
        spec = TrajectorySpec(kind="static_pose", duration=0.03, dt=0.01, amplitude=0.1,
                              seed=12)
        path = tmp_path / "stream.jsonl"
        save_stream(path, generate_stream(branched_model(), spec)[1])
        lines = path.read_text().splitlines()
        lines[1] = edit(lines[1])
        path.write_text("".join(line + "\n" for line in lines))
        expected = json_loads_outcome(path)
        try:
            loaded = load_stream(path)
        except ik.IkTrackError as e:
            assert (type(e), getattr(e, "line", None), str(e)) == expected
        else:
            assert isinstance(expected, ik.TargetStream), expected
            assert_same_stream(loaded, expected)

    def test_non_finite_value_rejected(self, human66, tmp_path):
        spec = TrajectorySpec(kind="static_pose", duration=0.03, dt=0.01,
                              amplitude=0.1, seed=10)
        _, samples = generate_stream(human66, spec)
        path = tmp_path / "stream.jsonl"
        save_stream(path, samples)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[1]["p"][0][0] = float("nan")
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(SchemaMismatch, match="^positions holds a non-finite value$"):
            load_stream(path)


class TestTargetStream:
    FIELDS = ("positions", "rotations", "lin_vels", "ang_vels")

    def test_rows_are_views_of_the_streams_own_arrays(self, human66, tmp_path):
        spec = TrajectorySpec(kind="random_smooth", duration=0.05, dt=0.01, amplitude=0.3,
                              seed=2)
        _, generated = generate_stream(human66, spec)
        path = tmp_path / "stream.jsonl"
        save_stream(path, generated)
        loaded = load_stream(path)
        for stream in (generated, loaded):
            for row in (stream[2], stream[1:4][1], list(stream)[2], stream[-3]):
                assert row.t == stream.t[2]
                for name in self.FIELDS:
                    assert np.shares_memory(getattr(row, name), getattr(stream, name))
        # a write into a row reaches its stream and no other
        before = generated.ang_vels[2, 0, 1]
        loaded[2].ang_vels[0, 1] += 1.0
        assert loaded.ang_vels[2, 0, 1] == before + 1.0
        assert generated.ang_vels[2, 0, 1] == before
        arrays = {name: getattr(generated, name) for name in ("t",) + self.FIELDS}
        copied = ik.TargetStream(**arrays)
        assert not any(np.shares_memory(getattr(copied, k), a) for k, a in arrays.items())

    def test_first_bad_sample_names_the_message(self, human66):
        spec = TrajectorySpec(kind="static_pose", duration=0.06, dt=0.01, amplitude=0.1,
                              seed=3)
        _, stream = generate_stream(human66, spec)
        arrays = {name: getattr(stream, name).copy() for name in ("t",) + self.FIELDS}
        arrays["rotations"][2, 4] *= 1.01
        arrays["ang_vels"][4, 0, 1] = np.nan
        with pytest.raises(SchemaMismatch, match="^rotation target 4 is not a rotation$"):
            ik.TargetStream(**arrays)
        arrays["lin_vels"][1, 0, 0] = np.inf
        with pytest.raises(SchemaMismatch, match="^lin_vels holds a non-finite value$"):
            ik.TargetStream(**arrays)
        with pytest.raises(SchemaMismatch, match="differ in length"):
            ik.TargetStream(**dict(arrays, t=arrays["t"][:-1]))

    @pytest.mark.parametrize("field, value, stream", [
        ("positions", np.zeros((1, 2)), False), ("positions", "abc", False),
        ("rotations", np.eye(2)[None], False),
        ("positions", [np.zeros((1, 3)), np.zeros((2, 3))], True), ("t", "abc", False),
        ("t", "0.5", False), ("positions", [["1", "2", "3"]], False),
        ("lin_vels", [[True, False, 1]], False), ("t", True, False),
        ("positions", np.ones((1, 3), dtype=bool), False),
    ], ids=["positions-1x2", "positions-string", "rotations-2x2", "ragged-samples", "t-string",
            "t-numeric-string", "positions-numeric-strings", "lin-vels-booleans", "t-boolean",
            "positions-boolean-array"])
    def test_a_field_that_is_not_numbers_of_its_shape_is_named(self, field, value, stream):
        """A hand-built sample or stream whose field does not convert to
        numbers of its shape, or holds strings or booleans that numpy would
        read as numbers, raises ``SchemaMismatch`` naming the field, as
        ``load_stream`` refuses those values in a file."""
        row = {"t": 0.0, "positions": np.zeros((1, 3)), "rotations": np.eye(3)[None],
               "lin_vels": np.zeros((1, 3)), "ang_vels": np.zeros((1, 3))}
        if stream:
            row = {name: [a, a] for name, a in row.items()}
        with pytest.raises(SchemaMismatch, match=f"^{field} must be numbers"):
            (ik.TargetStream if stream else TargetSample)(**{**row, field: value})

    @pytest.mark.parametrize("entry", [1e120, 1e200, -1e300])
    def test_a_huge_rotation_is_not_a_rotation(self, human66, entry):
        spec = TrajectorySpec(kind="static_pose", duration=0.04, dt=0.01, amplitude=0.1,
                              seed=3)
        _, stream = generate_stream(human66, spec)
        arrays = {name: getattr(stream, name).copy() for name in ("t",) + self.FIELDS}
        arrays["rotations"][1, 5] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaMismatch, match="^rotation target 5 is not a rotation$"):
                ik.TargetStream(**arrays)

    @pytest.mark.parametrize("key", ["p", "R"])
    def test_target_counts_that_differ_between_lines_are_rejected(self, key, tmp_path):
        spec = TrajectorySpec(kind="static_pose", duration=0.04, dt=0.01, amplitude=0.1,
                              seed=4)
        path = tmp_path / "stream.jsonl"
        save_stream(path, generate_stream(branched_model(), spec)[1])
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[2][key].pop()
        records[2]["v" if key == "p" else "w"].pop()
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        counts = "2 position / 4" if key == "p" else "3 position / 3"
        with pytest.raises(SchemaMismatch,
                           match=f"^line 3: {counts} orientation targets, line 1 has 3 / 4$"):
            load_stream(path)

    def test_checks_against_the_model_and_the_rate(self, human66, human48):
        spec = TrajectorySpec(kind="static_pose", duration=0.04, dt=0.01, amplitude=0.1,
                              seed=5)
        _, stream = generate_stream(human66, spec)
        stream.check_model(human66)
        stream.check_spacing(0.01)
        with pytest.raises(SchemaMismatch, match="^sample 0: sample has 1 position"):
            stream.check_model(base_only_model())
        with pytest.raises(SchemaMismatch, match="^samples 0 and 1 are spaced 0.01, not dt"):
            stream.check_spacing(0.02)
        with pytest.raises(SchemaMismatch, match=", not --dt 0.02$"):
            stream.check_spacing(0.02, name="--dt")
        with pytest.raises(SchemaMismatch, match=", not dt nan$"):
            stream.check_spacing(float("nan"))


_BAD_NUMBERS = ("0.5", None, True, False, 10 ** 400 - 1, float("nan"))


def defective_lines(records, rng):
    """Lines of a stream file with one defect on a random line: a string, a
    null, a boolean, a 400-digit integer or NaN in place of one number of
    ``p``, ``R``, ``v`` or ``w``; a rotation scaled off SO(3) or reflected;
    or a blank line."""
    records = copy.deepcopy(records)
    k = int(rng.integers(len(records)))
    kind = int(rng.integers(len(_BAD_NUMBERS) + 2))
    if kind < len(_BAD_NUMBERS):
        rows = records[k][["p", "R", "v", "w"][rng.integers(4)]]
        row = rows[rng.integers(len(rows))]
        row[rng.integers(len(row))] = _BAD_NUMBERS[kind]
    elif kind == len(_BAD_NUMBERS):
        rot = records[k]["R"][rng.integers(len(records[k]["R"]))]
        rot[:] = [(1.01, -1.0)[rng.integers(2)] * x for x in rot]
    lines = [json.dumps(r) for r in records]
    if kind == len(_BAD_NUMBERS) + 1:
        lines.insert(k, " ")
    return lines


# sha256 prefixes of the outcomes ("<type> line=<n>: <message>" or "ok") of
# load_stream on 30 defective stream files per seed, recorded before streams
# were checked as a whole
STREAM_ERROR_DIGESTS = {0: "0605fdadc57a1930", 1: "bc647af6ed44caf3", 2: "58421f717aa76fc5"}


@pytest.mark.parametrize("seed", range(3))
def test_stream_errors_match_the_per_sample_loader(seed, tmp_path):
    spec = TrajectorySpec(kind="random_smooth", duration=0.04, dt=0.01, amplitude=0.3,
                          seed=seed)
    clean = tmp_path / "clean.jsonl"
    save_stream(clean, generate_stream(branched_model(), spec)[1])
    records = [json.loads(line) for line in clean.read_text().splitlines()]
    rng = np.random.default_rng(seed)
    path = tmp_path / "stream.jsonl"
    outcomes = []
    for _ in range(30):
        path.write_text("\n".join(defective_lines(records, rng)) + "\n")
        try:
            load_stream(path)
        except ik.IkTrackError as e:
            outcomes.append(f"{type(e).__name__} line={getattr(e, 'line', None)}: {e}")
        else:
            outcomes.append("ok")
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()[:16]
    assert digest == STREAM_ERROR_DIGESTS[seed], "\n".join(outcomes)


class TestMetricsSummary:
    def test_transient_discard_windowing(self):
        t = np.arange(0.0, 5.0, 0.01)
        decaying = np.exp(-2.0 * t)  # transient in front
        flat = np.full_like(t, 0.25)
        summary = MetricsSummary(t, decaying, flat, flat, transient_discard=2.0)
        keep = summary.steady_window()
        assert keep.sum() == 300
        assert np.array_equal(summary.mnte_series, decaying)  # full series kept
        expected = np.median(decaying[t >= 2.0])
        assert summary.mnte_stats.median == expected
        full = np.median(decaying)
        assert summary.mnte_stats.median != full

    def test_series_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MetricsSummary(np.arange(3.0), np.zeros(3), np.zeros(3), np.zeros(2))


class TestBenchmark:
    def test_single_cell(self, human66):
        spec = TrajectorySpec(kind="static_pose", duration=2.6, dt=0.01,
                              amplitude=0.1, seed=3)
        records, table = run_benchmark([("h66", human66)], [("static", spec)],
                                       ["dynamical"], transient_discard=2.0)
        assert len(records) == 1
        rec = records[0]
        assert rec.failures == 0
        assert rec.steps == 260
        assert rec.metrics.mnte_stats.median <= 1e-2
        assert table.splitlines()[0].startswith("method,model,scenario")

    @pytest.mark.parametrize("method", METHODS)
    def test_empty_stream_gives_an_empty_run(self, human66, method):
        spec = TrajectorySpec(kind="static_pose", duration=0.05, dt=0.01,
                              amplitude=0.1, seed=3)
        _, stream = ik.generate_stream(human66, spec)
        run = ik.run_method(method, human66, stream[:0])
        shapes = [a.shape for a in (run.base_pos, run.base_rot, run.s, run.nu, run.step_time)]
        assert (shapes, run.error) == ([(0, 3), (0, 3, 3), (0, human66.n),
                                        (0, 6 + human66.n), (0,)], None)

    def test_empty_method_list(self, human66):
        spec = TrajectorySpec(kind="static_pose", duration=0.05, dt=0.01,
                              amplitude=0.1, seed=3)
        records, table = run_benchmark([("h66", human66)], [("static", spec)], [])
        assert records == []
        assert len(table.splitlines()) == 1

    @pytest.mark.parametrize("config, message", [
        ({"gian": 200.0}, "unknown setting 'gian'"),
        (5, "config must be a mapping"),
        ([("gain", 2.0)], "config must be a mapping"),
    ])
    @pytest.mark.parametrize("method", METHODS)
    def test_run_method_rejects_a_setting_it_would_drop(self, human66, config, message,
                                                        method):
        spec = TrajectorySpec(kind="static_pose", duration=0.05, dt=0.01,
                              amplitude=0.1, seed=3)
        _, stream = ik.generate_stream(human66, spec)
        with pytest.raises(ik.InvalidSetting, match=message):
            ik.run_method(method, human66, stream, config)

    @pytest.mark.parametrize("methods, config, message", [
        (["dynamical", "dynamic"], None, "unknown method 'dynamic'"),
        ("dynamical", None, "methods must be a list"),
        (5, None, "methods must be a list"),
        (["dynamical"], {"max_iter": 3}, "unknown setting 'max_iter'"),
        (["dynamical"], 5, "config must be a mapping"),
    ])
    def test_benchmark_rejects_methods_and_settings_before_generating(
            self, human66, monkeypatch, methods, config, message):
        def generate(*_):
            raise AssertionError("a stream was generated")
        monkeypatch.setattr(ik.harness, "generate_stream", generate)
        spec = TrajectorySpec(kind="static_pose", duration=0.05, dt=0.01,
                              amplitude=0.1, seed=3)
        with pytest.raises(ik.InvalidSetting, match=message):
            run_benchmark([("h66", human66)], [("static", spec)], methods, config)

    def test_a_key_of_another_method_is_kept(self, human66):
        """A sweep shares one config across methods, so the dynamical method
        accepts the baselines' keys, and ``dt``."""
        spec = TrajectorySpec(kind="static_pose", duration=0.05, dt=0.01,
                              amplitude=0.1, seed=3)
        _, stream = ik.generate_stream(human66, spec)
        config = {"stop_tol": 1e-5, "max_iters": 5, "lm_lambda0": 1e-2, "dt": 0.01}
        assert ik.run_method("dynamical", human66, stream, config).error is None

    def test_cross_product_order(self, human66, human48):
        spec_a = TrajectorySpec(kind="static_pose", duration=0.05, dt=0.01,
                                amplitude=0.1, seed=3)
        spec_b = TrajectorySpec(kind="sinusoidal", duration=0.05, dt=0.01,
                                amplitude=0.1, seed=4)
        records, _ = run_benchmark([("h66", human66), ("h48", human48)],
                                   [("a", spec_a), ("b", spec_b)],
                                   ["dynamical", "pairwise"])
        assert len(records) == 8
        keys = [(r.model_id, r.trajectory_id, r.method) for r in records]
        assert keys == [(m, s, meth) for m in ("h66", "h48") for s in ("a", "b")
                        for meth in ("dynamical", "pairwise")]

    def test_singular_undamped_solve_is_a_typed_failure(self):
        """Two same-axis joints on one point with no damping make the normal
        matrix singular: every method fails with ``RankDeficient``, which
        every run and each cell of a sweep record as the run's failure."""
        model = single_joint_model(tip_offset=(0.0, 0.0, 0.0))
        spec = TrajectorySpec(kind="sinusoidal", duration=0.1, dt=0.01, amplitude=0.3, seed=1)
        _, stream = ik.generate_stream(model, spec)
        config = {"damping": 0.0}
        for method in METHODS:
            run = run_method(method, model, stream, config)
            assert (len(run.step_time), run.error) == (
                0, "step 0: normal matrix is singular; use a positive damping")
        records, _ = run_benchmark([("coincident", model)], [("sin", spec)], METHODS, config)
        assert [(r.steps, r.failures) for r in records] == [(0, 1)] * len(METHODS)
        assert all("singular" in r.error for r in records)

    @pytest.mark.parametrize("method", ["dynamical", "whole-body"])
    def test_targets_the_model_lacks_stop_the_run_at_step_0(self, human66, method):
        """A stream with one orientation target more than the model declares
        stops a run of either method at sample 0, with the error recorded,
        not raised, and the empty run scores to empty series."""
        model = ik.KinematicModel(human66.links, human66.joints, human66.base_link,
                                  position_targets=human66.position_target_frames,
                                  orientation_targets=human66.orientation_target_frames[:-1])
        spec = TrajectorySpec(kind="static_pose", duration=0.05, dt=0.01, amplitude=0.1, seed=3)
        _, stream = ik.generate_stream(human66, spec)
        run = run_method(method, model, stream)
        assert (len(run.step_time), run.error) == (
            0, "step 0: sample has 1 position / 23 orientation targets, model declares 1 / 22")
        summary = summarize_run(model, stream, run)
        assert summary.mnte_series.shape == summary.rmse_series.shape == (0,)

    def test_baseline_abort_keeps_completed_samples(self, human66, monkeypatch):
        """A whole-body run whose solve fails at sample 3 returns the three
        samples it completed, bit for bit, and the error, as a dynamical run
        does; a sweep records those three steps."""
        spec = TrajectorySpec(kind="sinusoidal", duration=0.1, dt=0.01, amplitude=0.3, seed=5)
        _, stream = ik.generate_stream(human66, spec)
        full = run_method("whole-body", human66, stream)
        solve, calls = ik.harness.solve_whole_body, []

        def failing(model, sample, q, cfg):
            calls.append(sample)
            if len(calls) == 4:
                raise QPInfeasible("the joint constraints A s <= b_q are inconsistent")
            return solve(model, sample, q, cfg)

        monkeypatch.setattr(ik.harness, "solve_whole_body", failing)
        run = run_method("whole-body", human66, stream)
        error = run.error
        assert error == "step 3: the joint constraints A s <= b_q are inconsistent"
        assert (len(run.s), len(run.nu), len(run.step_time)) == (3, 3, 3)
        for k in range(3):
            for a, b in zip((run.base_pos[k], run.base_rot[k], run.s[k], run.nu[k]),
                            (full.base_pos[k], full.base_rot[k], full.s[k], full.nu[k])):
                assert np.array_equal(a, b)
        calls.clear()
        records, table = run_benchmark([("h66", human66)], [("sin", spec)], ["whole-body"])
        assert (records[0].steps, records[0].failures, records[0].error) == (3, 1, error)
        assert table.splitlines()[1].split(",")[-2:] == ["3", "1"]

    def test_failure_recorded_without_abort(self, human66):
        # pairwise cannot split a model with a position target off the base;
        # the dynamical cell on the same stream tracks it
        frame = human66.orientation_target_frames[1]
        model = ik.KinematicModel(human66.links, human66.joints, human66.base_link,
                                  position_targets=(human66.base_link, frame),
                                  orientation_targets=human66.orientation_target_frames)
        spec = TrajectorySpec(kind="static_pose", duration=0.05, dt=0.01,
                              amplitude=0.1, seed=3)
        records, table = run_benchmark([("h66", model)], [("static", spec)],
                                       ["dynamical", "pairwise"])
        healthy, failed = records
        assert (healthy.steps, healthy.failures, healthy.error) == (5, 0, None)
        assert (failed.steps, failed.failures) == (0, 1)
        assert failed.error == f"non-base position target {frame!r} is not supported"
        assert [line.split(",")[-2:] for line in table.splitlines()[1:]] == [["5", "0"],
                                                                             ["0", "1"]]

    def test_infeasible_spec_stops_the_sweep(self, human48):
        # an amplitude beyond the 48-DoF limits: the stream cannot be made
        spec = TrajectorySpec(kind="sinusoidal", duration=0.05, dt=0.01,
                              amplitude=1.0, seed=7)
        with pytest.raises(SpecInfeasible):
            run_benchmark([("h48", human48)], [("wide", spec)], ["dynamical"])

    def test_deterministic_metrics(self, human66):
        spec = TrajectorySpec(kind="sinusoidal", duration=0.3, dt=0.01,
                              amplitude=0.2, seed=12)
        kwargs = dict(models=[("h66", human66)], specs=[("sin", spec)],
                      methods=["dynamical", "whole-body", "pairwise"],
                      transient_discard=0.1)
        rec_a, _ = run_benchmark(**kwargs)
        rec_b, _ = run_benchmark(**kwargs)
        for a, b in zip(rec_a, rec_b):
            assert np.array_equal(a.metrics.mnte_series, b.metrics.mnte_series)
            assert np.array_equal(a.metrics.rmse_series, b.metrics.rmse_series)

    def test_csv_excludes_timing_from_determinism(self, human66):
        spec = TrajectorySpec(kind="static_pose", duration=0.05, dt=0.01,
                              amplitude=0.1, seed=3)
        records, table = run_benchmark([("h66", human66)], [("s", spec)], ["dynamical"],
                                       transient_discard=0.0)
        line = table.splitlines()[1].split(",")
        assert line[0] == "dynamical"
        assert int(line[9]) == 5
