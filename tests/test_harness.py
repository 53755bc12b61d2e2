import copy
import hashlib
import json
import warnings

import numpy as np
import pytest

import iktrack as ik
from iktrack import (Configuration, MetricsSummary, Rotation, TargetSample,
                     TrajectorySpec, Velocity, generate_stream, load_stream, mnte,
                     project_to_so3, results_csv, rmse_angvel, run_benchmark, run_method,
                     save_stream, summarize_run)
from iktrack.errors import DegenerateMatrix, ParseError, SchemaMismatch, SpecInfeasible
from iktrack.harness import CHUNK, METHODS

from conftest import base_only_model, branched_model, rodrigues, static_sample


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
        nu = Velocity.from_stacked(rng.normal(size=human66.n + 6))
        positions, rotations = human66.stacked_forward_kinematics(q)
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
        for rot in b[0].rotations:  # still valid rotations
            assert ik.orthonormality_error(rot) <= 1e-9

    @pytest.mark.parametrize("field, value", [
        ("duration", np.nan), ("duration", np.inf), ("dt", np.nan), ("amplitude", np.nan),
        ("amplitude", -0.1), ("noise_std", np.nan), ("noise_std", -0.01),
        ("freq_band", (0.5, np.nan)), ("freq_band", (-1.0, 1.0)), ("freq_band", (1.0,)),
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

    def test_spec_holds_freq_band_as_a_tuple(self):
        spec = TrajectorySpec(kind="sinusoidal", duration=0.3, dt=0.01, amplitude=0.2,
                              freq_band=[0.5, 1.5])
        assert spec.freq_band == (0.5, 1.5)
        assert hash(spec) == hash(TrajectorySpec(kind="sinusoidal", duration=0.3, dt=0.01,
                                                 amplitude=0.2, freq_band=(0.5, 1.5)))


def pipeline_model(name, request):
    return branched_model() if name == "branched" else request.getfixturevalue(name)


def per_sample_scores(model, q, nu, sample):
    """mnte and rmse_angvel of one step from single-configuration kinematics:
    the estimate's polar-projected rotations against the targets, and the
    angular rows of J(q) nu against the angular-velocity targets."""
    projected = Configuration(q.base_pos, project_to_so3(q.base_rot), q.s)
    rotations = model.stacked_forward_kinematics(projected).rotations
    traces = np.einsum("kij,kij->k", rotations, sample.rotations)
    score = float(np.mean(np.maximum((3.0 - traces) / 2.0, 0.0)))
    est = (model.stacked_jacobian(q) @ nu.stacked())[3 * model.n_p:].reshape(-1, 3)
    err = sample.ang_vels - est
    return score, float(np.sqrt(np.mean(np.sum(err * err, axis=1) / 3.0)))


# sha256 prefixes of the stream files the per-sample generator wrote for
# random_smooth, amplitude 0.3, noise_std 0.01, seed 21 (numpy 2.4, x86-64);
# the chunked generator draws the noise in the same order
NOISY_DIGESTS = {
    ("human66", 1): "7143b0dc25ae4f5a", ("human66", CHUNK): "1b119fe9eb16df5f",
    ("human66", CHUNK + 1): "f62371b8bffd6b10",
    ("human48", 1): "c3fcf43661b04ca8", ("human48", CHUNK): "82d5d26ee2f0de1e",
    ("human48", CHUNK + 1): "aa99f6398f4e8883",
    ("branched", 1): "d851fd55066826f1", ("branched", CHUNK): "360cf21e40b31149",
    ("branched", CHUNK + 1): "72cc9b536fc7930f",
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
            positions, rotations = model.stacked_forward_kinematics(q)
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
        qs, nus, times, _ = run_method("dynamical", model, samples)
        # a drifting base: scaled and sheared off SO(3), as the integrator may leave it
        rng = np.random.default_rng(length)
        drifting = [Configuration(q.base_pos, Rotation.drifting(
            q.base_rot.m @ (1.01 * np.eye(3) + 0.003 * rng.normal(size=(3, 3)))), q.s)
            for q in qs]
        for run in (qs, drifting):
            summary = summarize_run(model, samples, run, nus, times)
            for i, (q, nu, sample) in enumerate(zip(run, nus, samples)):
                expected = per_sample_scores(model, q, nu, sample)
                assert (summary.mnte_series[i], summary.rmse_series[i]) == expected
                assert (mnte(model, q, sample), rmse_angvel(model, q, nu, sample)) == expected


def test_summary_rejects_a_reflecting_base_inside_a_chunk(human66):
    spec = TrajectorySpec(kind="static_pose", duration=0.05, dt=0.01, amplitude=0.1, seed=3)
    truth, samples = generate_stream(human66, spec)
    qs = [q for q, _ in truth]
    nus = [nu for _, nu in truth]
    qs[2] = Configuration(qs[2].base_pos, Rotation.drifting(np.diag([1.0, 1.0, -1.0])),
                          qs[2].s)
    with pytest.raises(DegenerateMatrix):
        summarize_run(human66, samples, qs, nus, np.zeros(len(qs)))


class TestStreamFiles:
    def test_bytes_equal_a_per_element_writer(self, human66, tmp_path):
        spec = TrajectorySpec(kind="random_smooth", duration=0.3, dt=0.01, amplitude=0.3,
                              seed=14, noise_std=0.01)
        _, samples = generate_stream(human66, spec)
        path = tmp_path / "stream.jsonl"
        save_stream(path, samples)
        expected = "".join(json.dumps({
            "t": float(x.t),
            "p": [[float(v) for v in row] for row in x.positions],
            "R": [[float(v) for v in rot.ravel()] for rot in x.rotations],
            "v": [[float(v) for v in row] for row in x.lin_vels],
            "w": [[float(v) for v in row] for row in x.ang_vels],
        }) + "\n" for x in samples)
        assert path.read_bytes() == expected.encode()

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

    def test_model_mismatch_detected_at_solve_time(self, human66, tmp_path):
        m = base_only_model()
        sample = static_sample(m, Configuration.zeros(m))
        path = tmp_path / "stream.jsonl"
        save_stream(path, [sample])
        loaded = load_stream(path)
        with pytest.raises(SchemaMismatch):
            loaded[0].check_model(human66)

    def test_non_finite_value_rejected(self, human66, tmp_path):
        spec = TrajectorySpec(kind="static_pose", duration=0.03, dt=0.01,
                              amplitude=0.1, seed=10)
        _, samples = generate_stream(human66, spec)
        path = tmp_path / "stream.jsonl"
        save_stream(path, samples)
        text = path.read_text().splitlines()
        head, _, tail = text[1].partition('"p": [[')
        text[1] = head + '"p": [[NaN, ' + tail.partition(",")[2]
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ik.IkTrackError, match="non-finite"):
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
        assert ik.run_method(method, human66, stream[:0]) == ([], [], [], None)

    def test_empty_method_list(self, human66):
        spec = TrajectorySpec(kind="static_pose", duration=0.05, dt=0.01,
                              amplitude=0.1, seed=3)
        records, table = run_benchmark([("h66", human66)], [("static", spec)], [])
        assert records == []
        assert len(table.splitlines()) == 1

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

    def test_failure_recorded_without_abort(self, human48):
        # amplitude beyond the 48-DoF limits makes generation infeasible only
        # for that model; pair it with a feasible cell
        spec = TrajectorySpec(kind="static_pose", duration=0.05, dt=0.01,
                              amplitude=0.1, seed=3)
        m66 = ik.generate_human_chain(66, seed=7)
        records, table = run_benchmark([("h66", m66)], [("static", spec)],
                                       ["dynamical", "whole-body"])
        assert all(r.failures == 0 for r in records)

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
