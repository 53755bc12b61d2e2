import copy
import hashlib
import pickle

import numpy as np
import pytest

import iktrack as ik
from iktrack import (ActiveSetSolver, BaumgarteConfig, Configuration, GainConfig,
                     Rotation, SolverState, TargetSample, tracker)
from iktrack.errors import (InvalidSetting, NonFiniteSolution, QPInfeasible, SchemaMismatch,
                            StaleSample)
from iktrack.tracker import (build_limit_constraints, corrected_velocity,
                             initial_configuration, step, track)

from conftest import (base_only_model, hinge_model, relative_angle, residual_at, rodrigues,
                      run_configurations, single_joint_model, static_sample, target_poses,
                      unchecked_gains)

DT = 0.01


def default_setup(model, gain=2.0):
    gains = GainConfig.build(model, dt=DT, gain=gain)
    baumgarte = BaumgarteConfig(rho=10.0, dt=DT)
    return gains, baumgarte, ActiveSetSolver()


class TestPoseResidual:
    def test_zero_at_exact_state(self, human66):
        rng = np.random.default_rng(0)
        q = Configuration(rng.normal(size=3), Rotation.about_axis([1, 0, 0], 0.4),
                          rng.normal(scale=0.4, size=human66.n))
        sample = static_sample(human66, q)
        assert np.abs(residual_at(human66, q, sample)).max() <= 1e-14

    def test_position_block_is_linear_difference(self, human66):
        q = Configuration.zeros(human66)
        sample = static_sample(human66, q)
        sample.positions = sample.positions + np.array([0.1, 0.0, 0.0])
        r = residual_at(human66, q, sample)
        assert np.allclose(r[:3], [0.1, 0.0, 0.0])
        assert np.allclose(r[3:], 0.0)

    def test_orientation_block(self):
        m = base_only_model(orientation_target=True)
        q = Configuration.zeros(m)
        sample = TargetSample(t=0.0, positions=[[0.0, 0.0, 0.0]],
                              rotations=rodrigues([0, 0, 1], np.pi / 2)[None],
                              lin_vels=np.zeros((1, 3)), ang_vels=np.zeros((1, 3)))
        r = residual_at(m, q, sample)
        assert np.allclose(r, [0, 0, 0, 0, 0, 1], atol=1e-12)

    def test_equals_the_residual_step_feeds_back(self, human66):
        """On a tilted base and bent joints, ``pose_residual_arrays`` at
        ``fk_arrays(q)`` is the vector ``step()`` feeds back, bit for bit, and
        its norm is the norm of the rotation errors taken in each estimated
        frame."""
        rng = np.random.default_rng(8)
        q = Configuration(rng.normal(size=3), Rotation.about_axis([1.0, 2.0, -1.0], 0.7),
                          rng.uniform(-0.4, 0.4, human66.n))
        truth = Configuration(rng.normal(size=3), Rotation.about_axis([0.0, 1.0, 1.0], -0.5),
                              rng.uniform(-0.4, 0.4, human66.n))
        sample = static_sample(human66, truth)
        gains, baumgarte, solver = default_setup(human66)
        _, report = step(SolverState.initial(human66, q), sample, human66, gains,
                         baumgarte, solver)
        r = residual_at(human66, q, sample)
        assert np.array_equal(r, report.residual_r)
        est = target_poses(human66, q)
        local = np.concatenate(
            [(sample.positions - est.positions).ravel()]
            + [ik.orientation_residual(a, b) for a, b in zip(est.rotations, sample.rotations)])
        assert np.linalg.norm(local) > 1.0
        assert abs(np.linalg.norm(r) / np.linalg.norm(local) - 1.0) <= 1e-14

    def test_count_mismatch(self, human66, human48):
        sample = static_sample(human48, Configuration.zeros(human48))
        sample.positions = sample.positions[:0]  # break n_p
        gains, baumgarte, solver = default_setup(human66)
        state = SolverState.initial(human66, Configuration.zeros(human66))
        with pytest.raises(SchemaMismatch):
            step(state, sample, human66, gains, baumgarte, solver)


class TestTargetSampleValidation:
    FIELDS = ("positions", "rotations", "lin_vels", "ang_vels")

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, human66, field, value):
        sample = static_sample(human66, Configuration.zeros(human66))
        arrays = {f: getattr(sample, f).copy() for f in self.FIELDS}
        arrays[field].flat[1] = value
        with pytest.raises(SchemaMismatch, match="non-finite"):
            TargetSample(t=0.0, **arrays)

    def test_non_finite_time_rejected(self, human66):
        sample = static_sample(human66, Configuration.zeros(human66))
        with pytest.raises(SchemaMismatch, match="non-finite"):
            TargetSample(t=np.nan, positions=sample.positions, rotations=sample.rotations,
                         lin_vels=sample.lin_vels, ang_vels=sample.ang_vels)

    def test_reports_first_bad_rotation(self, human66):
        sample = static_sample(human66, Configuration.zeros(human66))
        rotations = sample.rotations.copy()
        rotations[3] *= 1.01
        rotations[7] = -rotations[7]
        with pytest.raises(SchemaMismatch, match="rotation target 3 "):
            TargetSample(t=0.0, positions=sample.positions, rotations=rotations,
                         lin_vels=sample.lin_vels, ang_vels=sample.ang_vels)


    def test_copies_its_arguments(self, human66):
        """A sample is copied as a stream of one: it shares no memory with the
        caller's arrays, so a NaN written into them afterwards never reaches
        the tracker."""
        arrays = {f: getattr(static_sample(human66, Configuration.zeros(human66)), f).copy()
                  for f in self.FIELDS}
        sample = TargetSample(t=0.0, **arrays)
        assert [f for f in self.FIELDS if np.shares_memory(getattr(sample, f), arrays[f])] == []
        for a in arrays.values():
            a.flat[0] = np.nan
        gains, baumgarte, _ = default_setup(human66)
        assert track(human66, [sample], gains, baumgarte).error is None

    def test_pickle_and_deepcopy_keep_the_bits(self, human66):
        sample = static_sample(human66, Configuration.zeros(human66), t=0.25)
        for other in (pickle.loads(pickle.dumps(sample)), copy.deepcopy(sample)):
            assert other.t == sample.t
            for f in self.FIELDS:
                assert np.array_equal(getattr(other, f), getattr(sample, f))


class TestCorrectedVelocity:
    def test_zero_gain_limit(self, human66):
        gains = unchecked_gains(human66, dt=DT, gain=0.0)
        sample = static_sample(human66, Configuration.zeros(human66))
        r = np.ones(72)
        assert np.array_equal(corrected_velocity(sample, r, gains), sample.velocity_stack())

    def test_zero_residual(self, human66):
        gains, _, _ = default_setup(human66)
        sample = static_sample(human66, Configuration.zeros(human66))
        out = corrected_velocity(sample, np.zeros(72), gains)
        assert np.array_equal(out, sample.velocity_stack())

    def test_scalar_arithmetic(self):
        m = base_only_model()
        gains = GainConfig.build(m, dt=DT, gain=2.0)
        sample = TargetSample(t=0.0, positions=[[0.0, 0.0, 0.0]],
                              rotations=np.zeros((0, 3, 3)),
                              lin_vels=[[1.0, 1.0, 1.0]], ang_vels=np.zeros((0, 3)))
        out = corrected_velocity(sample, np.full(3, 0.5), gains)
        assert np.allclose(out, 2.0)

    def test_stability_guard(self, human66):
        with pytest.raises(ValueError, match="stability guard"):
            GainConfig.build(human66, dt=DT, gain=150.0)


class TestLimitConstraints:
    def setup_method(self):
        self.model = single_joint_model(pos_limits=(-0.5, 0.5), vel_limit=1.0)

    def test_at_limit_forbids_motion(self):
        gains = GainConfig.build(self.model, dt=DT)
        q = Configuration(np.zeros(3), Rotation.identity(), np.array([0.5, 0.0]))
        G, g = build_limit_constraints(self.model, q, gains)
        assert G.shape == (2, self.model.n + 6)
        assert np.allclose(G[:, :6], 0.0)
        assert g[0] == 0.0  # upper row: tanh(0) * vel

    def test_far_from_limit_saturates(self):
        gains = GainConfig.build(self.model, dt=DT, limit_slope=10.0)
        q = Configuration.zeros(self.model)  # margin 0.5 -> slope arg 5
        _, g = build_limit_constraints(self.model, q, gains)
        assert np.all(np.abs(g - 1.0) <= 1e-4)

    def test_past_limit_forces_back(self):
        gains = GainConfig.build(self.model, dt=DT)
        q = Configuration(np.zeros(3), Rotation.identity(), np.array([0.6, 0.0]))
        _, g = build_limit_constraints(self.model, q, gains)
        assert g[0] < 0.0   # upper row drives s back down
        assert g[1] > 0.0   # lower row unaffected

    def test_unbounded_rows_use_default(self, human48):
        gains = GainConfig.build(human48, dt=DT, vel_bound_default=123.0)
        q = Configuration.zeros(human48)
        _, g = build_limit_constraints(human48, q, gains)
        # the coupled row has an unbounded velocity entry and sits 0.9 from
        # its configuration bound, so the step that lands on the bound,
        # 0.9 / dt = 90, is smaller than the stand-in's 123 tanh(10 * 0.9)
        assert abs(g[-1] - min(123.0 * np.tanh(10.0 * 0.9), 0.9 / DT)) <= 1e-9
        assert abs(g[-1] - 90.0) <= 1e-9

    def test_limits_hold_at_the_sample_rate(self):
        """A hinge with limits +-0.3 and no velocity limit tracks an arm
        swinging 0.5 rad: the stand-in bound of 1e3 rad/s alone would carry
        the joint past its limit in one sample, so its rows are also bounded
        by margin / dt."""
        spec = ik.TrajectorySpec(kind="sinusoidal", duration=5.0, dt=DT, amplitude=0.5, seed=1)
        _, stream = ik.generate_stream(hinge_model(), spec)
        run = ik.run_method("dynamical", hinge_model(pos_limits=(-0.3, 0.3)), stream)
        assert run.error is None and len(run.s) == 500
        assert np.abs(run.s).max() <= 0.3 + 1e-12

    def test_rows_built_once_per_model_and_read_only(self, human48):
        q = Configuration.zeros(human48)
        G, g = build_limit_constraints(human48, q, GainConfig.build(human48, dt=DT))
        G2, _ = build_limit_constraints(human48, q, GainConfig.build(human48, dt=DT))
        assert G2 is G and not G.flags.writeable
        # another stand-in bound rebuilds the rows; going back gives the first bounds
        other = GainConfig.build(human48, dt=DT, vel_bound_default=5.0)
        _, g_other = build_limit_constraints(human48, q, other)
        _, g_again = build_limit_constraints(human48, q, GainConfig.build(human48, dt=DT))
        assert not np.array_equal(g_other, g) and np.array_equal(g_again, g)

    def test_empty_for_unconstrained_model(self, human66):
        gains = GainConfig.build(human66, dt=DT)
        G, g = build_limit_constraints(human66, Configuration.zeros(human66), gains)
        assert G.shape == (0, human66.n + 6)
        assert g.shape == (0,)


class TestStep:
    def test_fixed_point(self, human66):
        rng = np.random.default_rng(2)
        q = Configuration(rng.normal(size=3), Rotation.about_axis([0, 1, 0], 0.3),
                          rng.normal(scale=0.3, size=human66.n))
        gains, baumgarte, solver = default_setup(human66)
        state = SolverState.initial(human66, q)
        new_state, report = step(state, static_sample(human66, q), human66,
                                 gains, baumgarte, solver)
        assert np.abs(new_state.nu.stacked()).max() <= 1e-8
        assert np.abs(new_state.q.base_pos - q.base_pos).max() <= 1e-8
        assert np.abs(new_state.q.s - q.s).max() <= 1e-8
        assert np.abs(new_state.q.base_rot.m - q.base_rot.m).max() <= 1e-8

    def test_linear_decay_of_position_residual(self):
        # static offset target on the base: r_k = r_0 (1 - K dt)^k exactly up
        # to the damping bias
        m = base_only_model()
        gains, baumgarte, solver = default_setup(m, gain=2.0)
        state = SolverState.initial(m, Configuration.zeros(m))
        target = np.array([[0.3, -0.2, 0.5]])
        norms = []
        for k in range(50):
            sample = TargetSample(t=k * DT, positions=target, rotations=np.zeros((0, 3, 3)),
                                  lin_vels=np.zeros((1, 3)), ang_vels=np.zeros((0, 3)))
            state, report = step(state, sample, m, gains, baumgarte, solver)
            norms.append(np.linalg.norm(report.residual_r))
        ratios = [norms[i + 1] / norms[i] for i in range(len(norms) - 1)]
        expected = 1.0 - 2.0 * DT
        assert all(abs(r - expected) <= 0.01 * expected for r in ratios)

    def test_rate_contract(self, human66):
        gains, baumgarte, solver = default_setup(human66)
        q = Configuration.zeros(human66)
        state = SolverState.initial(human66, q)
        state, _ = step(state, static_sample(human66, q, t=0.0), human66,
                        gains, baumgarte, solver)
        with pytest.raises(StaleSample):
            step(state, static_sample(human66, q, t=0.5), human66,
                 gains, baumgarte, solver)

    def test_mismatched_sample_spacing_is_a_setting_error(self, human66):
        """Gains and drift correction at different sample spacings are the
        caller's error: ``step`` raises it, and ``track`` raises it rather
        than recording it as the first sample's."""
        gains, baumgarte = GainConfig(dt=0.01), BaumgarteConfig(dt=0.02)
        q = Configuration.zeros(human66)
        sample = static_sample(human66, q)
        with pytest.raises(InvalidSetting, match="^baumgarte.dt differs from gains.dt$"):
            step(SolverState.initial(human66, q), sample, human66, gains, baumgarte,
                 ActiveSetSolver())
        with pytest.raises(InvalidSetting, match="^baumgarte.dt differs from gains.dt$"):
            track(human66, [sample], gains, baumgarte)

    def test_infeasible_constraints_propagate(self):
        m = single_joint_model(pos_limits=(-0.5, 0.5), vel_limit=1.0)
        extra = ik.ExtraConstraints(a=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                    b_q=np.array([-2.0, -2.0]),
                                    b_nu=np.array([np.inf, np.inf]))
        bad = ik.KinematicModel(links=m.links, joints=m.joints, base_link="base",
                                position_targets=m.position_target_frames,
                                orientation_targets=m.orientation_target_frames,
                                extra_constraints=extra)
        gains, baumgarte, solver = default_setup(bad)
        q = Configuration.zeros(bad)
        state = SolverState.initial(bad, q)
        with pytest.raises(QPInfeasible):
            step(state, static_sample(bad, q), bad, gains, baumgarte, solver)

    def test_tilted_spinning_base_follows_truth(self, human66):
        # base tilted 1 rad about x, turning at 1 rad/s about world z; exact
        # pose and velocity targets, tracking starts on the truth
        tilt = rodrigues([1.0, 0.0, 0.0], 1.0)
        nu = np.zeros(human66.n + 6)
        nu[5] = 1.0

        def truth(t):
            return Configuration(np.zeros(3), Rotation.drifting(rodrigues([0, 0, 1], t) @ tilt),
                                 np.zeros(human66.n))

        samples = []
        for k in range(300):
            q = truth(k * DT)
            positions, rotations = target_poses(human66, q)
            vel = human66.stacked_jacobian(q) @ nu
            samples.append(TargetSample(t=k * DT, positions=positions, rotations=rotations,
                                        lin_vels=vel[:3].reshape(-1, 3),
                                        ang_vels=vel[3:].reshape(-1, 3)))
        gains, baumgarte, solver = default_setup(human66)
        result = track(human66, samples, gains, baumgarte, solver, q0=truth(0.0))
        assert result.error is None
        # the state after the last sample estimates the pose one period later
        error = relative_angle(Rotation.drifting(result.base_rot[-1]),
                                  truth(300 * DT).base_rot)
        assert np.degrees(error) <= 0.05

    def test_report_carries_pre_update_residual(self, human66):
        gains, baumgarte, solver = default_setup(human66)
        q = Configuration.zeros(human66)
        sample = static_sample(human66, q)
        sample.positions = sample.positions + np.array([0.2, 0.0, 0.0])
        state = SolverState.initial(human66, q)
        _, report = step(state, sample, human66, gains, baumgarte, solver)
        assert np.allclose(report.residual_r[:3], [0.2, 0.0, 0.0])


class TestTrack:
    def test_empty_stream(self, human66):
        gains, baumgarte, _ = default_setup(human66)
        result = track(human66, [], gains, baumgarte)
        assert len(result.step_time) == 0
        assert result.error is None

    def test_of_run_folds_any_advance(self, human66):
        """``TrackResult.of_run`` hands ``advance`` the start configuration
        and then each configuration it returned, writes row i of what it
        returns, and stops at the first ``IkTrackError`` with the rows
        before it; an ``InvalidSetting`` is raised."""
        spec = ik.TrajectorySpec(kind="static_pose", duration=0.05, dt=DT, amplitude=0.1,
                                 seed=3)
        samples = list(ik.generate_stream(human66, spec)[1])
        q0, seen = Configuration.zeros(human66), []

        def advance(q, sample):
            seen.append(q)
            if sample.t >= 3 * DT - 1e-12:
                raise QPInfeasible("no room")
            moved = Configuration(q.base_pos + 1.0, q.base_rot, q.s)
            return moved, np.full(6 + human66.n, sample.t), 2.0 * sample.t

        run = ik.TrackResult.of_run(human66, samples, advance, q0)
        assert run.error == "step 3: no room"
        assert [q.base_pos[0] for q in seen] == [0.0, 1.0, 2.0, 3.0]
        assert np.array_equal(run.base_pos, np.repeat([[1.0], [2.0], [3.0]], 3, axis=1))
        assert np.array_equal(run.nu[:, 0], [0.0, DT, 2 * DT])
        assert np.array_equal(run.step_time, [0.0, 2 * DT, 4 * DT])
        assert (run.base_rot.shape, run.s.shape) == ((3, 3, 3), (3, human66.n))

        def bad_setting(q, sample):
            raise InvalidSetting("gain must be a positive finite number, got -1")

        with pytest.raises(InvalidSetting):
            ik.TrackResult.of_run(human66, samples, bad_setting)

    @pytest.mark.parametrize("part", ["base_pos", "base_rot", "s"])
    def test_non_finite_start_configuration_is_a_setting_error(self, part, human66):
        """A caller's ``q0`` that is not finite is the caller's error, raised
        before the first step, not a step's non-finite velocity."""
        parts = {"base_pos": np.zeros(3), "base_rot": np.eye(3), "s": np.zeros(human66.n)}
        parts[part].flat[0] = np.nan
        q0 = Configuration(parts["base_pos"], Rotation.drifting(parts["base_rot"]), parts["s"])
        gains, baumgarte, _ = default_setup(human66)
        samples = [static_sample(human66, Configuration.zeros(human66))]
        with pytest.raises(InvalidSetting, match="q0 holds a non-finite value"):
            track(human66, samples, gains, baumgarte, q0=q0)

    def test_constant_stream_fixed_point(self, human66):
        spec = ik.TrajectorySpec(kind="static_pose", duration=0.1, dt=DT,
                                 amplitude=0.1, seed=3)
        truth, samples = ik.generate_stream(human66, spec)
        gains, baumgarte, _ = default_setup(human66)
        result = track(human66, samples, gains, baumgarte, q0=truth[0][0])
        assert result.error is None
        for q in run_configurations(result):
            assert np.abs(q.s - truth[0][0].s).max() <= 1e-8

    def test_partial_results_on_error(self, human66):
        spec = ik.TrajectorySpec(kind="static_pose", duration=0.1, dt=DT,
                                 amplitude=0.1, seed=3)
        samples = list(ik.generate_stream(human66, spec)[1])
        samples[5] = TargetSample(t=99.0, positions=samples[5].positions,
                                  rotations=samples[5].rotations,
                                  lin_vels=samples[5].lin_vels,
                                  ang_vels=samples[5].ang_vels)
        gains, baumgarte, _ = default_setup(human66)
        result = track(human66, samples, gains, baumgarte)
        assert result.error is not None
        assert len(result.step_time) == 5
        assert "t=99" in result.error

    def test_huge_finite_velocity_target_is_recorded(self, human66):
        # a finite target past what the QP can solve in float range
        spec = ik.TrajectorySpec(kind="sinusoidal", duration=0.3, dt=DT, amplitude=0.2, seed=3)
        samples = list(ik.generate_stream(human66, spec)[1])
        samples[5] = with_fields(samples[5], ang_vels=np.full((human66.n_o, 3), 1e200))
        gains, baumgarte, _ = default_setup(human66)
        with np.errstate(all="ignore"):
            result = track(human66, samples, gains, baumgarte)
        assert result.error is not None
        assert len(result.step_time) == 5
        assert result.error.startswith("step 5: ") and "half a turn" in result.error

    @pytest.mark.parametrize("turn", [0.9, 1.1])
    def test_half_turn_guard(self, turn, human66):
        """Exact targets of a base turning about world z by ``turn`` pi per
        sample, tracked from the truth: 0.9 pi is tracked, and 1.1 pi raises
        ``NonFiniteSolution`` at the sample that asks for it, which is not
        recorded."""
        nu = np.zeros(human66.n + 6)
        nu[5] = turn * np.pi / DT
        samples = []
        for k in range(2):
            q = Configuration(np.zeros(3), Rotation.about_axis([0, 0, 1], k * turn * np.pi),
                              np.zeros(human66.n))
            positions, rotations = target_poses(human66, q)
            vel = human66.stacked_jacobian(q) @ nu
            samples.append(TargetSample(t=k * DT, positions=positions, rotations=rotations,
                                        lin_vels=vel[:3].reshape(-1, 3),
                                        ang_vels=vel[3:].reshape(-1, 3)))
        gains, baumgarte, solver = default_setup(human66)
        q0 = Configuration.zeros(human66)
        result = track(human66, samples, gains, baumgarte, solver, q0=q0)
        if turn < 1.0:
            assert result.error is None
            assert len(result.step_time) == 2
        else:
            assert len(result.step_time) == 0
            assert result.error.startswith("step 0: ") and "half a turn" in result.error
            with pytest.raises(NonFiniteSolution, match="half a turn"):
                step(SolverState.initial(human66, q0), samples[0], human66, gains,
                     baumgarte, solver)

    @pytest.mark.parametrize("huge", [1e100, 1e150])
    def test_no_non_finite_configuration_is_recorded(self, huge, human66):
        # a finite target whose velocity is finite but overflows the
        # integrated configuration at the step it is tracked or the next
        spec = ik.TrajectorySpec(kind="sinusoidal", duration=0.3, dt=DT, amplitude=0.2, seed=3)
        samples = list(ik.generate_stream(human66, spec)[1])
        samples[5] = with_fields(samples[5], ang_vels=np.full((human66.n_o, 3), huge))
        gains, baumgarte, _ = default_setup(human66)
        with np.errstate(all="ignore"):
            result = track(human66, samples, gains, baumgarte)
        assert result.error is not None
        for q in run_configurations(result):
            assert all(np.isfinite(a).all() for a in (q.base_pos, q.base_rot.m, q.s))

    def test_overflowing_gain_term_is_a_non_finite_velocity(self, human66):
        """A finite position target of 1e308 at sample 1: the gain term
        K (p_target - p) overflows, so the QP's velocity is not finite."""
        spec = ik.TrajectorySpec(kind="sinusoidal", duration=0.05, dt=DT, amplitude=0.2, seed=3)
        samples = list(ik.generate_stream(human66, spec)[1])
        samples[1] = with_fields(samples[1], positions=np.full((human66.n_p, 3), 1e308))
        gains, baumgarte, _ = default_setup(human66)
        with np.errstate(all="ignore"):
            result = track(human66, samples, gains, baumgarte)
        assert result.error == ("step 1: the QP returned a non-finite velocity; the targets "
                                "overflow float arithmetic")
        assert len(result.step_time) == 1
        assert all(np.isfinite(a).all() for q in run_configurations(result)
                   for a in (q.base_pos, q.base_rot.m, q.s))

    def test_overflowing_integration_is_a_non_finite_configuration(self, human66):
        """The base at 1.79e308 and its position targets with it, asked to
        move at 1e308: the velocity is finite, but the integrated position
        overflows, so nothing is recorded."""
        spec = ik.TrajectorySpec(kind="sinusoidal", duration=0.05, dt=DT, amplitude=0.2, seed=3)
        truth, stream = ik.generate_stream(human66, spec)
        samples = [with_fields(x, positions=np.full((human66.n_p, 3), 1.79e308),
                               lin_vels=np.full((human66.n_p, 3), 1e308)) for x in stream]
        q0 = Configuration(np.full(3, 1.79e308), truth[0][0].base_rot, truth[0][0].s)
        gains, baumgarte, _ = default_setup(human66)
        with np.errstate(all="ignore"):
            result = track(human66, samples, gains, baumgarte, q0=q0)
        assert result.error == ("step 0: the integrated configuration is not finite; the "
                                "targets overflow float arithmetic")
        assert len(result.step_time) == 0

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", ["human66", "human48"])
    def test_fuzzed_streams_only_record_typed_errors(self, name, seed, human66, request):
        """One defect per stream: a wrong target count, a timestamp off the
        rate or a huge finite value. ``track`` records an ``IkTrackError`` and
        lets nothing else out; a count or spacing defect aborts where it sits."""
        model = request.getfixturevalue(name)
        spec = ik.TrajectorySpec(kind="random_smooth", duration=0.3, dt=DT, amplitude=1.0,
                                 freq_band=(0.3, 1.0), seed=seed)
        _, clean = ik.generate_stream(human66, spec)
        gains, baumgarte, _ = default_setup(model)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            samples, k, kind = defective_stream(clean, rng)
            with np.errstate(all="ignore"):
                result = track(model, samples, gains, baumgarte)
            if kind == "count":
                assert len(result.step_time) == k and "targets" in result.error
            elif kind == "spacing":
                assert len(result.step_time) == max(k, 1) and "dt=" in result.error
            else:
                assert len(result.step_time) >= k

    def test_continuity_under_velocity_bounds(self, human48):
        # per-step joint motion is capped by dt times the velocity bound
        spec = ik.TrajectorySpec(kind="random_smooth", duration=2.0, dt=DT,
                                 amplitude=1.0, freq_band=(0.3, 1.0), seed=11)
        m66 = ik.generate_human_chain(66, seed=7)
        _, samples = ik.generate_stream(m66, spec)
        gains, baumgarte, _ = default_setup(human48)
        result = track(human48, samples, gains, baumgarte)
        assert result.error is None
        prev = result.s[0]
        bound = DT * human48.vel_bounds[np.isfinite(human48.vel_bounds)].max()
        for s in result.s[1:]:
            assert np.abs(s - prev).max() <= bound + 1e-9
            prev = s

    def test_initial_configuration_at_base_target(self, human66):
        spec = ik.TrajectorySpec(kind="sinusoidal", duration=0.05, dt=DT,
                                 amplitude=0.2, seed=5)
        _, samples = ik.generate_stream(human66, spec)
        q0 = initial_configuration(human66, samples[0])
        assert np.array_equal(q0.base_pos, samples[0].positions[0])
        assert np.array_equal(q0.base_rot.m, np.eye(3))
        assert np.array_equal(q0.s, np.zeros(human66.n))


def with_fields(sample, **fields):
    """A copy of ``sample`` with some fields replaced."""
    base = dict(t=sample.t, positions=sample.positions, rotations=sample.rotations,
                lin_vels=sample.lin_vels, ang_vels=sample.ang_vels)
    base.update(fields)
    return TargetSample(**base)


def defective_stream(samples, rng):
    """A copy of ``samples`` with one random defect at sample k; returns the
    stream, k and the kind of defect."""
    samples = list(samples)
    k = int(rng.integers(len(samples)))
    x = samples[k]
    kind = ["count", "spacing", "huge"][int(rng.integers(3))]
    if kind == "count" and rng.random() < 0.5:
        fields = dict(positions=x.positions[:-1], lin_vels=x.lin_vels[:-1])
    elif kind == "count":
        fields = dict(rotations=np.concatenate([x.rotations, np.eye(3)[None]]),
                      ang_vels=np.concatenate([x.ang_vels, np.zeros((1, 3))]))
    elif kind == "spacing":
        fields = dict(t=x.t + rng.choice([-1.0, 1.0]) * rng.uniform(1e-6, 2.0 * DT))
    else:
        field = str(rng.choice(["positions", "lin_vels", "ang_vels"]))
        value = getattr(x, field).copy()
        huge = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(20, 307)
        value.flat[rng.integers(value.size)] = huge
        fields = {field: value}
    samples[k] = with_fields(x, **fields)
    return samples, k, kind


# sha256 prefixes of the configurations and velocities ``track`` returned over
# a 0.5 s random_smooth stream of the 66-DoF chain (amplitude 1.0, seed 23),
# recorded when the orientation feedback moved into the world frame (numpy
# 2.4, x86-64); the 48-DoF chain has limit rows active on most of the steps
PINNED_TRACK = {"human66": "60285fc86a0e6ff5", "human48": "a9d123440bd1768c"}


@pytest.mark.parametrize("name", ["human66", "human48"])
def test_tracked_outputs_are_pinned(name, human66, request):
    model = request.getfixturevalue(name)
    spec = ik.TrajectorySpec(kind="random_smooth", duration=0.5, dt=DT, amplitude=1.0,
                             freq_band=(0.3, 1.0), seed=23)
    _, samples = ik.generate_stream(human66, spec)
    gains, baumgarte, _ = default_setup(model)
    result = track(model, samples, gains, baumgarte)
    assert result.error is None and len(result.step_time) == 50
    digest = hashlib.sha256()
    for k in range(len(result.step_time)):
        for part in (result.base_pos[k], result.base_rot[k], result.s[k], result.nu[k]):
            digest.update(np.ascontiguousarray(part, dtype=float).tobytes())
    assert digest.hexdigest()[:16] == PINNED_TRACK[name]


class TestConstantCost:
    def test_one_jacobian_and_one_qp_per_step(self, human66, monkeypatch):
        calls = {"jac": 0, "qp": 0}
        orig_jac = ik.KinematicModel.stacked_jacobian
        orig_solve = ActiveSetSolver.solve

        def counting_jac(self, q, fk=None):
            calls["jac"] += 1
            return orig_jac(self, q, fk=fk)

        def counting_solve(self, prob, warm_start=()):
            calls["qp"] += 1
            return orig_solve(self, prob, warm_start=warm_start)

        monkeypatch.setattr(ik.KinematicModel, "stacked_jacobian", counting_jac)
        monkeypatch.setattr(ActiveSetSolver, "solve", counting_solve)
        gains, baumgarte, solver = default_setup(human66)
        q = Configuration.zeros(human66)
        state = SolverState.initial(human66, q)
        for k in range(5):
            state, _ = step(state, static_sample(human66, q, t=k * DT), human66,
                            gains, baumgarte, solver)
        assert calls == {"jac": 5, "qp": 5}

    @pytest.mark.parametrize("name", ["human66", "human48"])
    def test_one_call_per_stage_per_step(self, name, human66, request, monkeypatch):
        """Each stage runs once per step, through the name a per-stage tracer
        patches: three model methods, two tracker globals and the solver."""
        model = request.getfixturevalue(name)
        calls = {}

        def counting(owner, attr):
            original = getattr(owner, attr)
            calls[attr] = 0

            def counted(*args, **kwargs):
                calls[attr] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

        for attr in ("fk_arrays", "pose_residual_arrays", "stacked_jacobian"):
            counting(ik.KinematicModel, attr)
        counting(tracker, "build_limit_constraints")
        counting(tracker, "baumgarte_step")
        counting(ActiveSetSolver, "solve")
        spec = ik.TrajectorySpec(kind="random_smooth", duration=0.2, dt=DT, amplitude=1.0,
                                 freq_band=(0.3, 1.0), seed=4)
        _, samples = ik.generate_stream(human66, spec)
        calls.update(dict.fromkeys(calls, 0))
        gains, baumgarte, solver = default_setup(model)
        state = SolverState.initial(model, initial_configuration(model, samples[0]))
        for sample in samples:
            state, _ = step(state, sample, model, gains, baumgarte, solver)
        assert calls == dict.fromkeys(calls, len(samples))

    @pytest.mark.xfail(reason="wall-clock CV is dominated by scheduler preemption "
                              "spikes on shared machines; the robust spread "
                              "comparison lives in the acceptance suite",
                       strict=False)
    def test_step_time_coefficient_of_variation(self, human66):
        spec = ik.TrajectorySpec(kind="random_smooth", duration=100.0, dt=DT,
                                 amplitude=0.3, freq_band=(0.5, 1.5), seed=9)
        _, samples = ik.generate_stream(human66, spec)
        gains, baumgarte, _ = default_setup(human66)
        result = track(human66, samples, gains, baumgarte)
        assert result.error is None
        times = result.step_time[10:]
        assert times.std() / times.mean() <= 0.25


class TestLemmaDecay:
    def test_orientation_error_decays_monotonically(self):
        # single body, large initial relative angle
        m = base_only_model(orientation_target=True)
        target = rodrigues([0.0, 0.0, 1.0], 3.0)
        gains, baumgarte, solver = default_setup(m, gain=2.0)
        state = SolverState.initial(m, Configuration.zeros(m))
        angles = []
        for k in range(900):
            sample = TargetSample(t=k * DT, positions=[[0.0, 0.0, 0.0]],
                                  rotations=target[None],
                                  lin_vels=np.zeros((1, 3)), ang_vels=np.zeros((1, 3)))
            state, _ = step(state, sample, m, gains, baumgarte, solver)
            angles.append(relative_angle(state.q.base_rot, target))
        assert all(angles[i + 1] <= angles[i] + 1e-12 for i in range(len(angles) - 1))
        assert angles[-1] < 1e-3

    @pytest.mark.parametrize("seed", [1, 2, 3, 5])
    def test_world_frame_feedback_converges_on_a_bent_chain(self, seed):
        """Exact static targets from a 66-DoF pose with joints up to 0.2 rad,
        a start 0.3 rad off at the base and up to 0.05 rad off per joint, and
        K dt = 0.5: the residual halves each step down to rounding. Fed back
        in the estimated frames, it falls slower wherever the chain bends
        its frames far from the world axes (seeds 3 and 5 end at 3e-8 and 2e-7)."""
        model = ik.generate_human_chain(66, seed=seed)
        rng = np.random.default_rng(seed)
        s_true = rng.uniform(-0.2, 0.2, model.n)
        start = Configuration(np.zeros(3), Rotation.about_axis(rng.normal(size=3), 0.3),
                              s_true + rng.uniform(-0.05, 0.05, model.n))
        target = static_sample(model, Configuration(np.zeros(3), Rotation.identity(), s_true))
        gains, baumgarte, solver = default_setup(model, gain=0.5 / DT)
        state = SolverState.initial(model, start)
        norms = []
        for k in range(60):
            sample = with_fields(target, t=k * DT)
            state, report = step(state, sample, model, gains, baumgarte, solver)
            norms.append(np.linalg.norm(report.residual_r))
        norms = np.array(norms)
        falls = np.diff(norms) <= 0.0
        assert np.all(falls[norms[:-1] > 1e-13])
        assert norms[-1] < 1e-10

    def test_antipodal_initialization_is_stuck(self):
        # theta = pi sits in the excluded set: the residual vanishes there
        m = base_only_model(orientation_target=True)
        target = rodrigues([0.0, 0.0, 1.0], np.pi)
        gains, baumgarte, solver = default_setup(m, gain=2.0)
        state = SolverState.initial(m, Configuration.zeros(m))
        for k in range(50):
            sample = TargetSample(t=k * DT, positions=[[0.0, 0.0, 0.0]],
                                  rotations=target[None],
                                  lin_vels=np.zeros((1, 3)), ang_vels=np.zeros((1, 3)))
            state, _ = step(state, sample, m, gains, baumgarte, solver)
        assert abs(relative_angle(state.q.base_rot, target) - np.pi) <= 1e-9
