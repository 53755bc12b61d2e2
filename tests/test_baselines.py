import hashlib

import numpy as np
import pytest

import iktrack as ik
from iktrack import (Configuration, InstantaneousConfig, Rotation, TargetSample,
                     decompose_pairwise, solve_pairwise, solve_whole_body)
from iktrack.errors import DecompositionError
from iktrack.harness import METHODS, run_method
from iktrack.qp import _damped, _normal_equations, _solve_normal

from conftest import (BAD_STARTS, bad_start, hinge_model, inconsistent_model, residual_at,
                      rodrigues, run_configurations, single_joint_model, static_sample,
                      with_extra_rows)


def bisection_oracle(f, lo, hi, tol=1e-12):
    """Root of a monotone scalar residual."""
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def hinge_sample(model, angle):
    q = Configuration(np.zeros(3), Rotation.identity(), np.array([angle]))
    return static_sample(model, q)


class TestWholeBody:
    def test_exact_start_needs_zero_iterations(self, human66):
        rng = np.random.default_rng(0)
        q = Configuration(rng.normal(size=3), Rotation.about_axis([1, 1, 0], 0.4),
                          rng.normal(scale=0.3, size=human66.n))
        result = solve_whole_body(human66, static_sample(human66, q), q,
                                  InstantaneousConfig())
        assert result.iterations == 0
        assert result.converged
        assert np.array_equal(result.q.s, q.s)

    def test_single_joint_convergence(self):
        m = hinge_model()
        sample = hinge_sample(m, 0.7)
        q0 = Configuration.zeros(m)
        result = solve_whole_body(m, sample, q0, InstantaneousConfig(stop_tol=1e-8))
        # cross-check against a bisection oracle on the scalar residual
        def residual(s):
            q = Configuration(np.zeros(3), Rotation.identity(), np.array([s]))
            return residual_at(m, q, sample)[8]  # arm z-rotation component
        root = bisection_oracle(residual, 0.0, 1.5)
        assert abs(root - 0.7) <= 1e-9
        assert abs(result.q.s[0] - 0.7) <= 1e-6

    def test_bounded_joint_stops_at_limit(self):
        m = hinge_model(pos_limits=(-0.5, 0.5))
        sample = hinge_sample(hinge_model(), 1.0)  # target beyond the bound
        result = solve_whole_body(m, sample, Configuration.zeros(m),
                                  InstantaneousConfig(stop_tol=1e-8, max_iters=60))
        assert abs(result.q.s[0] - 0.5) <= 1e-9
        assert result.pose_error > 1e-3
        assert not result.converged

    def test_monotone_error_over_iterates(self, human66):
        # run with a tight tolerance and confirm the final error never exceeds
        # the initial one at several restarts
        rng = np.random.default_rng(1)
        spec = ik.TrajectorySpec(kind="static_pose", duration=0.02, dt=0.01,
                                 amplitude=0.25, seed=8)
        _, samples = ik.generate_stream(human66, spec)
        cfg = InstantaneousConfig(stop_tol=1e-10, max_iters=5)
        q = ik.initial_configuration(human66, samples[0])
        w = cfg.weight_vector(human66)
        for _ in range(4):
            before = np.linalg.norm(w * residual_at(human66, q, samples[0]))
            result = solve_whole_body(human66, samples[0], q, cfg)
            after = np.linalg.norm(w * residual_at(human66, result.q, samples[0]))
            assert after <= before + 1e-12
            q = result.q

    def test_respects_constraints(self, human48):
        m66 = ik.generate_human_chain(66, seed=7)
        spec = ik.TrajectorySpec(kind="static_pose", duration=0.02, dt=0.01,
                                 amplitude=1.2, seed=4)
        _, samples = ik.generate_stream(m66, spec)
        result = solve_whole_body(human48, samples[0],
                                  ik.initial_configuration(human48, samples[0]),
                                  InstantaneousConfig(max_iters=50))
        viol = human48.constraint_matrix @ result.q.s - human48.config_bounds
        assert np.max(viol) <= 1e-9


class TestDecomposition:
    def test_single_connection(self):
        m = single_joint_model()
        subs = decompose_pairwise(m)
        assert len(subs) == 1
        assert subs[0].joint_indices == (0, 1)
        assert subs[0].root_frame == "base"
        assert subs[0].tip_frame == "tip"

    def test_eight_link_three_subsystems(self):
        # serial chain with targets on the base and three downstream links
        links = [ik.Link("b")] + [ik.Link(f"l{i}", is_dummy=(i % 2 == 0)) for i in range(1, 8)]
        joints = [ik.Joint(f"j{i}", "b" if i == 1 else f"l{i-1}", f"l{i}",
                           axis=[0, 0, 1], origin_xyz=[0.1, 0, 0]) for i in range(1, 8)]
        m = ik.KinematicModel(links=links, joints=joints, base_link="b",
                              position_targets=["b"],
                              orientation_targets=["b", "l2", "l5", "l7"])
        subs = decompose_pairwise(m)
        assert len(subs) == 3
        assert {s.tip_frame for s in subs} == {"l2", "l5", "l7"}
        covered = sorted(i for s in subs for i in s.joint_indices)
        assert covered == list(range(7))

    def test_human66_partition(self, human66):
        subs = decompose_pairwise(human66)
        assert len(subs) == 22
        assert all(len(s.joint_indices) == 3 for s in subs)
        covered = sorted(i for s in subs for i in s.joint_indices)
        assert covered == list(range(66))

    def test_uncovered_joint_rejected(self):
        # tip has no orientation target: its joints lie between no target pair
        m = ik.KinematicModel(
            links=[ik.Link("base"), ik.Link("link1"), ik.Link("tip")],
            joints=[ik.Joint("j1", "base", "link1", axis=[0, 0, 1]),
                    ik.Joint("j2", "link1", "tip", axis=[0, 0, 1], origin_xyz=[1, 0, 0])],
            base_link="base", position_targets=["base"], orientation_targets=["base"])
        with pytest.raises(DecompositionError):
            decompose_pairwise(m)

    def test_base_needs_both_targets(self, human66):
        m = ik.KinematicModel(links=human66.links, joints=human66.joints,
                              base_link="pelvis", position_targets=(),
                              orientation_targets=human66.orientation_target_frames)
        with pytest.raises(DecompositionError):
            decompose_pairwise(m)

    def test_base_needs_an_orientation_target(self, human66):
        m = ik.KinematicModel(links=human66.links, joints=human66.joints,
                              base_link="pelvis", position_targets=("pelvis",),
                              orientation_targets=human66.orientation_target_frames[1:])
        with pytest.raises(DecompositionError, match="base frame needs an orientation target"):
            decompose_pairwise(m)

    def test_non_base_position_target_rejected(self, human66):
        frame = human66.orientation_target_frames[1]
        m = ik.KinematicModel(links=human66.links, joints=human66.joints,
                              base_link="pelvis", position_targets=("pelvis", frame),
                              orientation_targets=human66.orientation_target_frames)
        with pytest.raises(DecompositionError,
                           match=f"non-base position target '{frame}' is not supported"):
            decompose_pairwise(m)


class TestPairwise:
    def test_exact_start_converges_immediately(self, human66):
        rng = np.random.default_rng(2)
        q = Configuration(rng.normal(size=3), Rotation.about_axis([0, 1, 1], 0.3),
                          rng.normal(scale=0.3, size=human66.n))
        sample = static_sample(human66, q)
        out, reports = solve_pairwise(human66, sample, q, InstantaneousConfig())
        assert all(r.iterations == 0 for r in reports)
        assert np.array_equal(out.s, q.s)

    def test_base_pose_assigned_verbatim(self, human66):
        spec = ik.TrajectorySpec(kind="sinusoidal", duration=0.02, dt=0.01,
                                 amplitude=0.2, seed=6)
        _, samples = ik.generate_stream(human66, spec)
        q0 = ik.initial_configuration(human66, samples[0])
        out, _ = solve_pairwise(human66, samples[0], q0, InstantaneousConfig())
        assert np.array_equal(out.base_pos, samples[0].positions[0])
        assert np.array_equal(out.base_rot.m, samples[0].rotations[0])

    def test_matches_whole_body_on_determined_chain(self, human66):
        # spherical triplets against exact relative rotations admit an exact
        # solution, so both methods must land on it
        spec = ik.TrajectorySpec(kind="static_pose", duration=0.02, dt=0.01,
                                 amplitude=0.3, seed=5)
        _, samples = ik.generate_stream(human66, spec)
        q0 = ik.initial_configuration(human66, samples[0])
        pw, _ = solve_pairwise(human66, samples[0], q0,
                               InstantaneousConfig(stop_tol=1e-10, max_iters=100))
        wb = solve_whole_body(human66, samples[0], q0,
                              InstantaneousConfig(stop_tol=1e-10, max_iters=300))
        assert np.abs(pw.s - wb.q.s).max() <= 1e-6

    def test_inconsistent_target_stays_local(self, human66):
        spec = ik.TrajectorySpec(kind="static_pose", duration=0.02, dt=0.01,
                                 amplitude=0.2, seed=9)
        _, samples = ik.generate_stream(human66, spec)
        sample = samples[0]
        q0 = ik.initial_configuration(human66, sample)
        cfg = InstantaneousConfig(stop_tol=1e-9, max_iters=60)
        clean, clean_reports = solve_pairwise(human66, sample, q0, cfg)
        # twist one tip target so its subsystem cannot reach zero residual
        idx = human66.orientation_target_frames.index("right_hand")
        rotations = sample.rotations.copy()
        rotations[idx] = rodrigues([1.0, 0.0, 0.0], 2.0) @ rotations[idx]
        broken = TargetSample(t=sample.t, positions=sample.positions,
                              rotations=rotations, lin_vels=sample.lin_vels,
                              ang_vels=sample.ang_vels)
        out, reports = solve_pairwise(human66, broken, q0, cfg)
        subs = decompose_pairwise(human66)
        touched = [i for i, s in enumerate(subs) if s.tip_frame == "right_hand"
                   or s.root_frame == "right_hand"]
        for i, (a, b) in enumerate(zip(reports, clean_reports)):
            if i not in touched:
                assert abs(a.residual_norm - b.residual_norm) <= 1e-9
        untouched = [j for i, s in enumerate(subs) if i not in touched
                     for j in s.joint_indices]
        assert np.abs(out.s[untouched] - clean.s[untouched]).max() <= 1e-9

    def test_order_independence(self, human66):
        spec = ik.TrajectorySpec(kind="static_pose", duration=0.02, dt=0.01,
                                 amplitude=0.25, seed=10)
        _, samples = ik.generate_stream(human66, spec)
        q0 = ik.initial_configuration(human66, samples[0])
        cfg = InstantaneousConfig(stop_tol=1e-9, max_iters=60)
        subs = decompose_pairwise(human66)
        a, _ = solve_pairwise(human66, samples[0], q0, cfg, subsystems=subs)
        b, _ = solve_pairwise(human66, samples[0], q0, cfg, subsystems=subs[::-1])
        assert np.array_equal(a.s, b.s)

    def test_respects_constraints(self, human48):
        m66 = ik.generate_human_chain(66, seed=7)
        spec = ik.TrajectorySpec(kind="static_pose", duration=0.02, dt=0.01,
                                 amplitude=1.2, seed=4)
        _, samples = ik.generate_stream(m66, spec)
        out, _ = solve_pairwise(human48, samples[0],
                                ik.initial_configuration(human48, samples[0]),
                                InstantaneousConfig(max_iters=50))
        viol = human48.constraint_matrix @ out.s - human48.config_bounds
        assert np.max(viol) <= 1e-9


# sha256 prefixes of the configurations each solver chained over a 0.2 s
# random_smooth stream (amplitude 0.3, seed 17), and the iteration counts per
# sample (numpy 2.4, x86-64). The pairwise pins were recorded with the
# two-loop solvers these replaced, the whole-body pins with world-frame
# orientation rows in the residual and the Jacobian
PINNED = {
    ("human66", "whole-body"): ("a4037a82fe965805", [3] + [2] * 19),
    ("human48", "whole-body"): ("7b854f5d4642322a", [3] + [2] * 19),
    ("human66", "pairwise"): ("04137c8edc9e00b7", [44, 23, 23, 23, 23] + [22] * 15),
    ("human48", "pairwise"): ("d649f9e0745f4586",
                              [40, 22, 22, 22, 21, 22, 22, 21] + [22] * 12),
}


def chained_solves(model, method):
    spec = ik.TrajectorySpec(kind="random_smooth", duration=0.2, dt=0.01, amplitude=0.3,
                             seed=17)
    _, samples = ik.generate_stream(model, spec)
    cfg = InstantaneousConfig()
    q = ik.initial_configuration(model, samples[0])
    digest = hashlib.sha256()
    iterations = []
    for sample in samples:
        if method == "whole-body":
            result = solve_whole_body(model, sample, q, cfg)
            q, count = result.q, result.iterations
        else:
            q, reports = solve_pairwise(model, sample, q, cfg)
            count = sum(r.iterations for r in reports)
        for part in (q.base_pos, q.base_rot.m, q.s):
            digest.update(np.ascontiguousarray(part, dtype=float).tobytes())
        iterations.append(count)
    return digest.hexdigest()[:16], iterations


@pytest.mark.parametrize("name", ["human66", "human48"])
@pytest.mark.parametrize("method", ["whole-body", "pairwise"])
def test_chained_solves_are_pinned(name, method, request):
    assert chained_solves(request.getfixturevalue(name), method) == PINNED[name, method]


def damped_step_oracle(J, r, lam):
    """The Levenberg-Marquardt step as the loop once formed it: from the
    residual's own Jacobian -J and a damping matrix."""
    return np.linalg.solve(J.T @ J + lam * np.eye(J.shape[1]), -(-J).T @ r)


def test_damped_step_matches_normal_equations():
    # shapes of both loops: 3 x n_sub for a pairwise slice, 72 x 72 for human66
    rng = np.random.default_rng(19)
    shapes = [(3, int(k)) for k in rng.integers(1, 10, size=10)] + [(72, 72)] * 5
    shapes += [(int(k) + int(extra), int(k)) for k, extra in
               zip(rng.integers(1, 60, size=20), rng.integers(0, 8, size=20))]
    for rows, cols in shapes:
        J = rng.normal(size=(rows, cols))
        r = rng.normal(size=rows)
        for lam in (1e-12, 1e-3, 0.3, 1e4):
            h, rhs = _normal_equations(J, r)
            step = _solve_normal(_damped(h, lam), rhs)
            assert np.array_equal(step, damped_step_oracle(J, r, lam))


@pytest.mark.parametrize("make, setting", [
    pytest.param(lambda: ik.ActiveSetSolver(damping=np.nan), "damping", id="solver-damping-nan"),
    pytest.param(lambda: ik.LeastSquaresQP(np.eye(2), np.ones(2), damping=np.nan), "damping",
                 id="problem-damping-nan"),
    pytest.param(lambda: InstantaneousConfig(lm_lambda0=np.nan), "lm_lambda0",
                 id="lm-lambda0-nan"),
    pytest.param(lambda: InstantaneousConfig(lm_lambda0=0.0), "lm_lambda0", id="lm-lambda0-zero"),
    pytest.param(lambda: InstantaneousConfig(max_iters=0), "max_iters", id="max-iters-zero"),
    pytest.param(lambda: InstantaneousConfig(max_iters=2.5), "max_iters",
                 id="max-iters-fraction"),
    pytest.param(lambda: ik.ActiveSetSolver(damping=10**400), "damping",
                 id="solver-damping-past-float-range"),
    pytest.param(lambda: ik.LeastSquaresQP(np.eye(2), np.ones(2), damping=10**400), "damping",
                 id="problem-damping-past-float-range"),
    pytest.param(lambda: InstantaneousConfig(lm_lambda0=10**400), "lm_lambda0",
                 id="lm-lambda0-past-float-range"),
    pytest.param(lambda: InstantaneousConfig(max_iters=10**400), "max_iters",
                 id="max-iters-past-float-range"),
    pytest.param(lambda: ik.GainConfig(gain=10**400), "gain", id="gain-past-float-range"),
    pytest.param(lambda: ik.GainConfig(limit_slope=10**400), "limit_slope",
                 id="limit-slope-past-float-range"),
    pytest.param(lambda: ik.BaumgarteConfig(rho=10**400), "rho", id="rho-past-float-range"),
])
def test_bad_solver_settings_are_rejected(make, setting):
    """A NaN damping would be skipped as zero, and a NaN or zero initial
    damping or a zero iteration cap would make whole-body return its start
    unchanged. An integer past the float range is not a finite number. Each
    is an ``InvalidSetting`` naming the setting, which is an ``IkTrackError``
    and a ``ValueError``, in one short line."""
    with pytest.raises(ValueError, match=f"^{setting} must be") as exc:
        make()
    assert isinstance(exc.value, ik.IkTrackError)
    assert len(str(exc.value)) < 100


@pytest.mark.parametrize("defect", list(BAD_STARTS))
@pytest.mark.parametrize("solve", [solve_whole_body, solve_pairwise],
                         ids=["whole-body", "pairwise"])
def test_non_finite_start_is_a_setting_error(human66, solve, defect, monkeypatch):
    """A start configuration holding a NaN, or one that does not fit the
    model (a joint short, a 2x2 base, not a configuration at all), is the
    caller's error, raised before the first FK, not a NaN result, a count of
    converged solves or a raw ``IndexError``."""
    sample = static_sample(human66, Configuration.zeros(human66))
    q, message = bad_start(human66, defect)
    monkeypatch.setattr(ik.KinematicModel, "fk_arrays", lambda *args: pytest.fail("FK ran"))
    with pytest.raises(ik.InvalidSetting) as exc:
        solve(human66, sample, q, InstantaneousConfig())
    assert str(exc.value) == f"q_init {message}"


def test_whole_body_without_orientation_targets():
    # position targets only: the residual and its Jacobian have no rotation rows
    m = ik.KinematicModel(
        links=[ik.Link("base"), ik.Link("upper"), ik.Link("tip")],
        joints=[ik.Joint("shoulder", "base", "upper", axis=[0, 0, 1], origin_xyz=[0.1, 0, 0]),
                ik.Joint("elbow", "upper", "tip", axis=[0, 1, 0], origin_xyz=[0.5, 0, 0])],
        base_link="base", position_targets=["base", "tip"])
    truth = Configuration(np.array([0.1, -0.2, 0.3]), Rotation.about_axis([0, 0, 1], 0.2),
                          np.array([0.4, -0.3]))
    sample = static_sample(m, truth)
    assert m.n_o == 0 and sample.rotations.shape == (0, 3, 3)
    result = solve_whole_body(m, sample, Configuration.zeros(m),
                              InstantaneousConfig(stop_tol=1e-10, max_iters=100))
    assert result.converged
    assert np.linalg.norm(residual_at(m, result.q, sample)) <= 1e-10


@pytest.mark.parametrize("method", METHODS)
def test_inconsistent_constraints_are_reported(human48, method):
    """No configuration meets human48 with two contradictory rows on l5_z:
    every method reports it and records no configuration."""
    model = inconsistent_model(human48)
    spec = ik.TrajectorySpec(kind="sinusoidal", duration=0.1, dt=0.01, amplitude=0.3, seed=5)
    _, samples = ik.generate_stream(model, spec)
    run = run_method(method, model, samples)
    qs, error = run_configurations(run), run.error
    if method == "dynamical":
        assert (qs, error) == ([], "step 0: constraints are inconsistent")
    else:
        assert (qs, error) == ([], "step 0: the joint constraints A s <= b_q are inconsistent")


@pytest.mark.parametrize("method", ["whole-body", "pairwise"])
def test_binding_coupled_row_is_met(human48, method):
    """human48's coupled row l5_z + l5_y <= b_q with b_q lowered to 0.02,
    which the stream's truth passes by far: every solved configuration meets
    every row within 1e-9, and some sit on the coupled row, so the
    projection onto the rows ran."""
    ec = human48.extra_constraints
    model = with_extra_rows(human48, ec.a, [0.02])
    spec = ik.TrajectorySpec(kind="sinusoidal", duration=0.2, dt=0.01, amplitude=0.3, seed=1)
    truth, samples = ik.generate_stream(model, spec)
    assert max(float(ec.a[0] @ q.s) for q, _ in truth) > 0.1
    run = run_method(method, model, samples)
    qs, error = run_configurations(run), run.error
    assert error is None and len(qs) == len(samples)
    viol = np.array([model.constraint_matrix @ q.s - model.config_bounds for q in qs])
    assert viol.max() <= 1e-9
    assert np.abs(viol[:, -1]).min() <= 1e-9
