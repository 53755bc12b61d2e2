import numpy as np
import pytest

import iktrack as ik
from iktrack import (BaumgarteConfig, Configuration, KinematicModel, TargetSample, Velocity,
                     baumgarte_step)
from iktrack._kernels import orthonormality_errors
from iktrack.errors import RankDeficient, check_setting
from iktrack.harness import _scores
from iktrack.so3 import _mat


@pytest.fixture(scope="session")
def human66():
    return ik.generate_human_chain(66, seed=7)


@pytest.fixture(scope="session")
def human48():
    return ik.generate_human_chain(48, seed=7)


def base_only_model(position_target=True, orientation_target=False):
    """Single floating link, no joints."""
    return ik.KinematicModel(
        links=[ik.Link("base")],
        joints=[],
        base_link="base",
        position_targets=["base"] if position_target else [],
        orientation_targets=["base"] if orientation_target else [],
    )


def single_joint_model(axis=(0.0, 0.0, 1.0), offset=(0.0, 0.0, 0.0), tip_offset=(1.0, 0.0, 0.0),
                       pos_limits=None, vel_limit=None):
    """base -- joint(axis) -- link1 -- fixed-at-zero joint -- tip.

    The second joint carries the tip offset so the tip frame sits beyond the
    moving joint; tests keep its angle at zero.
    """
    return ik.KinematicModel(
        links=[ik.Link("base"), ik.Link("link1"), ik.Link("tip")],
        joints=[
            ik.Joint("j1", "base", "link1", axis=np.asarray(axis, float),
                     origin_xyz=np.asarray(offset, float),
                     pos_limits=pos_limits, vel_limit=vel_limit),
            ik.Joint("j2", "link1", "tip", axis=np.array([0.0, 0.0, 1.0]),
                     origin_xyz=np.asarray(tip_offset, float)),
        ],
        base_link="base",
        position_targets=["base"],
        orientation_targets=["base", "tip"],
    )


def hinge_model(pos_limits=None, vel_limit=None):
    """One revolute joint; base and arm orientations are both targeted, so the
    arm angle is a genuine 1-DoF problem."""
    return ik.KinematicModel(
        links=[ik.Link("base"), ik.Link("arm")],
        joints=[ik.Joint("hinge", "base", "arm", axis=np.array([0.0, 0.0, 1.0]),
                         origin_xyz=np.array([0.2, 0.0, 0.0]),
                         pos_limits=pos_limits, vel_limit=vel_limit)],
        base_link="base",
        position_targets=["base"],
        orientation_targets=["base", "arm"],
    )


def branched_model():
    """Five joints in two branches with tilted joint origins and oblique axes;
    links and joints are declared children before parents."""
    def joint(name, parent, child, axis, xyz, rpy):
        axis = np.asarray(axis, float)
        return ik.Joint(name, parent, child, axis=axis / np.linalg.norm(axis),
                        origin_xyz=np.asarray(xyz, float), origin_rpy=np.asarray(rpy, float))

    return ik.KinematicModel(
        links=[ik.Link(n) for n in ("hand", "tip_b", "tip_a", "arm", "mid", "root")],
        joints=[
            joint("j_hand", "arm", "hand", [1, 0, 0], [0.0, 0.0, -0.3], [0.1, 0.1, 0.1]),
            joint("j_tip_a", "mid", "tip_a", [1, 1, 0], [0.3, 0.0, 0.1], [0.2, -0.1, 0.4]),
            joint("j_tip_b", "mid", "tip_b", [0, 0, 1], [0.0, 0.2, 0.0], [0.0, 0.5, 0.0]),
            joint("j_arm", "root", "arm", [1, -2, 2], [-0.2, 0.1, 0.0], [-0.4, 0.0, 0.25]),
            joint("j_mid", "root", "mid", [0, 1, 0], [0.1, 0.0, 0.5], [0.3, 0.2, -0.1]),
        ],
        base_link="root",
        position_targets=["tip_a", "root", "hand"],
        orientation_targets=["hand", "tip_b", "root", "mid"],
    )


def unchecked_gains(model, dt, gain):
    """``GainConfig.build`` with the feedback gain set to ``gain``, bypassing
    the positivity and stability guards (zero gain, or gain * dt past 1)."""
    gains = ik.GainConfig.build(model, dt=dt)
    gains.gain = float(gain)
    return gains


def run_configurations(run):
    """The configurations of a ``TrackResult``, one per row."""
    return [ik.Configuration(p, ik.Rotation.drifting(r), s)
            for p, r, s in zip(run.base_pos, run.base_rot, run.s)]


def run_velocities(run):
    """The velocities of a ``TrackResult``, one per row."""
    return [ik.Velocity(nu) for nu in run.nu]


def rodrigues(axis, angle):
    """Independent axis-angle rotation for oracles."""
    a = np.asarray(axis, float)
    n = np.linalg.norm(a)
    if n == 0.0 or angle == 0.0:
        return np.eye(3)
    a = a / n
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def target_poses(model, q):
    """Poses of the declared target frames at q, as the pipeline forms them:
    ``stacked_poses`` of a one-configuration ``fk_batch``."""
    fk = model.fk_batch(q.base_pos[None], q.base_rot.m[None], q.s[None])
    positions, rotations = model.stacked_poses(fk)
    return ik.StackedPose(positions[0], rotations[0])


def residual_at(model, q, sample):
    """The stacked pose residual ``step()`` feeds back at q."""
    return model.pose_residual_arrays(model.fk_arrays(q), sample.positions, sample.rotations)


def every_link_model(model):
    """``model`` with every link declared as a position and an orientation
    target, so its stacked Jacobian holds the linear rows of every link, then
    the angular rows of every link."""
    names = [l.name for l in model.links]
    return ik.KinematicModel(model.links, model.joints, model.base_link,
                             position_targets=names, orientation_targets=names,
                             extra_constraints=model.extra_constraints)


def static_sample(model, q, t=0.0):
    """Sample equal to the forward kinematics of q with zero velocities."""
    positions, rotations = target_poses(model, q)
    return ik.TargetSample(t=t, positions=positions, rotations=rotations,
                           lin_vels=np.zeros((model.n_p, 3)),
                           ang_vels=np.zeros((model.n_o, 3)))


# the defects a start configuration can have, each with the InvalidSetting
# message that refuses it, after the argument's name
BAD_STARTS = {
    "base_pos-nan": "holds a non-finite value",
    "base_rot-nan": "holds a non-finite value",
    "s-nan": "holds a non-finite value",
    "s-one-short": "must have a 3x3 base rotation and {n} joint angles, got shapes (3, 3) "
                   "and ({m},)",
    "base-2x2": "must have a 3x3 base rotation and {n} joint angles, got shapes (2, 2) "
                "and ({n},)",
    "not-a-configuration": "must be a Configuration, got {q!r:.40}",
}


def bad_start(model, defect):
    """A start configuration for ``model`` with one of the ``BAD_STARTS``
    defects, and the whole message, after the argument's name, that refuses it."""
    base_pos, base_rot, s = np.zeros(3), np.eye(3), np.zeros(model.n)
    if defect == "not-a-configuration":
        q = np.zeros(model.n + 7)
    elif defect == "s-one-short":
        q = ik.Configuration(base_pos, ik.Rotation.drifting(base_rot), s[1:])
    elif defect == "base-2x2":
        q = ik.Configuration(base_pos, ik.Rotation.drifting(np.eye(2)), s)
    else:
        {"base_pos-nan": base_pos, "base_rot-nan": base_rot, "s-nan": s}[defect].flat[0] = np.nan
        q = ik.Configuration(base_pos, ik.Rotation.drifting(base_rot), s)
    return q, BAD_STARTS[defect].format(n=model.n, m=model.n - 1, q=q)


def with_extra_rows(model, a, b_q):
    """``model`` with its extra constraint rows replaced by A s <= b_q, none
    bounded in velocity."""
    b_q = np.asarray(b_q, dtype=float)
    return ik.KinematicModel(model.links, model.joints, model.base_link,
                             model.position_target_frames, model.orientation_target_frames,
                             ik.ExtraConstraints(a=a, b_q=b_q, b_nu=np.full(b_q.shape, np.inf)))


def inconsistent_model(human48):
    """human48 with two more rows on l5_z that no angle meets: s <= -0.1 and
    -s <= -0.1."""
    ec = human48.extra_constraints
    row = np.zeros(human48.n)
    row[[j.name for j in human48.joints].index("l5_z")] = 1.0
    return with_extra_rows(human48, np.vstack([ec.a, row, -row]), [*ec.b_q, -0.1, -0.1])


# -- oracles: independent or single-sample forms of what the pipeline computes

def relative_angle(a, b) -> float:
    """Geodesic angle between two rotations, in [0, pi]."""
    c = 0.5 * (np.trace(_mat(a).T @ _mat(b)) - 1.0)
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def baumgarte_integrate(r0, omegas, cfg: BaumgarteConfig) -> tuple[np.ndarray, float]:
    """Fold ``baumgarte_step`` over a sequence of angular velocities.

    Returns the final (drifting) matrix and the worst orthonormality error
    observed at any step.
    """
    omegas = np.asarray(omegas, dtype=float)
    path = np.empty((len(omegas), 3, 3))
    r = _mat(r0).copy()
    for k, omega in enumerate(omegas):
        r = path[k] = baumgarte_step(r, omega, cfg)
    return r, float(orthonormality_errors(path).max(initial=0.0))


def solve_unconstrained(J, target, damping: float = 0.0) -> np.ndarray:
    """x = (J^T J + damping I)^-1 J^T target via a least-squares factorization
    of the damping-augmented system."""
    check_setting("damping", damping, zero_ok=True)
    J = np.asarray(J, dtype=float)
    target = np.asarray(target, dtype=float)
    d = J.shape[1]
    if damping > 0.0:
        aug = np.vstack([J, np.sqrt(damping) * np.eye(d)])
        rhs = np.concatenate([target, np.zeros(d)])
        x, _, _, _ = np.linalg.lstsq(aug, rhs, rcond=None)
        return x
    x, _, rank, _ = np.linalg.lstsq(J, target, rcond=None)
    if rank < d:
        raise RankDeficient(f"rank {rank} < {d} with zero damping")
    return x


def _sample_scores(model, q, nu, sample):
    """``_scores`` of one configuration and stacked velocity against one
    sample."""
    sample.check_model(model)
    return _scores(model, q.base_pos[None], q.base_rot.m[None], q.s[None], nu[None],
                   sample.rotations[None], sample.ang_vels[None])


def mnte(model: KinematicModel, q: Configuration, sample: TargetSample) -> float:
    """Mean normalized trace error over the orientation targets: the per-frame
    term tr(I - R_est^T R_target)/2 equals 1 - cos of the relative angle.

    The estimate is scored with its base rotation projected onto SO(3): on a
    drifting base the trace of the raw matrix can exceed 3. A term that reads
    below 0 by rounding counts as 0.
    """
    return float(_sample_scores(model, q, np.zeros(6 + model.n), sample)[0][0])


def rmse_angvel(model: KinematicModel, q: Configuration, nu: Velocity,
                sample: TargetSample) -> float:
    """Root mean squared angular-velocity error over the orientation targets,
    with the estimate read from the differential kinematics at (q, nu), q's
    base projected onto SO(3) as ``mnte`` scores it."""
    return float(_sample_scores(model, q, nu.stacked(), sample)[1][0])
