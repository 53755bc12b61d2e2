import numpy as np
import pytest

import iktrack as ik


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


def rodrigues(axis, angle):
    """Independent axis-angle rotation for oracles."""
    a = np.asarray(axis, float)
    n = np.linalg.norm(a)
    if n == 0.0 or angle == 0.0:
        return np.eye(3)
    a = a / n
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def static_sample(model, q, t=0.0):
    """Sample equal to the forward kinematics of q with zero velocities."""
    positions, rotations = model.stacked_forward_kinematics(q)
    return ik.TargetSample(t=t, positions=positions, rotations=rotations,
                           lin_vels=np.zeros((model.n_p, 3)),
                           ang_vels=np.zeros((model.n_o, 3)))
