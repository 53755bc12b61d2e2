"""The paper's Lyapunov claim on the whole chain, in discrete time.

From far starts to static targets, the tracker's pose error function

    V = 1/2 |e_p|^2 + sum_k (3 - tr(R_k^T R_k*)) / 2,

taken at the recorded configuration with its base projected onto SO(3),
falls at every step and ends near zero. Deterministic: no wall time.
"""
import numpy as np
import pytest

import iktrack as ik
from iktrack.so3 import project_stack_to_so3

from conftest import rodrigues

DT = 0.01


def far_starts(model):
    """Three (target, start) configuration pairs, fixed before any run: both
    bases turned up to 3 rad about a random axis, the target base at
    N(0, 0.5) and the start base at the origin, target joints N(0, 0.5) and
    start joints N(0, 1)."""
    rng = np.random.default_rng(100)

    def turned():
        return ik.Rotation.drifting(rodrigues(rng.normal(size=3), rng.uniform(0.0, 3.0)))

    return [(ik.Configuration(rng.normal(0.0, 0.5, 3), turned(), rng.normal(0.0, 0.5, model.n)),
             ik.Configuration(np.zeros(3), turned(), rng.normal(0.0, 1.0, model.n)))
            for _ in range(3)]


def lyapunov(model, target, base_pos, base_rot, s):
    """V at each of a batch of configurations, against the target frames'
    poses ``target`` (positions (n_p, 3), rotations (n_o, 3, 3))."""
    positions, rotations = model.stacked_poses(
        model.fk_batch(base_pos, project_stack_to_so3(base_rot), s))
    position_term = 0.5 * np.sum((positions - target[0]) ** 2, axis=(1, 2))
    trace = np.einsum("tkij,kij->tk", rotations, target[1])
    return position_term + np.sum(3.0 - trace, axis=1) / 2.0


@pytest.mark.parametrize("gain, steps", [(2.0, 600), (10.0, 400)])
def test_pose_error_function_falls_to_zero_from_far_starts(human66, gain, steps):
    """At K = 2 (the default) and K = 10, V rises by no more than 1e-12 V0
    on any step and ends below 1e-6 V0 from each of three far starts."""
    gains = ik.GainConfig.build(human66, dt=DT, gain=gain)
    baumgarte = ik.BaumgarteConfig(rho=10.0, dt=DT)
    for i, (target, q0) in enumerate(far_starts(human66)):
        positions, rotations = human66.stacked_poses(human66.fk_batch(
            target.base_pos[None], target.base_rot.m[None], target.s[None]))
        stream = ik.TargetStream(np.arange(steps) * DT, np.repeat(positions, steps, axis=0),
                                 np.repeat(rotations, steps, axis=0),
                                 np.zeros((steps, human66.n_p, 3)),
                                 np.zeros((steps, human66.n_o, 3)))
        run = ik.track(human66, stream, gains, baumgarte, q0=q0)
        assert run.error is None, f"start {i}: {run.error}"
        poses = (positions[0], rotations[0])
        v = np.concatenate((
            lyapunov(human66, poses, q0.base_pos[None], q0.base_rot.m[None], q0.s[None]),
            lyapunov(human66, poses, run.base_pos, run.base_rot, run.s)))
        v0 = v[0]
        rise = np.max(np.diff(v)) / v0
        assert rise <= 1e-12, f"start {i}: V rose by {rise:.3g} V0 on one step"
        assert v[-1] < 1e-6 * v0, f"start {i}: V ended at {v[-1] / v0:.3g} V0"
