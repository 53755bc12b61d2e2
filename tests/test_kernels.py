"""The vectorised kernels against per-link loop references.

The references walk the tree one link at a time with the same floating-point
operations in the same order as the batched kernels, so on the shipped
fixtures (unit coordinate axes, no origin rotations) the results must be
equal bit for bit. On a tree with tilted origins and oblique axes the
stacked products may round differently from the per-link ones, so that case
is compared within a few ulps.
"""
import itertools

import numpy as np
import pytest

import iktrack as ik
from iktrack import _kernels

from conftest import branched_model, every_link_model, target_poses


def ref_rotation(axis, angle):
    x, y, z = axis
    c, s = np.cos(angle), np.sin(angle)
    t = 1.0 - c
    return np.array([[c + t * x * x, t * x * y - s * z, t * x * z + s * y],
                     [t * x * y + s * z, c + t * y * y, t * y * z - s * x],
                     [t * x * z - s * y, t * y * z + s * x, c + t * z * z]])


def ref_fk(model, q):
    n_links = len(model.links)
    pos, rot = np.empty((n_links, 3)), np.empty((n_links, 3, 3))
    done = set()
    while len(done) < n_links:
        for l in range(n_links):
            par = model._parent[l]
            if l in done or (par >= 0 and par not in done):
                continue
            if par < 0:
                pos[l], rot[l] = q.base_pos, q.base_rot.m
            else:
                pos[l] = pos[par] + np.dot(rot[par], model._origin_p[l])
                rj = ref_rotation(model._axis[l], q.s[model._joint_of[l]])
                rot[l] = np.dot(rot[par], np.dot(model._origin_r[l], rj))
            done.add(l)
    return pos, rot


def ref_jacobian(model, pos, rot, frames_p, frames_o):
    base = pos[model.link_index(model.base_link)]
    jac = np.zeros((3 * (len(frames_p) + len(frames_o)), model.n + 6))
    for i, f in enumerate(frames_p):
        r0 = 3 * i
        d = pos[f] - base
        jac[r0:r0 + 3, 0:3] = np.eye(3)
        jac[r0:r0 + 3, 3:6] = [[0.0, d[2], -d[1]], [-d[2], 0.0, d[0]], [d[1], -d[0], 0.0]]
        l = f
        while model._parent[l] >= 0:
            a = np.dot(rot[l], model._axis[l])
            r = pos[f] - pos[l]
            jac[r0:r0 + 3, 6 + model._joint_of[l]] = [a[1] * r[2] - a[2] * r[1],
                                                      a[2] * r[0] - a[0] * r[2],
                                                      a[0] * r[1] - a[1] * r[0]]
            l = model._parent[l]
    for i, f in enumerate(frames_o):
        r0 = 3 * (len(frames_p) + i)
        jac[r0:r0 + 3, 3:6] = np.eye(3)
        l = f
        while model._parent[l] >= 0:
            jac[r0:r0 + 3, 6 + model._joint_of[l]] = np.dot(rot[l], model._axis[l])
            l = model._parent[l]
    return jac


def ref_residual(model, pos, rot, target_pos, target_rot):
    out = [target_pos[i] - pos[model.link_index(f)]
           for i, f in enumerate(model.position_target_frames)]
    for i, f in enumerate(model.orientation_target_frames):
        a, b = rot[model.link_index(f)], target_rot[i]
        m = lambda r, c: a[0, r] * b[0, c] + a[1, r] * b[1, c] + a[2, r] * b[2, c]
        r = 0.5 * np.array([m(2, 1) - m(1, 2), m(0, 2) - m(2, 0), m(1, 0) - m(0, 1)])
        out.append(a @ r)  # turned from the estimated frame into the world frame
    return np.concatenate(out) if out else np.zeros(0)


def ref_baumgarte_step(r, omega, rho, dt):
    g = np.array([[r[0, a] * r[0, b] + r[1, a] * r[1, b] + r[2, a] * r[2, b]
                   for b in range(3)] for a in range(3)])
    cof = lambda i, j, k, l: g[i, j] * g[k, l] - g[i, l] * g[k, j]
    det = g[0, 0] * cof(1, 1, 2, 2) - g[0, 1] * cof(1, 0, 2, 2) + g[0, 2] * cof(1, 0, 2, 1)
    adj = np.array([[cof(1, 1, 2, 2), cof(2, 1, 0, 2), cof(0, 1, 1, 2)],
                    [cof(1, 2, 2, 0), cof(2, 2, 0, 0), cof(0, 2, 1, 0)],
                    [cof(1, 0, 2, 1), cof(2, 0, 0, 1), cof(0, 0, 1, 1)]])
    half_rho = 0.5 * rho
    m = half_rho * (adj / det - np.eye(3))
    m += [[0.0, -omega[2], omega[1]], [omega[2], 0.0, -omega[0]], [-omega[1], omega[0], 0.0]]
    return r + dt * np.dot(r, m)


def cases(human66, human48):
    rng = np.random.default_rng(11)
    for model in (human66, human48, branched_model()):
        exact = model.n > 5
        for _ in range(5):
            axis = rng.normal(size=3)
            q = ik.Configuration(rng.normal(size=3),
                                 ik.Rotation.drifting(ref_rotation(axis / np.linalg.norm(axis),
                                                                   rng.uniform(-3.0, 3.0))),
                                 rng.normal(scale=0.6, size=model.n))
            yield model, q, exact, rng


def same(a, b, exact):
    return np.array_equal(a, b) if exact else np.allclose(a, b, rtol=0.0, atol=1e-14)


def test_rotation_matches_reference():
    rng = np.random.default_rng(12)
    axes = rng.normal(size=(200, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angles = rng.uniform(-4.0, 4.0, size=200)
    batched = _kernels.rotations_about_axes(_kernels.axis_factors(axes), angles[None])[0]
    for a, t, r in zip(axes, angles, batched):
        assert np.array_equal(r, ref_rotation(a, t))


def test_fk_jacobian_residual_match_reference(human66, human48):
    for model, q, exact, rng in cases(human66, human48):
        pos, rot = model.fk_arrays(q)
        ref_pos, ref_rot = ref_fk(model, q)
        assert same(pos, ref_pos, exact) and same(rot, ref_rot, exact), model.n
        fp = [model.link_index(f) for f in model.position_target_frames]
        fo = [model.link_index(f) for f in model.orientation_target_frames]
        assert same(model.stacked_jacobian(q, fk=(pos, rot)),
                    ref_jacobian(model, pos, rot, fp, fo), exact), model.n
        # every link's rows, on the same tree with every link a target
        every = every_link_model(model)
        links = range(len(model.links))
        assert same(every.stacked_jacobian(q, fk=(pos, rot)),
                    ref_jacobian(every, pos, rot, links, links), exact), model.n
        target_pos = rng.normal(size=(model.n_p, 3))
        target_rot = np.array([ref_rotation(a / np.linalg.norm(a), rng.uniform(-3.0, 3.0))
                               for a in rng.normal(size=(model.n_o, 3))])
        assert np.array_equal(model.pose_residual_arrays((pos, rot), target_pos, target_rot),
                              ref_residual(model, pos, rot, target_pos, target_rot)), model.n


def test_position_rows_of_a_human_chain_with_hand_targets(human66):
    """The Jacobian forms the joint columns of the position rows only for the
    joints that move some position frame. On human66 no joint moves the only
    position frame, the base; with the hands targeted too, the rows still
    equal the reference bit for bit, and the base's rows keep all-zero joint
    columns."""
    assert human66._pos_cols.shape == (0,)
    model = ik.KinematicModel(human66.links, human66.joints, human66.base_link,
                              position_targets=("pelvis", "right_hand", "left_hand"),
                              orientation_targets=human66.orientation_target_frames)
    fp = [model.link_index(f) for f in model.position_target_frames]
    fo = [model.link_index(f) for f in model.orientation_target_frames]
    rng = np.random.default_rng(13)
    qs = []
    for _ in range(5):
        axis = rng.normal(size=3)
        qs.append(ik.Configuration(
            rng.normal(size=3),
            ik.Rotation.drifting(ref_rotation(axis / np.linalg.norm(axis),
                                              rng.uniform(-3.0, 3.0))),
            rng.normal(scale=0.6, size=model.n)))
    fk = model.fk_batch(np.array([q.base_pos for q in qs]),
                        np.array([q.base_rot.m for q in qs]), np.array([q.s for q in qs]))
    batched = model.stacked_jacobians(fk)
    every = every_link_model(model)
    for i, q in enumerate(qs):
        pos, rot = model.fk_arrays(q)
        jac = model.stacked_jacobian(q, fk=(pos, rot))
        every_jac = every.stacked_jacobian(q, fk=(pos, rot))
        assert np.array_equal(jac, ref_jacobian(model, pos, rot, fp, fo))
        assert np.array_equal(batched[i], jac)
        assert not jac[0:3, 6:].any()
        for row in (1, 2):
            l = model.link_index(model.position_target_frames[row])
            assert np.array_equal(jac[3 * row:3 * row + 3], every_jac[3 * l:3 * l + 3])
            # four segments of spine and four of arm, three joints each
            moving = model._support[l]
            assert moving.sum() == 24
            assert not jac[3 * row:3 * row + 3, 6:][:, ~moving].any()


def test_determinants_match_linalg():
    """The triple product of the columns against ``np.linalg.det``: equal to
    1e-12 relative, and of the same sign on every matrix, rotations,
    reflections and general matrices alike."""
    rng = np.random.default_rng(14)
    axes = rng.normal(size=(300, 3))
    rot = _kernels.rotation_vectors(axes)
    stacks = (rot, -rot, rng.normal(size=(300, 3, 3)), rng.uniform(-1e3, 1e3, (300, 3, 3)))
    for m in stacks:
        det = _kernels.determinants(m)
        ref = np.linalg.det(m)
        assert np.array_equal(np.sign(det), np.sign(ref))
        assert np.allclose(det, ref, rtol=1e-12, atol=0.0)


def test_rotation_vector_matches_the_stack_kernel():
    """The exp map of one vector on floats gives the bits of the stack kernel
    on a stack of one, signed zeros included, on 100,000 vectors: a length
    of 1e-12, lengths from 1e-13 to 30, lengths within 1e-6 of pi and
    lengths beyond 2 pi, and every vector with at most one nonzero entry and
    zeros of either sign, where the c * 0.0 terms set an entry's sign."""
    rng = np.random.default_rng(22)
    dirs = rng.normal(size=(100_000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    lengths = np.concatenate([10.0 ** rng.uniform(-13.0, np.log10(30.0), 70_000),
                              np.pi + rng.uniform(-1e-6, 1e-6, 15_000),
                              rng.uniform(2.0 * np.pi, 30.0, 15_000)])
    lengths[:100] = 1e-12
    v = dirs * lengths[:, None]
    values = (0.0, -0.0, 1e-12, -1e-12, 0.5, -0.5, np.pi, -np.pi, 7.0, -7.0)
    axial = [u for u in itertools.product(values, repeat=3) if np.count_nonzero(u) <= 1]
    v[100:100 + len(axial)] = axial
    one = np.array([_kernels.rotation_vector(x) for x in v])
    stack = np.array([_kernels.rotation_vectors(v[k:k + 1])[0] for k in range(v.shape[0])])
    assert np.array_equal(one.view(np.uint64), stack.view(np.uint64))


def test_batched_fk_and_jacobian_match_single_calls(human66, human48):
    """A batch is a stack of independent configurations: each row of a batched
    call equals the single-configuration call, bit for bit."""
    by_model = {}
    for model, q, _, _ in cases(human66, human48):
        by_model.setdefault(model, []).append(q)
    for model, qs in by_model.items():
        fk = model.fk_batch(np.array([q.base_pos for q in qs]),
                            np.array([q.base_rot.m for q in qs]), np.array([q.s for q in qs]))
        jac = model.stacked_jacobians(fk)
        poses = model.stacked_poses(fk)
        for i, q in enumerate(qs):
            pos, rot = model.fk_arrays(q)
            assert np.array_equal(fk[0][i], pos) and np.array_equal(fk[1][i], rot), model.n
            assert np.array_equal(jac[i], model.stacked_jacobian(q)), model.n
            stacked = target_poses(model, q)
            assert np.array_equal(poses.positions[i], stacked.positions), model.n
            assert np.array_equal(poses.rotations[i], stacked.rotations), model.n


def test_orientation_residual_matches_pose_residual_rows(human66, human48):
    for model, q, _, rng in cases(human66, human48):
        fk = model.fk_arrays(q)
        rotations = target_poses(model, q).rotations
        target_rot = np.array([ref_rotation(a / np.linalg.norm(a), rng.uniform(-3.0, 3.0))
                               for a in rng.normal(size=(model.n_o, 3))])
        stacked = model.pose_residual_arrays(fk, rng.normal(size=(model.n_p, 3)), target_rot)
        rows = stacked[3 * model.n_p:].reshape(-1, 3)
        for k in range(model.n_o):
            # the residual in the estimated frame, turned into the world frame
            world = rotations[k] @ ik.orientation_residual(rotations[k], target_rot[k])
            assert np.array_equal(world, rows[k]), (model.n, k)


@pytest.mark.parametrize("seed", range(3))
def test_baumgarte_step_matches_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        r = rng.normal(scale=0.3, size=(3, 3)) + rng.uniform(0.5, 2.0) * np.eye(3)
        omega = rng.normal(size=3)
        assert np.array_equal(_kernels.baumgarte_step_kernel(r, omega, 10.0, 0.01),
                              ref_baumgarte_step(r, omega, 10.0, 0.01))
