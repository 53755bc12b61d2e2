"""Hot numeric kernels: batched Rodrigues rotations and rotation-vector
exponentials, forward kinematics by tree depth, stacked frame Jacobians from
a joint-support mask, batched rotation residuals and orthonormality errors,
and drift-corrected rotation integration.

Every kernel is vectorised numpy over whole stacks of links, joints or
target frames; the only Python-level loop left in a tracking step is the
forward-kinematics walk over tree depths. Forward kinematics and the stacked
Jacobian also take a leading batch axis of independent configurations: a
tracking step calls them with a batch of one, stream generation and scoring
with a chunk of samples. The per-model index arrays the kernels take are
built once by ``KinematicModel``.
"""
from typing import NamedTuple

import numpy as np

# S(v) = v[:, _SKEW_IDX] * _SKEW_SIGN is the cross-product matrix of each row v
_SKEW_IDX = np.array([[0, 2, 1], [2, 0, 0], [1, 0, 0]])
_SKEW_SIGN = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])
_EYE3 = np.eye(3)
_HOMOGENEOUS_ROW = np.array([0.0, 0.0, 0.0, 1.0])
# entry (i, j) of t a a^T is formed as (t a_lo) a_hi, so the product is exactly symmetric
_LO = np.minimum.outer(np.arange(3), np.arange(3))
_HI = np.maximum.outer(np.arange(3), np.arange(3))
_RES_I = np.array([2, 0, 1, 1, 2, 0])
_RES_J = np.array([1, 2, 0, 2, 0, 1])


def skew_stack(v):
    """Cross-product matrices S(v) of the rows of a (k, 3) array, (k, 3, 3)."""
    return v.take(_SKEW_IDX, axis=1) * _SKEW_SIGN


def rotations_about_axes(axes, angles):
    """Rodrigues rotation matrices (B, k, 3, 3), one per unit axis of ``axes``
    (k, 3) and angle of ``angles`` (B, k): R = cos I + sin S(a) + (1 - cos) a a^T."""
    c = np.cos(angles)
    s = np.sin(angles)
    t = 1.0 - c
    return ((t[:, :, None] * axes).take(_LO, axis=2) * axes.take(_HI, axis=1)
            + (s[:, :, None] * axes).take(_SKEW_IDX, axis=2) * _SKEW_SIGN
            + c[:, :, None, None] * _EYE3)


def rotation_vectors(v):
    """Rotation matrices (k, 3, 3) of the rotation vectors ``v`` (k, 3): a
    turn by |v| about v / |v|, the identity for a zero vector."""
    # norms as dot products, the way np.linalg.norm forms a vector's norm; a
    # sum of squares can differ in the last bit
    angles = np.sqrt((v[:, None] @ v[:, :, None])[:, 0, 0])
    return rotations_about_axes(v / np.maximum(angles, 1e-30)[:, None], angles[None])[0]


def rotation_about_axis(axis, angle):
    """Rodrigues rotation matrix about a unit axis."""
    axes = np.asarray(axis, dtype=float).reshape(1, 3)
    return rotations_about_axes(axes, np.full((1, 1), angle, dtype=float))[0, 0]


class DepthLayout(NamedTuple):
    """A tree's links sorted by depth, base first, with what forward
    kinematics needs of each link below the base (row k is sorted link k + 1).
    """

    levels: tuple          # (start, stop, parent rows) of each depth >= 1, sorted order
    joints: np.ndarray     # joint each link carries
    axes: np.ndarray       # (k, 3) joint axes
    # the next two have a unit batch axis, so they broadcast over a batch
    origin_r: np.ndarray   # (k, 1, 3, 3) fixed rotations of the joint origins
    origins: np.ndarray    # (k, 1, 4, 4) joint origins in their parents, rotation part zero
    rank: np.ndarray       # sorted position of every link, by link index


def _rows(idx):
    """``idx`` as a slice when it is one increasing run or one repeated row
    (broadcast), so the level reads its parents as a view."""
    first = int(idx[0])
    if np.array_equal(idx, np.arange(first, first + idx.shape[0])):
        return slice(first, first + idx.shape[0])
    if np.all(idx == first):
        return slice(first, first + 1)
    return idx


def depth_layout(parent, joint_of, axis, origin_r, origin_p, base_idx) -> DepthLayout:
    """Sort the links breadth first from the base, each depth in its parents'
    order (per-link arrays indexed by link, ``parent`` -1 at the base); any
    declaration order is accepted."""
    rank = np.full(parent.shape[0], -1)
    rank[base_idx] = 0
    order = [base_idx]
    levels = []
    frontier = np.array([base_idx])
    while True:
        kids = np.flatnonzero(np.isin(parent, frontier))
        if not kids.size:
            break
        kids = kids[np.argsort(rank[parent[kids]], kind="stable")]
        start = len(order)
        rank[kids] = np.arange(start, start + kids.shape[0])
        order.extend(kids.tolist())
        levels.append((start, len(order), _rows(rank[parent[kids]])))
        frontier = kids
    below = np.array(order[1:], dtype=np.int64)
    origins = np.zeros((below.shape[0], 4, 4))
    origins[:, :3, 3] = origin_p[below]
    origins[:, 3, 3] = 1.0
    return DepthLayout(tuple(levels), joint_of[below], axis[below], origin_r[below, None],
                       origins[:, None], rank)


def fk_levels(layout, s, base_p, base_r):
    """World pose of every link for a batch of B configurations, given as
    joint angles ``s`` (B, n), base positions ``base_p`` (B, 3) and base
    rotations ``base_r`` (B, 3, 3). Returns positions (B, L, 3) and rotations
    (B, L, 3, 3), indexed by link; a single configuration is a batch of one.

    A link's frame sits on its joint: the origin offset is fixed in the
    parent, the joint rotation about its axis acts on the child frame. Each
    depth composes its links' homogeneous transforms onto their parents' in
    one stacked product.
    """
    batch, k = s.shape[0], layout.axes.shape[0]
    # link-major (link, batch, 4, 4), so a depth's parents and children are
    # plain slices of the first axis, whatever the batch size
    world = np.empty((layout.rank.shape[0], batch, 4, 4))
    world[0, :, :3, :3] = base_r
    world[0, :, :3, 3] = base_p
    world[0, :, 3] = _HOMOGENEOUS_ROW
    local = np.empty((k, batch, 4, 4))
    local[:] = layout.origins
    joint_r = rotations_about_axes(layout.axes, s[:, layout.joints])
    np.matmul(layout.origin_r, joint_r.swapaxes(0, 1), out=local[:, :, :3, :3])
    for a, b, par in layout.levels:
        np.matmul(world[par], local[a - 1:b - 1], out=world[a:b])
    pos = world[:, :, :3, 3].take(layout.rank, axis=0).swapaxes(0, 1)
    rot = world[:, :, :3, :3].take(layout.rank, axis=0).swapaxes(0, 1)
    return np.ascontiguousarray(pos), np.ascontiguousarray(rot)


def stacked_jacobian_kernel(pos, rot, base_pos, pos_idx, ori_idx, pos_support,
                            ori_support, joint_link, joint_axis):
    """Stacked frame Jacobians of a batch of B link poses (``pos`` (B, L, 3),
    ``rot`` (B, L, 3, 3), ``base_pos`` (B, 3)), (B, 3 (n_p + n_o), n + 6):
    linear rows for the ``pos_idx`` frames, then angular rows for the
    ``ori_idx`` frames. Columns are ordered (base_lin, base_ang, s_dot).
    ``*_support[i, j]`` says joint j moves frame i, and ``joint_link[j]`` is
    the link joint j carries.
    """
    batch = pos.shape[0]
    n = joint_axis.shape[0]
    n_p = pos_idx.shape[0]
    jac = np.zeros((batch, n_p + ori_idx.shape[0], 3, n + 6))
    jac[:, :, :, 3:6] = _EYE3
    # world joint axes as columns; an axis is invariant under its own joint's rotation
    axes = np.swapaxes((rot[:, joint_link] @ joint_axis[:, :, None])[:, :, :, 0], 1, 2)
    if n_p:
        frame_p = pos[:, pos_idx]
        lever = frame_p[:, :, :, None] - np.swapaxes(pos[:, joint_link], 1, 2)[:, None]
        # axes x lever, component i = a[i+1] l[i+2] - a[i+2] l[i+1]
        lin = (axes[:, None, _NEXT] * lever[:, :, _PREV]
               - axes[:, None, _PREV] * lever[:, :, _NEXT])
        np.copyto(jac[:, :n_p, :, 6:], lin, where=pos_support[:, None, :])
        jac[:, :n_p, :, 0:3] = _EYE3
        lever_base = (base_pos[:, None] - frame_p).reshape(-1, 3)
        jac[:, :n_p, :, 3:6] = skew_stack(lever_base).reshape(batch, n_p, 3, 3)
    np.copyto(jac[:, n_p:, :, 6:], axes[:, None], where=ori_support[:, None, :])
    return jac.reshape(batch, -1, n + 6)


def rotation_residuals(est, target):
    """Skew-symmetric part of each est[k]^T target[k] read off as a vector,
    (k, 3): sin(theta) n for a relative rotation of theta about unit n."""
    # entries (i, j) of m = est^T target summed over the shared row index in
    # order: the residual's (2, 1), (0, 2), (1, 0) entries, then their mirrors
    p = est[:, :, _RES_I] * target[:, :, _RES_J]
    m = p[:, 0] + p[:, 1] + p[:, 2]
    return 0.5 * (m[:, :3] - m[:, 3:])


def orthonormality_errors(r):
    """Frobenius norm of r[k]^T r[k] - I for each matrix of a (k, 3, 3) stack."""
    return np.linalg.norm(np.swapaxes(r, 1, 2) @ r - _EYE3, axis=(1, 2))


def pose_residual_kernel(pos_idx, ori_idx, pos, rot, target_pos, target_rot):
    """Stacked pose residual: Euclidean position errors, then the rotation
    residuals of the orientation frames."""
    ori = rotation_residuals(rot[ori_idx], target_rot)
    return np.concatenate([(target_pos - pos[pos_idx]).ravel(), ori.ravel()])


def baumgarte_step_kernel(r_prev, omega, rho, dt):
    """One explicit Euler step of R with the orthonormality-restoring term:
    Rdot = R (S(omega) + (rho/2)((R^T R)^-1 - I)).
    """
    g = r_prev[0, :, None] * r_prev[0] + r_prev[1, :, None] * r_prev[1] + r_prev[2, :, None] * r_prev[2]
    # adjugate of g: entry (i, j) = g[j+1, i+1] g[j+2, i+2] - g[j+1, i+2] g[j+2, i+1]
    adj = g[_NEXT[None, :], _NEXT[:, None]] * g[_PREV[None, :], _PREV[:, None]] \
        - g[_NEXT[None, :], _PREV[:, None]] * g[_PREV[None, :], _NEXT[:, None]]
    det = g[0, 0] * adj[0, 0] + g[0, 1] * adj[1, 0] + g[0, 2] * adj[2, 0]
    half_rho = 0.5 * rho
    m = skew_stack(omega[None])[0] + half_rho * (adj / det - _EYE3)
    return r_prev + dt * np.dot(r_prev, m)
