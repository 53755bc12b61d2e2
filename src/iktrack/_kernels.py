"""Hot numeric kernels: batched Rodrigues rotations and rotation-vector
exponentials, forward kinematics by tree depth, stacked frame Jacobians from
a joint-support mask, batched rotation residuals, orthonormality errors and
determinants, and drift-corrected rotation integration.

The kernels are vectorised numpy over stacks of links, joints or target
frames, bar the Baumgarte step and the exp map of one vector, on floats; a
step's one Python loop is the FK walk over depths. Forward kinematics and the
stacked Jacobian also take a leading batch axis of independent configurations:
a tracking step calls them with a batch of one, stream generation and scoring
with a chunk of samples. The per-model index arrays and joint-axis factors the
kernels take are built once by ``KinematicModel``, and forward kinematics
composes into buffers each model keeps per thread and batch size.
"""
import threading
from typing import NamedTuple

import numpy as np

from .errors import SingularMatrix

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


class AxisFactors(NamedTuple):
    """The angle-free factors of the Rodrigues formula for k unit axes a,
    each (k, 3, 3): entry (i, j) of a a^T is a_lo[i, j] a_hi[i, j]."""

    lo: np.ndarray    # a[min(i, j)]
    hi: np.ndarray    # a[max(i, j)]
    skew: np.ndarray  # S(a)


def axis_factors(axes) -> AxisFactors:
    """``AxisFactors`` of the unit axes ``axes`` (k, 3)."""
    return AxisFactors(axes.take(_LO, axis=1), axes.take(_HI, axis=1), skew_stack(axes))


def rotations_about_axes(factors, angles):
    """Rodrigues rotation matrices (B, k, 3, 3), one per axis of ``factors``
    (``AxisFactors`` of k axes) and angle of ``angles`` (B, k):
    R = cos I + sin S(a) + (1 - cos) a a^T."""
    c = np.cos(angles)[:, :, None, None]
    s = np.sin(angles)[:, :, None, None]
    return (1.0 - c) * factors.lo * factors.hi + s * factors.skew + c * _EYE3


def rotation_vectors(v):
    """Rotation matrices (k, 3, 3) of the rotation vectors ``v`` (k, 3): a
    turn by |v| about v / |v|, the identity for a zero vector."""
    # norms as dot products, the way np.linalg.norm forms a vector's norm; a
    # sum of squares can differ in the last bit
    angles = np.sqrt((v[:, None] @ v[:, :, None])[:, 0, 0])
    axes = v / np.maximum(angles, 1e-30)[:, None]
    return rotations_about_axes(axis_factors(axes), angles[None])[0]


def rotation_vector(v):
    """``rotation_vectors`` of one vector ``v`` (3,) on floats, bit for bit: each
    entry takes the stack kernel's operations in its order, the products with
    0.0 that set the signs of zeros included (s (a * -1.0) is added as -s a)."""
    # v . v by the dot routine of the stack's matmul; cos and sin on one element
    angle = np.sqrt(np.dot(v, v)[None])
    (c,), (s,), (theta,) = np.cos(angle).tolist(), np.sin(angle).tolist(), angle.tolist()
    a0, a1, a2 = (x / max(theta, 1e-30) for x in v.tolist())
    t, z, sz = 1.0 - c, c * 0.0, s * (a0 * 0.0)
    return np.array([[t * a0 * a0 + sz + c, t * a0 * a1 - s * a2 + z, t * a0 * a2 + s * a1 + z],
                     [t * a0 * a1 + s * a2 + z, t * a1 * a1 + sz + c, t * a1 * a2 - s * a0 + z],
                     [t * a0 * a2 - s * a1 + z, t * a1 * a2 + s * a0 + z, t * a2 * a2 + sz + c]])


class DepthLayout(NamedTuple):
    """A tree's links sorted by depth, base first, with what forward
    kinematics needs of each link below the base (row k is sorted link k + 1).
    """

    levels: tuple          # (start, stop, parent rows) of each depth >= 1, sorted order
    joints: np.ndarray     # joint each link carries
    factors: AxisFactors   # Rodrigues factors of the joint axes
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
    return DepthLayout(tuple(levels), joint_of[below], axis_factors(axis[below]),
                       origin_r[below, None], origins[:, None], rank)


# buffer sets kept per model and thread: a tracking step's batch of one, a
# chunk and the last, shorter chunk of a stream
FK_BUFFER_SETS = 3


class FkBuffers(threading.local):
    """One model's forward-kinematics buffer sets by batch size, each thread
    seeing only its own, so concurrent calls on one model share no buffer.
    At most ``FK_BUFFER_SETS`` per thread; the oldest goes first."""

    def __init__(self):
        self.sets = {}


class _FkBufferSet(NamedTuple):
    """Link-major world and local transforms (link, batch, 4, 4) for one
    batch size, with the views ``fk_levels`` writes and reads."""

    world: np.ndarray
    base_r: np.ndarray   # world[0, :, :3, :3]
    base_p: np.ndarray   # world[0, :, :3, 3]
    local_r: np.ndarray  # rotation part of every local transform
    # (parents, parent rows, local transforms, outputs) of each depth; parents
    # is a view of ``world``, or None where the rows are an index array and
    # must be gathered anew on each call
    levels: tuple
    pos: np.ndarray      # world positions, (batch, link, 3) view
    rot: np.ndarray      # world rotations, (batch, link, 3, 3) view


def _fk_buffer_set(layout, batch):
    # link-major, so a depth's parents and children are plain slices of the
    # first axis, whatever the batch size
    world = np.empty((layout.rank.shape[0], batch, 4, 4))
    world[0, :, 3] = _HOMOGENEOUS_ROW
    local = np.empty((layout.joints.shape[0], batch, 4, 4))
    # translations and homogeneous rows are fixed; each call writes the rotations
    local[:] = layout.origins
    levels = tuple((world[par] if isinstance(par, slice) else None, par,
                    local[a - 1:b - 1], world[a:b]) for a, b, par in layout.levels)
    return _FkBufferSet(world, world[0, :, :3, :3], world[0, :, :3, 3], local[:, :, :3, :3],
                        levels, world[:, :, :3, 3].swapaxes(0, 1),
                        world[:, :, :3, :3].swapaxes(0, 1))


def fk_levels(layout, buffers, s, base_p, base_r):
    """World pose of every link for a batch of B configurations, given as
    joint angles ``s`` (B, n), base positions ``base_p`` (B, 3) and base
    rotations ``base_r`` (B, 3, 3). Returns positions (B, L, 3) and rotations
    (B, L, 3, 3), indexed by link, as fresh arrays; a single configuration is
    a batch of one. ``buffers`` is the model's ``FkBuffers``.

    A link's frame sits on its joint: the origin offset is fixed in the
    parent, the joint rotation about its axis acts on the child frame. Each
    depth composes its links' homogeneous transforms onto their parents' in
    one stacked product.
    """
    batch = s.shape[0]
    sets = buffers.sets
    buf = sets.get(batch)
    if buf is None:
        if len(sets) >= FK_BUFFER_SETS:
            del sets[next(iter(sets))]
        buf = sets[batch] = _fk_buffer_set(layout, batch)
    buf.base_r[...] = base_r
    buf.base_p[...] = base_p
    joint_r = rotations_about_axes(layout.factors, s.take(layout.joints, axis=1))
    np.matmul(layout.origin_r, joint_r.swapaxes(0, 1), out=buf.local_r)
    world = buf.world
    for parents, rows, local, out in buf.levels:
        # out given positionally: parsing the keyword is a measurable share
        # of a product this small
        np.matmul(world[rows] if parents is None else parents, local, out)
    return buf.pos.take(layout.rank, axis=1), buf.rot.take(layout.rank, axis=1)


def stacked_jacobian_kernel(pos, rot, base_pos, pos_idx, ori_idx, pos_cols, pos_support,
                            ori_support, joint_link, joint_axis):
    """Stacked frame Jacobians of a batch of B link poses (``pos`` (B, L, 3),
    ``rot`` (B, L, 3, 3), ``base_pos`` (B, 3)), (B, 3 (n_p + n_o), n + 6):
    linear rows for the ``pos_idx`` frames, then angular rows for the
    ``ori_idx`` frames. Columns are ordered (base_lin, base_ang, s_dot).
    ``pos_cols`` are the joints that move some ``pos_idx`` frame, and
    ``pos_support[i, c]`` says joint ``pos_cols[c]`` moves position frame i;
    ``ori_support[i, j]`` says joint j moves orientation frame i.
    ``joint_link[j]`` is the link joint j carries.
    """
    batch = pos.shape[0]
    n = joint_axis.shape[0]
    n_p = pos_idx.shape[0]
    jac = np.zeros((batch, n_p + ori_idx.shape[0], 3, n + 6))
    jac[:, :, :, 3:6] = _EYE3
    # world joint axes as columns; an axis is invariant under its own joint's rotation
    axes = (rot.take(joint_link, axis=1) @ joint_axis[:, :, None])[:, :, :, 0].swapaxes(1, 2)
    if n_p:
        frame_p = pos.take(pos_idx, axis=1)
        if pos_cols.shape[0]:
            lever = (frame_p[:, :, :, None]
                     - np.swapaxes(pos.take(joint_link[pos_cols], axis=1), 1, 2)[:, None])
            moving = axes[:, None, :, pos_cols]
            # axes x lever, component i = a[i+1] l[i+2] - a[i+2] l[i+1]
            lin = (moving[:, :, _NEXT] * lever[:, :, _PREV]
                   - moving[:, :, _PREV] * lever[:, :, _NEXT])
            jac[:, :n_p, :, 6 + pos_cols] = np.where(pos_support[:, None, :], lin, 0.0)
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
    p = est.take(_RES_I, axis=2) * target.take(_RES_J, axis=2)
    m = p[:, 0] + p[:, 1] + p[:, 2]
    return 0.5 * (m[:, :3] - m[:, 3:])


def orthonormality_errors(r):
    """Frobenius norm of r[k]^T r[k] - I for each matrix of a (k, 3, 3) stack,
    from the dot products of its columns a, b, c: elementwise over the k
    matrices, which on a long stack is far cheaper than a stacked 3x3
    product, and on a single matrix dearer."""
    (a0, b0, c0), (a1, b1, c1), (a2, b2, c2) = r.transpose(1, 2, 0)
    aa = a0 * a0 + a1 * a1 + a2 * a2 - 1.0
    bb = b0 * b0 + b1 * b1 + b2 * b2 - 1.0
    cc = c0 * c0 + c1 * c1 + c2 * c2 - 1.0
    ab = a0 * b0 + a1 * b1 + a2 * b2
    ac = a0 * c0 + a1 * c1 + a2 * c2
    bc = b0 * c0 + b1 * c1 + b2 * c2
    return np.sqrt(aa * aa + bb * bb + cc * cc + 2.0 * (ab * ab + ac * ac + bc * bc))


def determinants(r):
    """Determinant of each matrix of a (k, 3, 3) stack, as the triple product
    of its columns a . (b x c): elementwise over the k matrices, which is far
    cheaper than an LU factorisation of each matrix on a long stack."""
    (a0, b0, c0), (a1, b1, c1), (a2, b2, c2) = r.transpose(1, 2, 0)
    return a0 * (b1 * c2 - b2 * c1) + a1 * (b2 * c0 - b0 * c2) + a2 * (b0 * c1 - b1 * c0)


def pose_residual_kernel(pos_idx, ori_idx, pos, rot, target_pos, target_rot):
    """Stacked pose residual in the world frame: position errors, then the
    rotation residual of each orientation frame (the skew part of
    R_est^T R_target as a vector) turned by its estimated rotation R_est."""
    est = rot.take(ori_idx, axis=0)
    ori = est @ rotation_residuals(est, target_rot)[:, :, None]
    return np.concatenate([(target_pos - pos.take(pos_idx, axis=0)).ravel(), ori.ravel()])


def baumgarte_step_kernel(r_prev, omega, rho, dt):
    """One explicit Euler step of R with the orthonormality-restoring term:
    Rdot = R (S(omega) + (rho/2)((R^T R)^-1 - I)).

    The Gram matrix g = R^T R, its adjugate and its determinant are formed
    on scalars; g and its adjugate are symmetric, so each off-diagonal entry
    is formed once. Raises ``SingularMatrix`` when det g <= 1e-24 (NaN passes).
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r_prev.tolist()
    w0, w1, w2 = omega.tolist()
    g00 = r00 * r00 + r10 * r10 + r20 * r20
    g01 = r00 * r01 + r10 * r11 + r20 * r21
    g02 = r00 * r02 + r10 * r12 + r20 * r22
    g11 = r01 * r01 + r11 * r11 + r21 * r21
    g12 = r01 * r02 + r11 * r12 + r21 * r22
    g22 = r02 * r02 + r12 * r12 + r22 * r22
    # adjugate entry (i, j) = g[j+1, i+1] g[j+2, i+2] - g[j+1, i+2] g[j+2, i+1]
    a00 = g11 * g22 - g12 * g12
    a01 = g12 * g02 - g22 * g01
    a02 = g01 * g12 - g02 * g11
    a11 = g22 * g00 - g02 * g02
    a12 = g02 * g01 - g00 * g12
    a22 = g00 * g11 - g01 * g01
    det = g00 * a00 - g01 * (g01 * g22 - g12 * g02) + g02 * a02
    if det <= 1e-24:
        raise SingularMatrix("r_prev^T r_prev is not invertible")
    h = 0.5 * rho
    m = np.array([[h * (a00 / det - 1.0), h * (a01 / det) - w2, h * (a02 / det) + w1],
                  [h * (a01 / det) + w2, h * (a11 / det - 1.0), h * (a12 / det) - w0],
                  [h * (a02 / det) - w1, h * (a12 / det) + w0, h * (a22 / det - 1.0)]])
    return r_prev + dt * np.dot(r_prev, m)
