"""Reference kinematics for the benchmark's correctness checks.

Written apart from ``iktrack``: it reads the model JSON document itself and
builds every joint and origin rotation with ``scipy.spatial.transform``. All
functions are batched over time: configurations are given as arrays with a
leading sample axis.

Conventions (those the model file documents): a joint's origin offset and
roll-pitch-yaw rotation are fixed in the parent frame, the joint rotation
about ``axis`` acts on the child frame, and the base angular velocity is
expressed in the inertial frame.
"""
from __future__ import annotations

import json

import numpy as np
from scipy.spatial.transform import Rotation


class RefChain:
    """Kinematic tree read from a model JSON document."""

    def __init__(self, text: str):
        doc = json.loads(text)
        names = [link["name"] for link in doc["links"]]
        self.link_index = {name: i for i, name in enumerate(names)}
        self.n_links = len(names)
        self.base = self.link_index[doc["base_link"]]
        joints = doc["joints"]
        self.n = len(joints)
        by_child = {}
        for j, entry in enumerate(joints):
            origin = entry.get("origin", {})
            by_child[self.link_index[entry["child"]]] = (
                j,
                self.link_index[entry["parent"]],
                np.asarray(entry["axis"], dtype=float),
                np.asarray(origin.get("xyz", [0.0, 0.0, 0.0]), dtype=float),
                # extrinsic x-y-z angles: Rz(yaw) Ry(pitch) Rx(roll)
                Rotation.from_euler("xyz", origin.get("rpy", [0.0, 0.0, 0.0])).as_matrix(),
            )
        # parents before children
        self._order = []
        placed = {self.base}
        while len(placed) < self.n_links:
            for child, (j, parent, axis, xyz, orot) in by_child.items():
                if child not in placed and parent in placed:
                    self._order.append((child, j, parent, axis, xyz, orot))
                    placed.add(child)
        self.pos_frames = np.array(
            [self.link_index[f] for f in doc.get("position_targets", [])], dtype=int)
        self.ori_frames = np.array(
            [self.link_index[f] for f in doc.get("orientation_targets", [])], dtype=int)
        rows, bounds = [], []
        for j, entry in enumerate(joints):
            if entry.get("pos_limits") is not None:
                lo, hi = entry["pos_limits"]
                row = np.zeros(self.n)
                row[j] = 1.0
                rows += [row, -row]
                bounds += [float(hi), -float(lo)]
        block = doc.get("constraints")
        if block is not None:
            for row, b in zip(block["A"], block["b_q"]):
                if b is not None and b != "unbounded":
                    rows.append(np.asarray(row, dtype=float))
                    bounds.append(float(b))
        self.limit_rows = np.array(rows).reshape(-1, self.n)
        self.limit_bounds = np.array(bounds)

    def fk(self, base_pos, base_rot, s):
        """World position (T, L, 3) and rotation (T, L, 3, 3) of every link."""
        base_pos = np.asarray(base_pos, dtype=float).reshape(-1, 3)
        base_rot = np.asarray(base_rot, dtype=float).reshape(-1, 3, 3)
        s = np.asarray(s, dtype=float).reshape(-1, self.n)
        count = s.shape[0]
        pos = np.empty((count, self.n_links, 3))
        rot = np.empty((count, self.n_links, 3, 3))
        pos[:, self.base] = base_pos
        rot[:, self.base] = base_rot
        for child, j, parent, axis, xyz, orot in self._order:
            joint_rot = Rotation.from_rotvec(np.outer(s[:, j], axis)).as_matrix()
            pos[:, child] = pos[:, parent] + rot[:, parent] @ xyz
            rot[:, child] = rot[:, parent] @ orot @ joint_rot
        return pos, rot

    def targets(self, base_pos, base_rot, s):
        """Poses of the declared target frames: positions (T, n_p, 3) and
        rotations (T, n_o, 3, 3)."""
        pos, rot = self.fk(base_pos, base_rot, s)
        return pos[:, self.pos_frames], rot[:, self.ori_frames]

    def frame_angvel(self, base_pos, base_rot, s, nu, h=1e-6):
        """World angular velocity (T, n_o, 3) of the orientation targets along
        the stacked velocity ``nu`` = (base_lin, base_ang, s_dot), by a central
        difference of ``fk`` over +-h."""
        nu = np.asarray(nu, dtype=float)
        base_pos = np.asarray(base_pos, dtype=float)
        base_rot = np.asarray(base_rot, dtype=float)
        s = np.asarray(s, dtype=float)
        ends = []
        for sign in (1.0, -1.0):
            turn = Rotation.from_rotvec(sign * h * nu[:, 3:6]).as_matrix()
            _, rot = self.targets(base_pos + sign * h * nu[:, 0:3], turn @ base_rot,
                                  s + sign * h * nu[:, 6:])
            ends.append(rot)
        rel = ends[0] @ np.swapaxes(ends[1], -1, -2)
        flat = Rotation.from_matrix(rel.reshape(-1, 3, 3)).as_rotvec()
        return flat.reshape(rel.shape[:-1]) / (2.0 * h)


def polar_factor(m):
    """Nearest rotation (T, 3, 3) to each matrix in Frobenius norm."""
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=float))
    fix = np.ones(u.shape[:-1])
    fix[..., -1] = np.sign(np.linalg.det(u @ vt))
    return (u * fix[..., None, :]) @ vt


def geodesic_deg(a, b):
    """Angle in degrees between rotation stacks ``a`` and ``b`` (..., 3, 3)."""
    rel = np.swapaxes(a, -1, -2) @ b
    angles = np.linalg.norm(Rotation.from_matrix(rel.reshape(-1, 3, 3)).as_rotvec(), axis=1)
    return np.degrees(angles).reshape(rel.shape[:-2])


def orthonormality_error(m):
    """Frobenius norm of m^T m - I for each matrix in a stack (T, 3, 3)."""
    m = np.asarray(m, dtype=float)
    gram = np.swapaxes(m, -1, -2) @ m
    return np.linalg.norm((gram - np.eye(3)).reshape(len(m), -1), axis=1)


def pose_residual(pos, rot, target_pos, target_rot):
    """Stacked residual per sample (T, 3 (n_p + n_o)): position differences,
    then the skew part of R_est^T R_target read off as a vector."""
    dp = (target_pos - pos).reshape(len(pos), -1)
    m = np.swapaxes(rot, -1, -2) @ target_rot
    vee = 0.5 * np.stack([m[..., 2, 1] - m[..., 1, 2],
                          m[..., 0, 2] - m[..., 2, 0],
                          m[..., 1, 0] - m[..., 0, 1]], axis=-1)
    return np.concatenate([dp, vee.reshape(len(rot), -1)], axis=1)
