"""Immutable floating-base kinematic trees: forward kinematics, frame
Jacobians, JSON model-file (de)serialization, and procedural generation of
human-like chains.

Joint ordering is the declaration order of the ``joints`` list and fixes the
indexing of the joint vector ``s`` everywhere. Velocities are stacked as
(base_lin, base_ang, s_dot) with the base angular velocity expressed in the
inertial frame.

Frames: every row of a pose residual and of a stacked Jacobian is in the
world frame.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._kernels import (axis_factors, depth_layout, fk_levels, pose_residual_kernel,
                       rotations_about_axes, stacked_jacobian_kernel)
from .errors import ParseError, UnknownFrame, ValidationError
from .so3 import Rotation

AXIS_TOL = 1e-9
# the yaw, pitch and roll axes z, y, x, in the order their rotations compose
_YPR_FACTORS = axis_factors(np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))


def rpy_matrix(rpy) -> np.ndarray:
    """Fixed-axis roll-pitch-yaw: Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    r, p, y = np.asarray(rpy, dtype=float)
    rz, ry, rx = rotations_about_axes(_YPR_FACTORS, np.array([[y, p, r]]))[0]
    return rz @ ry @ rx


def _moving_columns(support):
    """The joints that move some frame of a support mask (frames, joints),
    and the mask narrowed to them."""
    cols = np.flatnonzero(support.any(axis=0))
    return cols, support[:, cols]


@dataclass(frozen=True)
class Link:
    name: str
    is_dummy: bool = False


@dataclass(frozen=True, eq=False)
class Joint:
    """Single-DoF revolute joint attaching ``child`` below ``parent``."""

    name: str
    parent: str
    child: str
    axis: np.ndarray
    origin_xyz: np.ndarray = field(default_factory=lambda: np.zeros(3))
    origin_rpy: np.ndarray = field(default_factory=lambda: np.zeros(3))
    pos_limits: tuple[float, float] | None = None
    vel_limit: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "axis", np.asarray(self.axis, dtype=float))
        object.__setattr__(self, "origin_xyz", np.asarray(self.origin_xyz, dtype=float))
        object.__setattr__(self, "origin_rpy", np.asarray(self.origin_rpy, dtype=float))


class StackedPose(NamedTuple):
    positions: np.ndarray  # (n_p, 3)
    rotations: np.ndarray  # (n_o, 3, 3)


@dataclass(frozen=True, eq=False)
class ExtraConstraints:
    """User-supplied joint-coupling rows A s <= b_q with velocity bounds b_nu
    (np.inf marks an unbounded entry). Construction makes each field a float
    array; a field that cannot be one is a ``ValidationError`` naming it."""

    a: np.ndarray
    b_q: np.ndarray
    b_nu: np.ndarray

    def __post_init__(self):
        for name in ("a", "b_q", "b_nu"):
            try:
                value = np.asarray(getattr(self, name), dtype=float)
            except (TypeError, ValueError):
                raise ValidationError("non-numeric constraint", name) from None
            object.__setattr__(self, name, value)


class KinematicModel:
    """Validated kinematic tree with precomputed arrays for the kernels.

    Immutable after construction; forward kinematics and Jacobian calls are
    pure and reentrant, so one instance can be shared across threads.
    """

    def __init__(self, links, joints, base_link, position_targets=(),
                 orientation_targets=(), extra_constraints=None):
        self.links = tuple(links)
        self.joints = tuple(joints)
        self.base_link = base_link
        self.position_target_frames = tuple(position_targets)
        self.orientation_target_frames = tuple(orientation_targets)
        self.extra_constraints = extra_constraints
        self._validate()
        self._precompute()

    # -- validation -------------------------------------------------------

    def _validate(self):
        names = [l.name for l in self.links]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})[0]
            raise ValidationError("duplicate link", dup)
        jnames = [j.name for j in self.joints]
        if len(set(jnames)) != len(jnames):
            dup = sorted({n for n in jnames if jnames.count(n) > 1})[0]
            raise ValidationError("duplicate joint", dup)
        known = set(names)
        if self.base_link not in known:
            raise ValidationError("unknown base link", self.base_link)
        child_of = {}
        for j in self.joints:
            if j.parent not in known:
                raise ValidationError("unknown parent link", f"{j.name}: {j.parent}")
            if j.child not in known:
                raise ValidationError("unknown child link", f"{j.name}: {j.child}")
            if j.child in child_of:
                raise ValidationError("multiple parents", j.child)
            if j.child == self.base_link:
                raise ValidationError("base link has a parent", j.name)
            child_of[j.child] = j
            if not (np.all(np.isfinite(j.origin_xyz)) and np.all(np.isfinite(j.origin_rpy))):
                raise ValidationError("non-finite origin", j.name)
            if not abs(np.linalg.norm(j.axis) - 1.0) <= AXIS_TOL:
                raise ValidationError("non-unit axis", j.name)
            if j.pos_limits is not None:
                lo, hi = j.pos_limits
                if not lo <= hi:
                    raise ValidationError("inverted limits", j.name)
            if j.vel_limit is not None and not j.vel_limit > 0.0:
                raise ValidationError("non-positive velocity limit", j.name)
        # every non-base link needs a parent; walking to the base must not cycle
        for name in known:
            if name == self.base_link:
                continue
            if name not in child_of:
                raise ValidationError("disconnected link", name)
            seen = {name}
            cur = name
            while cur != self.base_link:
                cur = child_of[cur].parent
                if cur in seen:
                    raise ValidationError("cycle", name)
                seen.add(cur)
        for frame in (*self.position_target_frames, *self.orientation_target_frames):
            if frame not in known:
                raise ValidationError("unknown target frame", frame)
        if self.extra_constraints is not None:
            ec = self.extra_constraints
            n = len(self.joints)
            if ec.a.ndim != 2 or ec.a.shape[1] != n:
                raise ValidationError("constraint shape", f"A must have {n} columns")
            m = ec.a.shape[0]
            if ec.b_q.shape != (m,) or ec.b_nu.shape != (m,):
                raise ValidationError("constraint shape", "b_q/b_nu length mismatch")
            if not np.all(np.isfinite(ec.a)):
                raise ValidationError("non-finite constraint", "A")
            # an infinite bound means unbounded; NaN bounds nothing
            for name in ("b_q", "b_nu"):
                if np.isnan(getattr(ec, name)).any():
                    raise ValidationError("NaN constraint bound", name)

    # -- precomputed arrays -------------------------------------------------

    def _precompute(self):
        self._link_index = {l.name: i for i, l in enumerate(self.links)}
        n_links = len(self.links)
        self._parent = np.full(n_links, -1, dtype=np.int64)
        self._joint_of = np.full(n_links, -1, dtype=np.int64)
        self._origin_p = np.zeros((n_links, 3))
        self._origin_r = np.tile(np.eye(3), (n_links, 1, 1))
        self._axis = np.zeros((n_links, 3))
        # per-joint position limits, infinite where a joint has none
        self._pos_lo = np.full(self.n, -np.inf)
        self._pos_hi = np.full(self.n, np.inf)
        for jidx, j in enumerate(self.joints):
            c = self._link_index[j.child]
            self._parent[c] = self._link_index[j.parent]
            self._joint_of[c] = jidx
            self._origin_p[c] = j.origin_xyz
            self._origin_r[c] = rpy_matrix(j.origin_rpy)
            self._axis[c] = j.axis
            if j.pos_limits is not None:
                self._pos_lo[jidx], self._pos_hi[jidx] = j.pos_limits
        self._joint_link = np.array([self._link_index[j.child] for j in self.joints],
                                    dtype=np.int64)
        self._joint_axis = self._axis[self._joint_link]
        self._base_idx = self._link_index[self.base_link]
        self._layout = depth_layout(self._parent, self._joint_of, self._axis, self._origin_r,
                                    self._origin_p, self._base_idx)
        # support[l, j]: joint j lies on the path from the base to link l
        self._support = np.zeros((n_links, len(self.joints)), dtype=bool)
        for l in range(n_links):
            a = l
            while self._parent[a] >= 0:
                self._support[l, self._joint_of[a]] = True
                a = self._parent[a]
        self._pos_idx = np.array([self._link_index[f] for f in self.position_target_frames],
                                 dtype=np.int64)
        self._ori_idx = np.array([self._link_index[f] for f in self.orientation_target_frames],
                                 dtype=np.int64)
        # joints that move some position frame; on a chain whose only position
        # target is the base there are none, and the Jacobian forms no lever
        self._pos_cols, self._pos_support = _moving_columns(self._support[self._pos_idx])
        self._ori_support = self._support[self._ori_idx]
        self._assemble_constraints()

    def _assemble_constraints(self):
        """A s <= b_q and A s_dot <= b_nu: an upper then a lower row for each
        joint with a position or velocity limit, then the extra rows."""
        limited = [(jidx, j.pos_limits or (-np.inf, np.inf),
                    np.inf if j.vel_limit is None else j.vel_limit)
                   for jidx, j in enumerate(self.joints)
                   if j.pos_limits is not None or j.vel_limit is not None]
        up = np.eye(self.n)[[jidx for jidx, _, _ in limited]]
        rows = np.stack([up, -up], axis=1).reshape(2 * len(limited), self.n)
        b_q = [b for _, (lo, hi), _ in limited for b in (hi, -lo)]
        b_nu = [vel for _, _, vel in limited for _ in range(2)]
        ec = self.extra_constraints
        if ec is not None:
            rows = np.vstack([rows, ec.a])
            b_q, b_nu = [*b_q, *ec.b_q], [*b_nu, *ec.b_nu]
        self.constraint_matrix = rows
        self.config_bounds = np.array(b_q, dtype=float)
        self.vel_bounds = np.array(b_nu, dtype=float)
        self._limit_rows = None   # (stand-in, G, bounds) of the last ``limit_rows`` call

    def limit_rows(self, vel_bound_default: float) -> tuple[np.ndarray, np.ndarray]:
        """The constraint rows over the stacked velocity (base linear, base
        angular, joints), G = [0 | A], and their velocity bounds with
        ``vel_bound_default`` standing in for unbounded ones. Built once per
        stand-in value and returned read-only."""
        cached = self._limit_rows
        if cached is None or cached[0] != vel_bound_default:
            a = self.constraint_matrix
            G = np.zeros((a.shape[0], self.n + 6))
            G[:, 6:] = a
            b_nu = np.where(np.isinf(self.vel_bounds), vel_bound_default, self.vel_bounds)
            G.flags.writeable = b_nu.flags.writeable = False
            cached = self._limit_rows = (vel_bound_default, G, b_nu)
        return cached[1], cached[2]

    # -- basic queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.joints)

    @property
    def n_p(self) -> int:
        return len(self.position_target_frames)

    @property
    def n_o(self) -> int:
        return len(self.orientation_target_frames)

    def link_index(self, frame: str) -> int:
        try:
            return self._link_index[frame]
        except KeyError:
            raise UnknownFrame(frame) from None

    def physical_links(self):
        return tuple(l.name for l in self.links if not l.is_dummy)

    # -- kinematics ---------------------------------------------------------

    def fk_batch(self, base_pos, base_rot, s) -> tuple[np.ndarray, np.ndarray]:
        """World positions (B, L, 3) and rotations (B, L, 3, 3) of every link
        for B configurations given as stacked arrays: base positions (B, 3),
        base rotation matrices (B, 3, 3) and joint angles (B, n)."""
        return fk_levels(self._layout, s, base_pos, base_rot)

    def fk_arrays(self, q: "Configuration") -> tuple[np.ndarray, np.ndarray]:
        """World position and rotation of every link (kernel layout)."""
        pos, rot = self.fk_batch(q.base_pos[None], q.base_rot.m[None], q.s[None])
        return pos[0], rot[0]

    def forward_kinematics(self, q: "Configuration", frame: str) -> tuple[np.ndarray, Rotation]:
        idx = self.link_index(frame)
        pos, rot = self.fk_arrays(q)
        return pos[idx].copy(), Rotation.drifting(rot[idx].copy())

    def _jacobians(self, fk, pos_idx, ori_idx, pos_cols, pos_support,
                   ori_support) -> np.ndarray:
        pos, rot = fk
        return stacked_jacobian_kernel(pos, rot, pos[:, self._base_idx], pos_idx, ori_idx,
                                       pos_cols, pos_support, ori_support, self._joint_link,
                                       self._joint_axis)

    def jacobian(self, q: "Configuration", frame: str) -> np.ndarray:
        """6x(n+6) frame Jacobian; top three rows linear, bottom three angular."""
        idx = np.array([self.link_index(frame)], dtype=np.int64)
        support = self._support[idx]
        pos, rot = self.fk_arrays(q)
        return self._jacobians((pos[None], rot[None]), idx, idx, *_moving_columns(support),
                               support)[0]

    def stacked_poses(self, fk) -> StackedPose:
        """Target-frame poses, positions first, from a batch of link poses as
        ``fk_batch`` returns them: positions (B, n_p, 3), rotations (B, n_o, 3, 3)."""
        pos, rot = fk
        return StackedPose(pos.take(self._pos_idx, axis=1), rot.take(self._ori_idx, axis=1))

    def stacked_forward_kinematics(self, q: "Configuration") -> StackedPose:
        """Poses of all declared target frames: positions first, then rotations."""
        pos, rot = self.fk_arrays(q)
        return StackedPose(pos.take(self._pos_idx, axis=0), rot.take(self._ori_idx, axis=0))

    def stacked_jacobians(self, fk) -> np.ndarray:
        """Stacked Jacobians (B, 3 (n_p + n_o), n + 6) from a batch of link
        poses as ``fk_batch`` returns them."""
        return self._jacobians(fk, self._pos_idx, self._ori_idx, self._pos_cols,
                               self._pos_support, self._ori_support)

    def stacked_jacobian(self, q: "Configuration", fk=None) -> np.ndarray:
        pos, rot = fk if fk is not None else self.fk_arrays(q)
        return self.stacked_jacobians((pos[None], rot[None]))[0]

    def pose_residual_arrays(self, fk, target_pos, target_rot) -> np.ndarray:
        """Stacked pose residual at link poses ``fk`` in the world frame:
        position errors, then orientation errors R_est vee(skew(R_est^T R_target))."""
        pos, rot = fk
        return pose_residual_kernel(self._pos_idx, self._ori_idx, pos, rot,
                                    target_pos, target_rot)

    # -- serialization ------------------------------------------------------

    def serialize(self) -> str:
        def enc(v):
            return None if np.isinf(v) else float(v)

        doc = {
            "base_link": self.base_link,
            "links": [{"name": l.name, "dummy": True} if l.is_dummy else {"name": l.name}
                      for l in self.links],
            "joints": [],
            "position_targets": list(self.position_target_frames),
            "orientation_targets": list(self.orientation_target_frames),
        }
        for j in self.joints:
            entry = {
                "name": j.name,
                "parent": j.parent,
                "child": j.child,
                "axis": [float(v) for v in j.axis],
                "origin": {"xyz": [float(v) for v in j.origin_xyz],
                           "rpy": [float(v) for v in j.origin_rpy]},
            }
            if j.pos_limits is not None:
                entry["pos_limits"] = [float(j.pos_limits[0]), float(j.pos_limits[1])]
            if j.vel_limit is not None:
                entry["vel_limit"] = float(j.vel_limit)
            doc["joints"].append(entry)
        if self.extra_constraints is not None:
            ec = self.extra_constraints
            doc["constraints"] = {
                "A": [[float(v) for v in row] for row in ec.a],
                "b_q": [enc(v) for v in ec.b_q],
                "b_nu": [enc(v) for v in ec.b_nu],
            }
        return json.dumps(doc, indent=2)


@dataclass(eq=False)
class Configuration:
    """Base position, base rotation, and joint angles."""

    base_pos: np.ndarray
    base_rot: Rotation
    s: np.ndarray

    def __post_init__(self):
        self.base_pos = np.asarray(self.base_pos, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        if not isinstance(self.base_rot, Rotation):
            self.base_rot = Rotation(self.base_rot)

    @classmethod
    def zeros(cls, model: KinematicModel, base_pos=None) -> "Configuration":
        pos = np.zeros(3) if base_pos is None else np.asarray(base_pos, dtype=float)
        return cls(pos, Rotation.identity(), np.zeros(model.n))


@dataclass(eq=False)
class Velocity:
    """Base linear/angular velocity plus joint velocities."""

    base_lin: np.ndarray
    base_ang: np.ndarray
    s_dot: np.ndarray

    def __post_init__(self):
        self.base_lin = np.asarray(self.base_lin, dtype=float)
        self.base_ang = np.asarray(self.base_ang, dtype=float)
        self.s_dot = np.asarray(self.s_dot, dtype=float)

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.base_lin, self.base_ang, self.s_dot])

    @classmethod
    def from_stacked(cls, nu) -> "Velocity":
        return cls(nu[0:3], nu[3:6], nu[6:])

    @classmethod
    def zeros(cls, model: KinematicModel) -> "Velocity":
        return cls(np.zeros(3), np.zeros(3), np.zeros(model.n))


# -- model file I/O ----------------------------------------------------------

_TOP_KEYS = {"base_link", "links", "joints", "position_targets",
             "orientation_targets", "constraints"}
_LINK_KEYS = {"name", "dummy"}
_JOINT_KEYS = {"name", "parent", "child", "axis", "origin", "pos_limits", "vel_limit"}
_ORIGIN_KEYS = {"xyz", "rpy"}
_CONSTRAINT_KEYS = {"A", "b_q", "b_nu"}


def _reject_unknown(obj, allowed, where):
    extra = set(obj) - allowed
    if extra:
        raise ValidationError("unknown key", f"{where}: {sorted(extra)[0]}")


def _is_number(value):
    """A JSON number that converts to a float: a float, or an integer (not a
    boolean) within the float range."""
    if isinstance(value, float):
        return True
    return (isinstance(value, int) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _typed(value, kind, where, what):
    """``value`` when it is an instance of ``kind``; otherwise a
    ValidationError saying the entry at ``where`` should be ``what``."""
    if not isinstance(value, kind):
        raise ValidationError("bad type", f"{where}: expected {what}, got {value!r:.40}")
    return value


def _required(obj, key, kind, where, what):
    if key not in obj:
        raise ValidationError("missing key", f"{where}: {key}")
    return _typed(obj[key], kind, f"{where} {key}", what)


def _numbers(value, size, where):
    """A JSON array of ``size`` numbers as a float array."""
    if not (isinstance(value, list) and len(value) == size and all(map(_is_number, value))):
        raise ValidationError("bad type", f"{where}: expected {size} numbers, got {value!r:.40}")
    return np.array(value, dtype=float)


def _strings(value, where):
    _typed(value, list, where, "an array of names")
    for v in value:
        _typed(v, str, where, "an array of names")
    return value


def _bound(value, where):
    if value is None or value == "unbounded":
        return np.inf
    if _is_number(value) and not np.isnan(value):
        return float(value)
    raise ValidationError("bad bound", f"{where}: {value!r}")


def _load_joint(entry, index):
    where = f"joint {index}"
    _typed(entry, dict, where, "an object")
    name = _required(entry, "name", str, where, "a string")
    where = f"joint {name}"
    _reject_unknown(entry, _JOINT_KEYS, where)
    origin = _typed(entry.get("origin", {}), dict, f"{where} origin", "an object")
    _reject_unknown(origin, _ORIGIN_KEYS, f"{where} origin")
    limits = entry.get("pos_limits")
    vel = entry.get("vel_limit")
    if vel is not None and not _is_number(vel):
        raise ValidationError("bad type", f"{where} vel_limit: expected a number, got {vel!r:.40}")
    return Joint(
        name=name,
        parent=_required(entry, "parent", str, where, "a link name"),
        child=_required(entry, "child", str, where, "a link name"),
        axis=_numbers(_required(entry, "axis", list, where, "3 numbers"), 3, f"{where} axis"),
        origin_xyz=_numbers(origin.get("xyz", [0.0, 0.0, 0.0]), 3, f"{where} origin xyz"),
        origin_rpy=_numbers(origin.get("rpy", [0.0, 0.0, 0.0]), 3, f"{where} origin rpy"),
        pos_limits=(tuple(_numbers(limits, 2, f"{where} pos_limits").tolist())
                    if limits is not None else None),
        vel_limit=float(vel) if vel is not None else None,
    )


def _load_constraints(block, n):
    _typed(block, dict, "constraints", "an object")
    _reject_unknown(block, _CONSTRAINT_KEYS, "constraints")
    rows = _required(block, "A", list, "constraints", "an array of rows")
    bounds = {key: [_bound(v, key) for v in _required(block, key, list, "constraints",
                                                     "an array of bounds")]
              for key in ("b_q", "b_nu")}
    a = np.array([_numbers(row, n, f"constraints A row {i}") for i, row in enumerate(rows)])
    return ExtraConstraints(a=a.reshape(len(rows), n), b_q=np.array(bounds["b_q"]),
                            b_nu=np.array(bounds["b_nu"]))


def load_model(text: str) -> KinematicModel:
    """Parse and validate a JSON model document. A malformed document raises
    ``ParseError`` or ``ValidationError``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}",
                         line=e.lineno, column=e.colno) from None
    except (RecursionError, ValueError) as e:  # nested too deeply; too many digits
        raise ParseError(str(e)) from None
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    _reject_unknown(doc, _TOP_KEYS, "document")
    links = []
    for i, entry in enumerate(_required(doc, "links", list, "document", "an array")):
        _typed(entry, dict, f"link {i}", "an object")
        _reject_unknown(entry, _LINK_KEYS, f"link {entry.get('name', i)}")
        name = _required(entry, "name", str, f"link {i}", "a string")
        links.append(Link(name, _typed(entry.get("dummy", False), bool, f"link {name} dummy",
                                       "true or false")))
    joints = [_load_joint(entry, i)
              for i, entry in enumerate(_required(doc, "joints", list, "document", "an array"))]
    return KinematicModel(
        links=links,
        joints=joints,
        base_link=_required(doc, "base_link", str, "document", "a link name"),
        position_targets=_strings(doc.get("position_targets", []), "position_targets"),
        orientation_targets=_strings(doc.get("orientation_targets", []), "orientation_targets"),
        extra_constraints=(_load_constraints(doc["constraints"], len(joints))
                           if "constraints" in doc else None),
    )


def serialize_model(model: KinematicModel) -> str:
    return model.serialize()


# -- procedural human-like chain ---------------------------------------------

# 23 body segments: (name, parent, offset scaled to a 1.75 m stature)
_SEGMENTS = (
    ("l5", "pelvis", (0.0, 0.0, 0.094)),
    ("l3", "l5", (0.0, 0.0, 0.096)),
    ("t12", "l3", (0.0, 0.0, 0.103)),
    ("t8", "t12", (0.0, 0.0, 0.121)),
    ("neck", "t8", (0.0, 0.0, 0.121)),
    ("head", "neck", (0.0, 0.0, 0.099)),
    ("right_shoulder", "t8", (0.0, -0.105, 0.071)),
    ("right_upper_arm", "right_shoulder", (0.0, -0.120, 0.0)),
    ("right_forearm", "right_upper_arm", (0.0, -0.282, 0.0)),
    ("right_hand", "right_forearm", (0.0, -0.257, 0.0)),
    ("left_shoulder", "t8", (0.0, 0.105, 0.071)),
    ("left_upper_arm", "left_shoulder", (0.0, 0.120, 0.0)),
    ("left_forearm", "left_upper_arm", (0.0, 0.282, 0.0)),
    ("left_hand", "left_forearm", (0.0, 0.257, 0.0)),
    ("right_upper_leg", "pelvis", (0.0, -0.088, -0.053)),
    ("right_lower_leg", "right_upper_leg", (0.0, 0.0, -0.422)),
    ("right_foot", "right_lower_leg", (0.0, 0.0, -0.434)),
    ("right_toe", "right_foot", (0.148, 0.0, -0.055)),
    ("left_upper_leg", "pelvis", (0.0, 0.088, -0.053)),
    ("left_lower_leg", "left_upper_leg", (0.0, 0.0, -0.422)),
    ("left_foot", "left_lower_leg", (0.0, 0.0, -0.434)),
    ("left_toe", "left_foot", (0.148, 0.0, -0.055)),
)

_AXES = {"z": (0.0, 0.0, 1.0), "x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0)}

# reduced-joint variant: axes kept per connection plus symmetric angle limits
_REDUCED = {
    "l5": "zxy", "l3": "zy", "t12": "zy", "t8": "zxy",
    "neck": "zxy", "head": "zxy",
    "right_shoulder": "zy", "right_upper_arm": "zxy",
    "right_forearm": "xy", "right_hand": "zx",
    "left_shoulder": "zy", "left_upper_arm": "zxy",
    "left_forearm": "xy", "left_hand": "zx",
    "right_upper_leg": "zxy", "right_lower_leg": "y",
    "right_foot": "yx", "right_toe": "y",
    "left_upper_leg": "zxy", "left_lower_leg": "y",
    "left_foot": "yx", "left_toe": "y",
}

_LIMITS = {
    "l5": 0.40, "l3": 0.40, "t12": 0.40, "t8": 0.40,
    "neck": 0.60, "head": 0.70,
    "right_shoulder": 0.85, "right_upper_arm": 1.60,
    "right_forearm": 1.40, "right_hand": 0.60,
    "left_shoulder": 0.85, "left_upper_arm": 1.60,
    "left_forearm": 1.40, "left_hand": 0.60,
    "right_upper_leg": 1.20, "right_lower_leg": 1.90,
    "right_foot": 0.80, "right_toe": 0.60,
    "left_upper_leg": 1.20, "left_lower_leg": 1.90,
    "left_foot": 0.80, "left_toe": 0.60,
}

_VEL_LIMIT = 8.0  # rad/s; keeps one tanh-shaped step from overshooting a limit


def generate_human_chain(dofs: int, seed: int) -> KinematicModel:
    """Deterministic 23-segment chain with 66 or 48 revolute DoFs.

    Multi-DoF connections are decomposed into z-x-y revolute triplets joined
    by zero-length dummy links. The 66-DoF variant is unconstrained; the
    48-DoF variant drops joints per connection, bounds every joint, and adds
    one coupled-joint constraint row. Geometry is jittered +-2% by ``seed``.
    """
    if dofs not in (66, 48):
        raise ValueError("dofs must be 66 or 48")
    rng = np.random.default_rng(seed)
    links = [Link("pelvis")]
    joints = []
    for name, parent, offset in _SEGMENTS:
        offset = np.asarray(offset) * (1.0 + 0.02 * rng.uniform(-1.0, 1.0))
        axes = "zxy" if dofs == 66 else _REDUCED[name]
        limit = None if dofs == 66 else _LIMITS[name]
        vel = None if dofs == 66 else _VEL_LIMIT
        chain_parent = parent
        for k, ax in enumerate(axes):
            last = k == len(axes) - 1
            child = name if last else f"{name}_{ax}"
            if not last:
                links.append(Link(child, is_dummy=True))
            else:
                links.append(Link(child))
            joints.append(Joint(
                name=f"{name}_{ax}",
                parent=chain_parent,
                child=child,
                axis=np.asarray(_AXES[ax]),
                origin_xyz=offset if k == 0 else np.zeros(3),
                origin_rpy=np.zeros(3),
                pos_limits=(-limit, limit) if limit is not None else None,
                vel_limit=vel,
            ))
            chain_parent = child
    extra = None
    if dofs == 48:
        # one coupled row over the first spine triplet; its bound sits outside
        # the reach of the individual limits, so it exercises the constraint
        # path without ever binding
        n = len(joints)
        jidx = {j.name: i for i, j in enumerate(joints)}
        row = np.zeros(n)
        row[jidx["l5_z"]] = 1.0
        row[jidx["l5_y"]] = 1.0
        extra = ExtraConstraints(a=row.reshape(1, -1),
                                 b_q=np.array([0.9]),
                                 b_nu=np.array([np.inf]))
    physical = ("pelvis",) + tuple(name for name, _, _ in _SEGMENTS)
    return KinematicModel(
        links=links,
        joints=joints,
        base_link="pelvis",
        position_targets=("pelvis",),
        orientation_targets=physical,
        extra_constraints=extra,
    )
