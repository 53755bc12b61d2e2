import copy
import gc
import json
import os
import pathlib
import pickle
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

import iktrack as ik
from iktrack import Configuration, Joint, KinematicModel, Link, Rotation, Velocity
from iktrack._kernels import FK_BUFFER_SETS
from iktrack.errors import ParseError, UnknownFrame, ValidationError

from conftest import (base_only_model, branched_model, every_link_model, rodrigues,
                      single_joint_model, target_poses)


def perturbed(q, nu, h):
    """Configuration advanced by h along nu (world-frame base rotation step);
    independent of the Jacobian code path."""
    nu = np.asarray(nu, float)
    rot = rodrigues(nu[3:6] / max(np.linalg.norm(nu[3:6]), 1e-300),
                    h * np.linalg.norm(nu[3:6])) @ q.base_rot.m
    return Configuration(q.base_pos + h * nu[:3], Rotation.drifting(rot), q.s + h * nu[6:])


def fd_link_jacobians(model, q, h=1e-6):
    """Central-difference oracle for the 6x(n+6) Jacobian of every link,
    shaped (links, 6, n+6); angular rows from the world rate dR R^T."""
    dim = model.n + 6
    _, r0 = model.fk_arrays(q)
    jac = np.zeros((len(model.links), 6, dim))
    for col in range(dim):
        e = np.zeros(dim)
        e[col] = 1.0
        pp, rp = model.fk_arrays(perturbed(q, e, h))
        pm, rm = model.fk_arrays(perturbed(q, e, -h))
        jac[:, :3, col] = (pp - pm) / (2 * h)
        w = (rp - rm) / (2 * h) @ np.swapaxes(r0, 1, 2)
        jac[:, 3:, col] = 0.5 * np.stack([w[:, 2, 1] - w[:, 1, 2], w[:, 0, 2] - w[:, 2, 0],
                                          w[:, 1, 0] - w[:, 0, 1]], axis=1)
    return jac


def fd_stacked_jacobian(model, q, h=1e-6):
    """Central-difference oracle for the stacked Jacobian."""
    links = fd_link_jacobians(model, q, h)
    pos = [model.link_index(f) for f in model.position_target_frames]
    ori = [model.link_index(f) for f in model.orientation_target_frames]
    return np.concatenate([links[pos, :3].reshape(-1, model.n + 6),
                           links[ori, 3:].reshape(-1, model.n + 6)])


def link_jacobian(model, q, frame):
    """The linear then the angular rows of ``frame`` in the stacked Jacobian
    of ``every_link_model(model)``, (6, n + 6)."""
    jac = every_link_model(model).stacked_jacobian(q)
    i, rows = 3 * model.link_index(frame), 3 * len(model.links)
    return np.vstack([jac[i:i + 3], jac[rows + i:rows + i + 3]])


def random_configuration(model, rng, angle, scale):
    return Configuration(rng.normal(size=3), Rotation.about_axis(rng.normal(size=3), angle),
                         rng.normal(scale=scale, size=model.n))


class TestForwardKinematics:
    def test_base_frame_is_identity_map(self, human66):
        rng = np.random.default_rng(0)
        q = Configuration(rng.normal(size=3), Rotation.about_axis(rng.normal(size=3), 0.8),
                          rng.normal(scale=0.4, size=human66.n))
        pos, rot = human66.fk_arrays(q)
        i = human66.link_index("pelvis")
        assert np.array_equal(pos[i], q.base_pos)
        assert np.array_equal(rot[i], q.base_rot.m)

    def test_single_joint_zero_angle(self):
        m = single_joint_model(offset=(1.0, 0.0, 0.0))
        q = Configuration.zeros(m)
        pos, rot = m.fk_arrays(q)
        i = m.link_index("link1")
        assert np.allclose(pos[i], [1.0, 0.0, 0.0])
        assert np.allclose(rot[i], np.eye(3))

    def test_single_joint_quarter_turn(self):
        # child origin rides on the joint; a frame one link beyond it swings
        m = single_joint_model()
        q = Configuration(np.zeros(3), Rotation.identity(), np.array([np.pi / 2, 0.0]))
        pos, rot = m.fk_arrays(q)
        assert np.allclose(pos[m.link_index("link1")], [0.0, 0.0, 0.0], atol=1e-15)
        tip = m.link_index("tip")
        assert np.allclose(pos[tip], [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(rot[tip], rodrigues([0, 0, 1], np.pi / 2), atol=1e-12)

    def test_unknown_frame(self, human66):
        with pytest.raises(UnknownFrame):
            human66.link_index("nope")

    def test_matches_naive_transform_composition(self, human66, human48):
        # walk each tree by hand with homogeneous transforms, for every link
        rng = np.random.default_rng(1)
        for model in (human66, human48, branched_model()):
            q = random_configuration(model, rng, 1.2, 0.5)
            joints_by_child = {j.child: (idx, j) for idx, j in enumerate(model.joints)}

            def naive(frame):
                if frame == model.base_link:
                    return q.base_pos.copy(), q.base_rot.m.copy()
                idx, j = joints_by_child[frame]
                p_par, r_par = naive(j.parent)
                p = p_par + r_par @ j.origin_xyz
                r = r_par @ ik.model.rpy_matrix(j.origin_rpy) @ rodrigues(j.axis, q.s[idx])
                return p, r

            pos, rot = model.fk_arrays(q)
            for link in model.links:
                i = model.link_index(link.name)
                p_ref, r_ref = naive(link.name)
                assert np.allclose(pos[i], p_ref, atol=1e-12), (model.n, link.name)
                assert np.allclose(rot[i], r_ref, atol=1e-12), (model.n, link.name)


def configuration_batch(model, rng, size):
    """``fk_batch``'s arguments for ``size`` random configurations."""
    qs = [random_configuration(model, rng, 1.0, 0.5) for _ in range(size)]
    return (np.array([q.base_pos for q in qs]), np.array([q.base_rot.m for q in qs]),
            np.array([q.s for q in qs]))


class TestForwardKinematicsBuffers:
    """Forward kinematics composes into buffers that each model keeps per
    thread and batch size; what it returns must not depend on them. The
    branched model has depths whose parents are gathered by index."""

    def test_results_never_alias_a_buffer(self, human66):
        rng = np.random.default_rng(5)
        for model in (human66, branched_model()):
            for size in (1, 3):
                first = configuration_batch(model, rng, size)
                second = configuration_batch(model, rng, size)
                pos, rot = model.fk_batch(*first)
                kept = pos.copy(), rot.copy()
                later = model.fk_batch(*second)
                assert np.array_equal(pos, kept[0]) and np.array_equal(rot, kept[1])
                expected = later[0].copy(), later[1].copy()
                for out in (pos, rot, *later):
                    out[...] = np.nan
                again = model.fk_batch(*second)
                assert np.array_equal(again[0], expected[0])
                assert np.array_equal(again[1], expected[1])

    def test_two_threads_get_the_single_thread_bits(self, human66):
        rng = np.random.default_rng(6)
        for model in (human66, branched_model()):
            # one batch size, so both threads would share a buffer set if
            # the sets were not per thread
            args = [configuration_batch(model, rng, 2) for _ in range(2)]
            expected = [model.fk_batch(*a) for a in args]
            barrier = threading.Barrier(2)
            mismatches, done = [0, 0], [False, False]

            def work(i):
                barrier.wait(timeout=30)
                for _ in range(300):
                    pos, rot = model.fk_batch(*args[i])
                    mismatches[i] += not (np.array_equal(pos, expected[i][0])
                                          and np.array_equal(rot, expected[i][1]))
                done[i] = True

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert done == [True, True] and mismatches == [0, 0]

    def test_pickle_and_deepcopy_keep_the_bits(self, human66):
        rng = np.random.default_rng(7)
        for model in (human66, branched_model()):
            args = configuration_batch(model, rng, 4)
            before = model.fk_batch(*args)
            for other in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
                after = other.fk_batch(*args)
                assert np.array_equal(after[0], before[0])
                assert np.array_equal(after[1], before[1])

    def test_buffer_sets_stay_bounded_and_die_with_the_model(self):
        model = ik.generate_human_chain(48, seed=7)
        rng = np.random.default_rng(8)
        sets = model._fk_buffers.sets
        for size in range(1, 61):
            model.fk_batch(*configuration_batch(model, rng, size))
            assert len(sets) == min(size, FK_BUFFER_SETS) <= 4
        owner = weakref.ref(model)
        buffers = [weakref.ref(s.world) for s in sets.values()]
        del model, sets
        gc.collect()
        assert owner() is None
        assert all(b() is None for b in buffers)


class TestJacobian:
    def test_base_frame_pattern(self, human66):
        q = Configuration.zeros(human66)
        assert every_link_model(human66).stacked_jacobian(q).shape == (
            6 * len(human66.links), human66.n + 6)
        jac = link_jacobian(human66, q, "pelvis")
        assert np.array_equal(jac[:3, :3], np.eye(3))
        assert np.array_equal(jac[3:, 3:6], np.eye(3))
        assert np.array_equal(jac[:, 6:], np.zeros((6, human66.n)))

    def test_single_joint_column(self):
        m = single_joint_model()
        q = Configuration.zeros(m)
        jac = link_jacobian(m, q, "tip")
        assert np.allclose(jac[:3, 6], [0.0, 1.0, 0.0])
        assert np.allclose(jac[3:, 6], [0.0, 0.0, 1.0])

    def test_matches_finite_differences(self, human66, human48):
        rng = np.random.default_rng(2)
        for model in (human66, human48, branched_model()):
            q = random_configuration(model, rng, 0.9, 0.5)
            # every link's linear and angular rows
            every = every_link_model(model)
            err = np.abs(every.stacked_jacobian(q) - fd_stacked_jacobian(every, q)).max()
            assert err <= 1e-5, (model.n, err)
            jac = model.stacked_jacobian(q)
            assert np.abs(jac - fd_stacked_jacobian(model, q)).max() <= 1e-5, model.n

    def test_velocity_prediction(self, human66):
        # FK of a perturbed configuration moves by delta * J nu up to O(delta^2)
        rng = np.random.default_rng(3)
        q = Configuration(rng.normal(size=3), Rotation.about_axis(rng.normal(size=3), 0.5),
                          rng.normal(scale=0.3, size=human66.n))
        nu = rng.normal(size=human66.n + 6)
        delta = 1e-5
        p0, _ = target_poses(human66, q)
        p1, _ = target_poses(human66, perturbed(q, nu, delta))
        predicted = delta * (human66.stacked_jacobian(q) @ nu)[:3 * human66.n_p]
        assert np.allclose((p1 - p0).ravel(), predicted, atol=1e-9)


class TestStackedOperations:
    def test_base_only(self):
        m = base_only_model()
        q = Configuration(np.array([1.0, 2.0, 3.0]), Rotation.identity(), np.zeros(0))
        stacked = target_poses(m, q)
        assert stacked.positions.shape == (1, 3)
        assert np.array_equal(stacked.positions[0], q.base_pos)
        assert stacked.rotations.shape == (0, 3, 3)
        jac = m.stacked_jacobian(q)
        assert jac.shape == (3, 6)
        assert np.array_equal(jac[:, :3], np.eye(3))

    def test_declaration_order_permutes_blocks(self, human66):
        frames = list(human66.orientation_target_frames)
        permuted = KinematicModel(links=human66.links, joints=human66.joints,
                                  base_link="pelvis", position_targets=("pelvis",),
                                  orientation_targets=frames[::-1])
        rng = np.random.default_rng(4)
        q = Configuration(rng.normal(size=3), Rotation.identity(),
                          rng.normal(scale=0.4, size=human66.n))
        a = target_poses(human66, q)
        b = target_poses(permuted, q)
        assert np.array_equal(a.rotations, b.rotations[::-1])

    def test_blocks_match_the_every_link_model(self, human66, human48):
        """Each target frame's pose is its link's in ``fk_arrays``, and its
        Jacobian rows equal that link's rows on ``every_link_model``, bit for
        bit, although the position rows there form every joint column."""
        rng = np.random.default_rng(5)
        for model in (human66, human48):
            q = Configuration(rng.normal(size=3), Rotation.about_axis([0, 1, 0], 0.3),
                              rng.normal(scale=0.4, size=model.n))
            stacked = target_poses(model, q)
            pos, rot = model.fk_arrays(q)
            jac = model.stacked_jacobian(q)
            for i, frame in enumerate(model.position_target_frames):
                assert np.array_equal(stacked.positions[i], pos[model.link_index(frame)])
                assert np.array_equal(jac[3 * i:3 * i + 3], link_jacobian(model, q, frame)[:3])
            for i, frame in enumerate(model.orientation_target_frames):
                assert np.array_equal(stacked.rotations[i], rot[model.link_index(frame)])
                rows = slice(3 * model.n_p + 3 * i, 3 * model.n_p + 3 * i + 3)
                assert np.array_equal(jac[rows], link_jacobian(model, q, frame)[3:])


def model_document(links, joints, **fields):
    """A model document with base link ``b``; ``joints`` are (name, parent,
    child) triples about the z axis, or such a triple and the joint's extra
    fields."""
    def joint(entry):
        (name, parent, child), extra = entry if len(entry) == 2 else (entry, {})
        return {"name": name, "parent": parent, "child": child, "axis": [0, 0, 1], **extra}

    return json.dumps({"base_link": "b", "links": [{"name": n} for n in links],
                       "joints": [joint(e) for e in joints], **fields})


# links b a c d e, the joints a -> c and c -> a: two faults, a cycle through a
# and c and the disconnected links d and e
CYCLE_AND_DISCONNECTED = model_document("bacde", [("j1", "a", "c"), ("j2", "c", "a")])
# links b c a and the joint a -> c: c is declared before a, its parentless parent
BELOW_A_PARENTLESS_LINK = model_document("bca", [("j", "a", "c")])

class TestModelValidation:
    def test_minimal_base_only_document(self):
        m = ik.load_model(json.dumps({"base_link": "b", "links": [{"name": "b"}], "joints": []}))
        assert m.n == 0 and len(m.links) == 1

    def test_duplicate_link_rejected(self):
        doc = {"base_link": "b", "links": [{"name": "b"}, {"name": "b"}], "joints": []}
        with pytest.raises(ValidationError, match="duplicate link"):
            ik.load_model(json.dumps(doc))

    def test_unknown_key_rejected(self):
        doc = {"base_link": "b", "links": [{"name": "b"}], "joints": [], "extra": 1}
        with pytest.raises(ValidationError, match="unknown key"):
            ik.load_model(json.dumps(doc))

    def test_malformed_json_position(self):
        with pytest.raises(ParseError) as exc:
            ik.load_model('{"base_link": "b",\n "links": [}')
        assert exc.value.line == 2

    def test_cycle_rejected(self):
        with pytest.raises(ValidationError, match="multiple parents|cycle|disconnected"):
            KinematicModel(
                links=[Link("b"), Link("x"), Link("y")],
                joints=[Joint("j1", "b", "x", axis=[0, 0, 1]),
                        Joint("j2", "x", "y", axis=[0, 0, 1]),
                        Joint("j3", "y", "x", axis=[0, 0, 1])],
                base_link="b")

    @pytest.mark.parametrize("build, error, message", [
        (lambda: ik.load_model(model_document("bxy", [("j", "b", "x"), ("j", "x", "y")])),
         ValidationError, "duplicate joint: j"),
        (lambda: ik.load_model(model_document("bx", [("j", "zz", "x")])),
         ValidationError, "unknown parent link: j: zz"),
        (lambda: ik.load_model(model_document("bx", [("j", "x", "b")])),
         ValidationError, "base link has a parent: j"),
        (lambda: ik.load_model(model_document("bx", [(("j", "b", "x"), {"vel_limit": 0.0})])),
         ValidationError, "non-positive velocity limit: j"),
        (lambda: ik.load_model(model_document("bc", [])),
         ValidationError, "disconnected link: c"),
        (lambda: ik.load_model(model_document("bxy", [("j1", "x", "y"), ("j2", "y", "x")])),
         ValidationError, "cycle: x"),
        (lambda: ik.load_model(BELOW_A_PARENTLESS_LINK), ValidationError, "disconnected link: c"),
        (lambda: KinematicModel([Link("b"), Link("x")],
                                [Joint("j", "b", "x", axis=[0, 0, 1])], "b",
                                extra_constraints=ik.ExtraConstraints(
                                    a=[[1.0, 1.0]], b_q=[1.0], b_nu=[1.0])),
         ValidationError, "constraint shape: A must have 1 columns"),
        (lambda: ik.load_model(model_document("bx", [("j", "b", "x")], constraints={
            "A": [[float("nan")]], "b_q": [1.0], "b_nu": [1.0]})),
         ValidationError, "non-finite constraint: A"),
        (lambda: ik.load_model("[]"), ParseError, "top-level value must be an object"),
    ], ids=["duplicate-joint", "unknown-parent", "base-with-parent", "zero-vel-limit",
            "disconnected", "cycle", "below-a-parentless-link", "constraint-columns",
            "nan-constraint", "top-level-array"])
    def test_rejection_messages(self, build, error, message):
        with pytest.raises(error) as exc:
            build()
        assert str(exc.value) == message

    def test_first_bad_link_is_named_in_declaration_order(self):
        """The validator walks the links as declared, so the message does not
        depend on the interpreter's string hash seed."""
        src = pathlib.Path(ik.__file__).resolve().parents[1]
        code = ("import sys, iktrack\ntry:\n    iktrack.load_model(sys.argv[1])\n"
                "except iktrack.ValidationError as e:\n    print(e)\n")
        for seed in ("0", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
            proc = subprocess.run([sys.executable, "-c", code, CYCLE_AND_DISCONNECTED],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert (seed, proc.stdout.strip()) == (seed, "cycle: a"), proc.stderr

    def test_faults_are_reported_in_rule_order(self):
        """A missed link, an unknown target frame and a malformed constraint
        row: the first is named, and each fault only once those before it
        are mended."""
        def build(links, targets, columns):
            return KinematicModel([Link(n) for n in links],
                                  [Joint("j", "b", "x", axis=[0, 0, 1])], "b",
                                  position_targets=targets,
                                  extra_constraints=ik.ExtraConstraints(
                                      a=np.ones((1, columns)), b_q=[1.0], b_nu=[1.0]))

        for args, message in (((["b", "x", "d"], ["zz"], 2), "disconnected link: d"),
                              ((["b", "x"], ["zz"], 2), "unknown target frame: zz"),
                              ((["b", "x"], ["x"], 2), "constraint shape: A must have 1 columns")):
            with pytest.raises(ValidationError) as exc:
                build(*args)
            assert str(exc.value) == message
        assert build(["b", "x"], ["x"], 1).n == 1

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValidationError, match="non-unit axis"):
            KinematicModel(links=[Link("b"), Link("x")],
                           joints=[Joint("j", "b", "x", axis=[0, 0, 2])],
                           base_link="b")

    @pytest.mark.parametrize("field", ["axis", "xyz", "rpy"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_joint_geometry_rejected(self, field, value):
        with open("fixtures/human66.json") as fh:
            doc = json.load(fh)
        joint = doc["joints"][3]
        (joint if field == "axis" else joint["origin"])[field][1] = value
        with pytest.raises(ValidationError, match=joint["name"]):
            ik.load_model(json.dumps(doc))

    @pytest.mark.parametrize("mutate", [
        lambda doc: doc.update(links="ab"),
        lambda doc: doc["joints"][3].pop("parent"),
        lambda doc: doc.update(joints=5),
        lambda doc: doc["joints"][3].update(axis="xyz"),
        lambda doc: doc["joints"][3]["origin"].update(xyz=[0.0, 0.1]),
        lambda doc: doc["joints"][3].update(pos_limits=[1.0]),
        lambda doc: doc["joints"][3].update(pos_limits="a"),
        lambda doc: doc["joints"][3].update(vel_limit="a"),
        lambda doc: doc["joints"][3].update(name=["l5_z"]),
        lambda doc: doc["constraints"].pop("b_nu"),
        lambda doc: doc["constraints"].update(A=[]),
        lambda doc: doc["constraints"]["b_q"].__setitem__(0, float("nan")),
        lambda doc: doc.update(base_link=["pelvis"]),
        lambda doc: doc.update(orientation_targets="pelvis"),
    ], ids=["links-string", "joint-without-parent", "joints-number", "axis-string",
            "xyz-two-entries", "pos-limits-one-entry", "pos-limits-string",
            "vel-limit-string", "joint-name-list", "constraints-without-b-nu",
            "constraints-no-rows", "b-q-nan", "base-link-list", "targets-string"])
    def test_malformed_document_rejected(self, mutate):
        with open("fixtures/human48.json") as fh:
            doc = json.load(fh)
        mutate(doc)
        with pytest.raises(ValidationError):
            ik.load_model(json.dumps(doc))

    @pytest.mark.parametrize("field, value, message", [
        ("axis", [1, 0], "joint j axis: expected 3 numbers, got [1, 0]"),
        ("origin_xyz", [0, 0], "joint j origin xyz: expected 3 numbers, got [0, 0]"),
        ("axis", "abc", "joint j axis: expected 3 numbers, got 'abc'"),
        ("pos_limits", [1], "joint j pos_limits: expected 2 numbers, got [1]"),
        ("vel_limit", "x", "joint j vel_limit: expected a number, got 'x'"),
        ("axis", [0, 0, True], "joint j axis: expected 3 numbers, got [0, 0, True]"),
        ("pos_limits", [0, 10**20], None),
        ("vel_limit", 10**20, None),
        ("vel_limit", 10**400, f"joint j vel_limit: expected a number, got {'1' + '0' * 39}"),
    ], ids=["axis-two-entries", "xyz-two-entries", "axis-string", "pos-limits-one-entry",
            "vel-limit-string", "axis-boolean", "pos-limits-past-int64",
            "vel-limit-past-int64", "vel-limit-past-float-range"])
    def test_malformed_joint_field_is_named(self, field, value, message):
        """A joint field gives the same result built by hand and loaded from a
        one-joint model document. A field that is not numbers of its shape
        raises the loader's ``bad type`` error naming the joint and the field,
        not numpy's or Python's; a valid one gives equal joints, with
        ``pos_limits`` a tuple of floats and ``vel_limit`` a float."""
        entry = {"name": "j", "parent": "a", "child": "b", "axis": [0, 0, 1]}
        if field.startswith("origin_"):
            entry["origin"] = {field[len("origin_"):]: value}
        else:
            entry[field] = value
        doc = {"base_link": "a", "links": [{"name": "a"}, {"name": "b"}], "joints": [entry]}
        builds = {
            "by hand": lambda: KinematicModel(
                [Link("a"), Link("b")],
                [Joint("j", "a", "b", **{"axis": [0, 0, 1], field: value})], "a"),
            "loaded": lambda: ik.load_model(json.dumps(doc)),
        }
        if message is not None:
            for way, build in builds.items():
                with pytest.raises(ValidationError) as exc:
                    build()
                assert str(exc.value) == f"bad type: {message}", way
            return
        hand, loaded = (build().joints[0] for build in builds.values())
        for name in ("axis", "origin_xyz", "origin_rpy"):
            assert np.array_equal(getattr(hand, name), getattr(loaded, name)), name
        for j in (hand, loaded):
            assert j.pos_limits is None or (type(j.pos_limits) is tuple
                                            and all(type(v) is float for v in j.pos_limits))
            assert j.vel_limit is None or type(j.vel_limit) is float
        assert (hand.pos_limits, hand.vel_limit) == (loaded.pos_limits, loaded.vel_limit)
        assert getattr(hand, field) == (tuple(map(float, value)) if field == "pos_limits"
                                        else float(value))

    def test_inverted_limits_rejected(self):
        with pytest.raises(ValidationError, match="inverted limits"):
            KinematicModel(links=[Link("b"), Link("x")],
                           joints=[Joint("j", "b", "x", axis=[0, 0, 1], pos_limits=(1.0, -1.0))],
                           base_link="b")

    @pytest.mark.parametrize("field", ["b_q", "b_nu"])
    def test_nan_constraint_bound_rejected(self, human48, field):
        """Built through the Python API, a NaN bound is rejected by name, as
        the JSON loader rejects it; an infinite bound still means unbounded."""
        ec = human48.extra_constraints

        def with_bound(value):
            bounds = {"b_q": ec.b_q.copy(), "b_nu": ec.b_nu.copy()}
            bounds[field][0] = value
            return KinematicModel(human48.links, human48.joints, human48.base_link,
                                  human48.position_target_frames,
                                  human48.orientation_target_frames,
                                  ik.ExtraConstraints(a=ec.a, **bounds))

        unbounded = with_bound(np.inf)
        assert np.isinf(unbounded.config_bounds[-1] if field == "b_q"
                        else unbounded.vel_bounds[-1])
        with pytest.raises(ValidationError, match=f"NaN constraint bound: {field}"):
            with_bound(np.nan)

    def test_constraints_given_as_lists(self, human48):
        """Built through the Python API from lists, the constraints give the
        model their arrays give; an entry that is not a number by the model
        loader's rule (a string, a boolean or a None among numbers) is
        rejected by field name."""
        ec = human48.extra_constraints

        def with_constraints(**fields):
            return KinematicModel(human48.links, human48.joints, human48.base_link,
                                  human48.position_target_frames,
                                  human48.orientation_target_frames,
                                  ik.ExtraConstraints(**fields))

        listed = with_constraints(a=ec.a.tolist(), b_q=ec.b_q.tolist(), b_nu=ec.b_nu.tolist())
        assert np.array_equal(listed.constraint_matrix, human48.constraint_matrix)
        assert np.array_equal(listed.config_bounds, human48.config_bounds)
        assert np.array_equal(listed.vel_bounds, human48.vel_bounds)
        def row_with(entry):
            return [[entry] + row[1:] for row in ec.a.tolist()]

        for field, value in (("a", row_with("x")), ("b_q", np.array(["x"])), ("b_nu", [[1.0], []]),
                             ("a", row_with("1")), ("a", row_with(True)), ("b_q", [True]),
                             ("b_nu", ["2"]), ("b_q", [None])):
            fields = {"a": ec.a, "b_q": ec.b_q, "b_nu": ec.b_nu, field: value}
            with pytest.raises(ValidationError, match=f"non-numeric constraint: {field}$"):
                with_constraints(**fields)

    def test_unknown_target_frame_rejected(self):
        with pytest.raises(ValidationError, match="unknown target frame"):
            KinematicModel(links=[Link("b")], joints=[], base_link="b",
                           position_targets=["nope"])

    def test_shipped_human66_fixture(self):
        with open("fixtures/human66.json") as fh:
            m = ik.load_model(fh.read())
        assert len(m.links) == 67
        assert m.n == 66
        assert m.n_o == 23
        assert m.n_p == 1

    def test_serialize_load_identity(self, human48):
        text = human48.serialize()
        again = ik.load_model(text)
        assert again.serialize() == text
        assert np.array_equal(again.constraint_matrix, human48.constraint_matrix)
        assert np.array_equal(again.config_bounds, human48.config_bounds)
        assert np.array_equal(again.vel_bounds, human48.vel_bounds)

    def test_integer_bound_past_int64_loads_as_a_float(self):
        """A constraint bound given as an integer past int64 but inside the
        float range loads as that float, as a joint's ``pos_limits`` does."""
        with open("fixtures/human48.json") as fh:
            doc = json.load(fh)
        doc["constraints"]["b_q"][0] = 10**20
        doc["constraints"]["b_nu"][0] = -10**20
        m = ik.load_model(json.dumps(doc))
        assert m.config_bounds[-1] == 1e20
        assert m.vel_bounds[-1] == -1e20

    def test_bound_past_the_float_range_is_cut_to_one_short_line(self):
        """A constraint bound given as an integer past the float range is a
        ``bad bound`` naming its field, with the value cut to 40 characters
        as every other rule cuts it."""
        with open("fixtures/human48.json") as fh:
            doc = json.load(fh)
        doc["constraints"]["b_q"][0] = 10**400
        with pytest.raises(ValidationError) as exc:
            ik.load_model(json.dumps(doc))
        assert str(exc.value) == f"bad bound: b_q: {'1' + '0' * 39}"
        assert len(str(exc.value)) < 100

    def test_unbounded_encoding(self):
        doc = {"base_link": "b", "links": [{"name": "b"}, {"name": "x"}],
               "joints": [{"name": "j", "parent": "b", "child": "x", "axis": [0, 0, 1],
                           "origin": {"xyz": [0, 0, 0], "rpy": [0, 0, 0]}}],
               "constraints": {"A": [[1.0]], "b_q": [0.5], "b_nu": ["unbounded"]}}
        m = ik.load_model(json.dumps(doc))
        assert np.isinf(m.vel_bounds[0])
        again = ik.load_model(m.serialize())
        assert np.isinf(again.vel_bounds[0])


class TestSupport:
    @pytest.mark.parametrize("name", ["human66", "human48", "branched"])
    def test_support_is_the_path_to_the_base(self, name, request):
        """Row l of the support table holds exactly the joints met climbing
        from link l to the base."""
        model = branched_model() if name == "branched" else request.getfixturevalue(name)
        expected = np.zeros((len(model.links), model.n), dtype=bool)
        by_child = {j.child: (jidx, j.parent) for jidx, j in enumerate(model.joints)}
        for l, link in enumerate(model.links):
            cur = link.name
            while cur != model.base_link:
                jidx, cur = by_child[cur]
                expected[l, jidx] = True
        assert model._support.dtype == bool
        assert np.array_equal(model._support, expected)


class TestGeneratedChains:
    def test_structure_counts_66(self, human66):
        assert human66.n == 66
        assert len([l for l in human66.links if not l.is_dummy]) == 23
        assert human66.n_o == 23
        assert human66.n_p == 1
        assert len(human66.links) == 67

    def test_structure_counts_48(self, human48):
        assert human48.n == 48
        assert len([l for l in human48.links if not l.is_dummy]) == 23
        assert all(j.pos_limits is not None for j in human48.joints)
        assert all(j.vel_limit is not None for j in human48.joints)

    def test_deterministic_in_seed(self):
        a = ik.generate_human_chain(66, seed=3).serialize()
        b = ik.generate_human_chain(66, seed=3).serialize()
        c = ik.generate_human_chain(66, seed=4).serialize()
        assert a == b
        assert a != c

    def test_shared_geometry_across_variants(self, human66, human48):
        # same seed gives the same segment offsets, so streams generated from
        # one variant are meaningful targets for the other
        p66, _ = human66.fk_arrays(Configuration.zeros(human66))
        p48, _ = human48.fk_arrays(Configuration.zeros(human48))
        for link in human66.links:
            if not link.is_dummy:
                assert np.array_equal(p66[human66.link_index(link.name)],
                                      p48[human48.link_index(link.name)])

    @pytest.mark.parametrize("dofs, seed, message", [
        (66, -1, "seed"), (66, "x", "seed"), (48, 1.5, "seed"), (48, True, "seed"),
        (50, 0, "dofs must be 66 or 48"),
    ])
    def test_bad_dofs_or_seed_is_an_invalid_setting(self, dofs, seed, message):
        with pytest.raises(ik.InvalidSetting, match=message):
            ik.generate_human_chain(dofs, seed)

    def test_coupled_constraint_row_present(self, human48):
        m = human48.constraint_matrix.shape[0]
        assert m == 2 * human48.n + 1
        row = human48.constraint_matrix[-1]
        assert np.count_nonzero(row) == 2
        assert np.isinf(human48.vel_bounds[-1])

    def test_zero_configuration_feasible(self, human48):
        s = np.zeros(human48.n)
        assert np.all(human48.constraint_matrix @ s <= human48.config_bounds)


class TestValueTypes:
    def test_velocity_stack_roundtrip(self, human66):
        rng = np.random.default_rng(6)
        nu = rng.normal(size=human66.n + 6)
        v = Velocity(nu)
        assert np.array_equal(v.stacked(), nu)
        assert v.nu is nu and v.stacked() is not nu

    @pytest.mark.parametrize("build, error, message", [
        (lambda: Configuration(["1", "2", "3"], np.eye(3), [True, "0.5"]), ik.InvalidSetting,
         "base_pos: expected 3 numbers, got ['1', '2', '3']"),
        (lambda: Configuration(np.zeros(3), np.eye(3), [True, 0.5]), ik.InvalidSetting,
         "s: expected numbers, got [True, 0.5]"),
        (lambda: Configuration([0, 0, None], np.eye(3), [0.5]), ik.InvalidSetting,
         "base_pos: expected 3 numbers, got [0, 0, None]"),
        (lambda: Configuration(np.zeros(2), np.eye(3), [0.5]), ik.InvalidSetting,
         "base_pos: expected 3 numbers, got array([0., 0.])"),
        (lambda: Velocity(["1", 0.5]), ik.InvalidSetting,
         "nu: expected numbers, got ['1', 0.5]"),
        (lambda: Velocity([True, 0.5]), ik.InvalidSetting,
         "nu: expected numbers, got [True, 0.5]"),
        (lambda: Velocity(None), ik.InvalidSetting, "nu: expected numbers, got None"),
        (lambda: Rotation([["1", 0, 0], [0, 1, 0], [0, 0, 1]]), ik.NotARotation,
         "rotation: expected a 3x3 matrix, got [['1', 0, 0], [0, 1, 0], [0, 0, 1]]"),
        (lambda: Rotation([[True, 0, 0], [0, 1, 0], [0, 0, 1]]), ik.NotARotation,
         "rotation: expected a 3x3 matrix, got [[True, 0, 0], [0, 1, 0], [0, 0, 1]]"),
        (lambda: Rotation([[None, 0, 0], [0, 1, 0], [0, 0, 1]]), ik.NotARotation,
         "rotation: expected a 3x3 matrix, got [[None, 0, 0], [0, 1, 0], [0, 0, 1]]"),
        (lambda: Rotation(np.eye(2)), ik.NotARotation,
         "rotation: expected a 3x3 matrix, got array([[1., 0.],\n       [0., 1.]])"),
        (lambda: ik.LeastSquaresQP([["1", 0.0]], [0.0]), ik.InvalidSetting,
         "J: expected numbers, got [['1', 0.0]]"),
        (lambda: ik.LeastSquaresQP(np.eye(2), [True, 0.0]), ik.InvalidSetting,
         "target: expected numbers, got [True, 0.0]"),
        (lambda: ik.LeastSquaresQP(np.eye(2), np.zeros(2), [[None, 0.0]], [0.0]),
         ik.InvalidSetting, "G: expected numbers, got [[None, 0.0]]"),
        (lambda: ik.LeastSquaresQP(np.eye(2), np.zeros(2), np.eye(2), ["1", "2"]),
         ik.InvalidSetting, "g: expected numbers, got ['1', '2']"),
        (lambda: ik.LeastSquaresQP(np.ones(2), np.zeros(2)), ik.InvalidSetting,
         "J must be 2-D with target matching its row count"),
        (lambda: ik.LeastSquaresQP(np.eye(2), np.zeros(3)), ik.InvalidSetting,
         "J must be 2-D with target matching its row count"),
        (lambda: ik.LeastSquaresQP(np.eye(2), np.zeros(2), np.eye(2), np.zeros(3)),
         ik.InvalidSetting, "G and g row counts differ"),
    ], ids=["configuration-strings-booleans", "configuration-s-boolean",
            "configuration-base-pos-none", "configuration-base-pos-two", "velocity-string",
            "velocity-boolean", "velocity-none", "rotation-string", "rotation-boolean",
            "rotation-none", "rotation-2x2", "qp-j-string", "qp-target-boolean", "qp-g-none",
            "qp-g-strings", "qp-j-1d", "qp-target-length", "qp-rows-differ"])
    def test_value_types_take_numbers_by_the_one_rule(self, build, error, message):
        """A configuration, a velocity, a rotation and a QP refuse a string, a
        boolean or a None among their numbers, as a stream does, and numbers
        of the wrong shape, each with a typed error naming the field and the
        value cut to 40 characters; numpy alone would read them as numbers."""
        with pytest.raises(error) as exc:
            build()
        assert str(exc.value) == message

    def test_configuration_validates_rotation(self):
        with pytest.raises(ik.NotARotation):
            Configuration(np.zeros(3), 2.0 * np.eye(3), np.zeros(1))
