import json

import numpy as np
import pytest

import iktrack as ik
from iktrack import Configuration, Joint, KinematicModel, Link, Rotation, Velocity
from iktrack.errors import ParseError, UnknownFrame, ValidationError

from conftest import base_only_model, branched_model, rodrigues, single_joint_model


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


def random_configuration(model, rng, angle, scale):
    return Configuration(rng.normal(size=3), Rotation.about_axis(rng.normal(size=3), angle),
                         rng.normal(scale=scale, size=model.n))


class TestForwardKinematics:
    def test_base_frame_is_identity_map(self, human66):
        rng = np.random.default_rng(0)
        q = Configuration(rng.normal(size=3), Rotation.about_axis(rng.normal(size=3), 0.8),
                          rng.normal(scale=0.4, size=human66.n))
        pos, rot = human66.forward_kinematics(q, "pelvis")
        assert np.array_equal(pos, q.base_pos)
        assert np.array_equal(rot.m, q.base_rot.m)

    def test_single_joint_zero_angle(self):
        m = single_joint_model(offset=(1.0, 0.0, 0.0))
        q = Configuration.zeros(m)
        pos, rot = m.forward_kinematics(q, "link1")
        assert np.allclose(pos, [1.0, 0.0, 0.0])
        assert np.allclose(rot.m, np.eye(3))

    def test_single_joint_quarter_turn(self):
        # child origin rides on the joint; a frame one link beyond it swings
        m = single_joint_model()
        q = Configuration(np.zeros(3), Rotation.identity(), np.array([np.pi / 2, 0.0]))
        joint_pos, joint_rot = m.forward_kinematics(q, "link1")
        assert np.allclose(joint_pos, [0.0, 0.0, 0.0], atol=1e-15)
        tip_pos, tip_rot = m.forward_kinematics(q, "tip")
        assert np.allclose(tip_pos, [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(tip_rot.m, rodrigues([0, 0, 1], np.pi / 2), atol=1e-12)

    def test_unknown_frame(self, human66):
        with pytest.raises(UnknownFrame):
            human66.forward_kinematics(Configuration.zeros(human66), "nope")

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

            for link in model.links:
                pos, rot = model.forward_kinematics(q, link.name)
                p_ref, r_ref = naive(link.name)
                assert np.allclose(pos, p_ref, atol=1e-12), (model.n, link.name)
                assert np.allclose(rot.m, r_ref, atol=1e-12), (model.n, link.name)


class TestJacobian:
    def test_base_frame_pattern(self, human66):
        q = Configuration.zeros(human66)
        jac = human66.jacobian(q, "pelvis")
        assert jac.shape == (6, human66.n + 6)
        assert np.array_equal(jac[:3, :3], np.eye(3))
        assert np.array_equal(jac[3:, 3:6], np.eye(3))
        assert np.array_equal(jac[:, 6:], np.zeros((6, human66.n)))

    def test_single_joint_column(self):
        m = single_joint_model()
        q = Configuration.zeros(m)
        jac = m.jacobian(q, "tip")
        assert np.allclose(jac[:3, 6], [0.0, 1.0, 0.0])
        assert np.allclose(jac[3:, 6], [0.0, 0.0, 1.0])

    def test_matches_finite_differences(self, human66, human48):
        rng = np.random.default_rng(2)
        for model in (human66, human48, branched_model()):
            q = random_configuration(model, rng, 0.9, 0.5)
            fd = fd_link_jacobians(model, q)
            for i, link in enumerate(model.links):
                err = np.abs(model.jacobian(q, link.name) - fd[i]).max()
                assert err <= 1e-5, (model.n, link.name, err)
            jac = model.stacked_jacobian(q)
            assert np.abs(jac - fd_stacked_jacobian(model, q)).max() <= 1e-5, model.n

    def test_velocity_prediction(self, human66):
        # FK of a perturbed configuration moves by delta * J nu up to O(delta^2)
        rng = np.random.default_rng(3)
        q = Configuration(rng.normal(size=3), Rotation.about_axis(rng.normal(size=3), 0.5),
                          rng.normal(scale=0.3, size=human66.n))
        nu = rng.normal(size=human66.n + 6)
        delta = 1e-5
        p0, _ = human66.stacked_forward_kinematics(q)
        p1, _ = human66.stacked_forward_kinematics(perturbed(q, nu, delta))
        predicted = delta * (human66.stacked_jacobian(q) @ nu)[:3 * human66.n_p]
        assert np.allclose((p1 - p0).ravel(), predicted, atol=1e-9)


class TestStackedOperations:
    def test_base_only(self):
        m = base_only_model()
        q = Configuration(np.array([1.0, 2.0, 3.0]), Rotation.identity(), np.zeros(0))
        stacked = m.stacked_forward_kinematics(q)
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
        a = human66.stacked_forward_kinematics(q)
        b = permuted.stacked_forward_kinematics(q)
        assert np.array_equal(a.rotations, b.rotations[::-1])

    def test_blocks_match_per_frame_calls(self, human66, human48):
        rng = np.random.default_rng(5)
        for model in (human66, human48):
            q = Configuration(rng.normal(size=3), Rotation.about_axis([0, 1, 0], 0.3),
                              rng.normal(scale=0.4, size=model.n))
            stacked = model.stacked_forward_kinematics(q)
            jac = model.stacked_jacobian(q)
            for i, frame in enumerate(model.position_target_frames):
                pos, _ = model.forward_kinematics(q, frame)
                assert np.array_equal(stacked.positions[i], pos)
                assert np.array_equal(jac[3 * i:3 * i + 3], model.jacobian(q, frame)[:3])
            for i, frame in enumerate(model.orientation_target_frames):
                pos, rot = model.forward_kinematics(q, frame)
                assert np.array_equal(stacked.rotations[i], rot.m)
                rows = slice(3 * model.n_p + 3 * i, 3 * model.n_p + 3 * i + 3)
                assert np.array_equal(jac[rows], model.jacobian(q, frame)[3:])


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
        model their arrays give; an entry that is not a number is rejected by
        field name."""
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
        bad_row = [["x"] + row[1:] for row in ec.a.tolist()]
        for field, value in (("a", bad_row), ("b_q", np.array(["x"])), ("b_nu", [[1.0], []])):
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
        text = ik.serialize_model(human48)
        again = ik.load_model(text)
        assert ik.serialize_model(again) == text
        assert np.array_equal(again.constraint_matrix, human48.constraint_matrix)
        assert np.array_equal(again.config_bounds, human48.config_bounds)
        assert np.array_equal(again.vel_bounds, human48.vel_bounds)

    def test_unbounded_encoding(self):
        doc = {"base_link": "b", "links": [{"name": "b"}, {"name": "x"}],
               "joints": [{"name": "j", "parent": "b", "child": "x", "axis": [0, 0, 1],
                           "origin": {"xyz": [0, 0, 0], "rpy": [0, 0, 0]}}],
               "constraints": {"A": [[1.0]], "b_q": [0.5], "b_nu": ["unbounded"]}}
        m = ik.load_model(json.dumps(doc))
        assert np.isinf(m.vel_bounds[0])
        again = ik.load_model(ik.serialize_model(m))
        assert np.isinf(again.vel_bounds[0])


class TestGeneratedChains:
    def test_structure_counts_66(self, human66):
        assert human66.n == 66
        assert len(human66.physical_links()) == 23
        assert human66.n_o == 23
        assert human66.n_p == 1
        assert len(human66.links) == 67

    def test_structure_counts_48(self, human48):
        assert human48.n == 48
        assert len(human48.physical_links()) == 23
        assert all(j.pos_limits is not None for j in human48.joints)
        assert all(j.vel_limit is not None for j in human48.joints)

    def test_deterministic_in_seed(self):
        a = ik.serialize_model(ik.generate_human_chain(66, seed=3))
        b = ik.serialize_model(ik.generate_human_chain(66, seed=3))
        c = ik.serialize_model(ik.generate_human_chain(66, seed=4))
        assert a == b
        assert a != c

    def test_shared_geometry_across_variants(self, human66, human48):
        # same seed gives the same segment offsets, so streams generated from
        # one variant are meaningful targets for the other
        q66 = Configuration.zeros(human66)
        q48 = Configuration.zeros(human48)
        for frame in human66.physical_links():
            p66, _ = human66.forward_kinematics(q66, frame)
            p48, _ = human48.forward_kinematics(q48, frame)
            assert np.array_equal(p66, p48)

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
        v = Velocity.from_stacked(nu)
        assert np.array_equal(v.stacked(), nu)

    def test_configuration_validates_rotation(self):
        with pytest.raises(ik.NotARotation):
            Configuration(np.zeros(3), 2.0 * np.eye(3), np.zeros(1))
