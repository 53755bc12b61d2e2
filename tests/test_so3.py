import numpy as np
import pytest

import iktrack as ik
from iktrack import (BaumgarteConfig, Rotation, baumgarte_integrate, baumgarte_step,
                     orientation_residual, project_to_so3, skew, skew_part, vee)
from iktrack.errors import DegenerateMatrix, NotARotation, NotSkewSymmetric, SingularMatrix

from conftest import rodrigues


class TestSkewVee:
    def test_skew_zero(self):
        assert np.array_equal(skew([0, 0, 0]), np.zeros((3, 3)))

    def test_skew_z_basis(self):
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        assert np.array_equal(skew([0, 0, 1]), expected)

    def test_skew_matches_cross_product(self):
        v = np.array([1.0, 2.0, 3.0])
        u = np.array([4.0, 5.0, 6.0])
        assert np.allclose(skew(v) @ u, [-3.0, 6.0, -3.0])
        assert np.allclose(skew(v) @ u, np.cross(v, u))

    def test_skew_antisymmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = skew(rng.normal(size=3))
            assert np.array_equal(s.T, -s)

    def test_vee_zero(self):
        assert np.array_equal(vee(np.zeros((3, 3))), np.zeros(3))

    def test_vee_skew_roundtrip(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.normal(size=3)
            assert np.array_equal(vee(skew(v)), v)

    def test_skew_vee_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = skew(rng.normal(size=3))
            assert np.array_equal(skew(vee(a)), a)

    def test_vee_reads_off_diagonal(self):
        a = np.array([[0, -5, 2], [5, 0, -1], [-2, 1, 0]], dtype=float)
        assert np.array_equal(vee(a), [1.0, 2.0, 5.0])

    def test_vee_rejects_non_skew(self):
        with pytest.raises(NotSkewSymmetric):
            vee(np.eye(3))


class TestSkewPart:
    def test_identity_maps_to_zero(self):
        assert np.array_equal(skew_part(np.eye(3)), np.zeros((3, 3)))

    def test_symmetric_maps_to_zero(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3))
        assert np.allclose(skew_part(a + a.T), 0.0)

    def test_rotation_about_z(self):
        theta = 0.7
        rz = rodrigues([0, 0, 1], theta)
        assert np.allclose(skew_part(rz), skew([0, 0, np.sin(theta)]))

    def test_exact_definition(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 3))
        assert np.array_equal(skew_part(a), 0.5 * (a - a.T))


class TestRotationType:
    def test_accepts_valid(self):
        r = Rotation(rodrigues([1, 2, 3], 0.5))
        assert r.orthonormality_error() < 1e-12

    def test_rejects_scaled(self):
        with pytest.raises(NotARotation):
            Rotation(1.1 * np.eye(3))

    def test_rejects_reflection(self):
        with pytest.raises(NotARotation):
            Rotation(np.diag([1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejects_non_finite(self, value):
        one_entry = np.eye(3)
        one_entry[0, 0] = value
        for m in (np.full((3, 3), value), one_entry):
            with pytest.raises(NotARotation):
                Rotation(m)
            with pytest.raises(NotARotation):
                ik.Configuration(np.zeros(3), m, np.zeros(2))

    def test_drifting_skips_check(self):
        r = Rotation.drifting(1.1 * np.eye(3))
        assert r.orthonormality_error() > 0.1


class TestOrientationResidual:
    def test_identical_frames(self):
        r = Rotation(rodrigues([0.3, -1.0, 0.2], 1.1))
        assert np.array_equal(orientation_residual(r, r), np.zeros(3))

    def test_quarter_turn_about_z(self):
        res = orientation_residual(Rotation.identity(), Rotation.about_axis([0, 0, 1], np.pi / 2))
        assert np.allclose(res, [0.0, 0.0, 1.0], atol=1e-12)

    def test_antipodal_degeneracy(self):
        # maximal error with zero residual: the excluded set of the
        # almost-global convergence statement
        res = orientation_residual(Rotation.identity(), Rotation.about_axis([0, 0, 1], np.pi))
        assert np.allclose(res, 0.0, atol=1e-12)

    def test_sin_axis_form(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            theta = rng.uniform(-np.pi + 1e-6, np.pi - 1e-6)
            res = orientation_residual(Rotation.identity(), Rotation.drifting(rodrigues(n, theta)))
            assert np.allclose(res, np.sin(theta) * n, atol=1e-12)


class TestBaumgarte:
    def test_identity_zero_velocity_is_fixed_point(self):
        cfg = BaumgarteConfig(rho=5.0, dt=0.05)
        out = baumgarte_step(Rotation.identity(), np.zeros(3), cfg)
        assert np.array_equal(out, np.eye(3))

    def test_scaled_identity_pulled_back(self):
        # (R^T R)^-1 - I for R = 1.1 I gives (1/1.21 - 1) I
        cfg = BaumgarteConfig(rho=2.0, dt=0.1)
        out = baumgarte_step(Rotation.drifting(1.1 * np.eye(3)), np.zeros(3), cfg)
        corr = (1.0 / 1.21 - 1.0)
        expected = 1.1 * np.eye(3) + 0.1 * 1.1 * corr * np.eye(3)
        assert np.allclose(out, expected, atol=1e-14)
        assert abs(out[0, 0] - 1.0) < abs(1.1 - 1.0)

    def test_pure_spin_step(self):
        cfg = BaumgarteConfig(rho=3.0, dt=0.01)
        out = baumgarte_step(Rotation.identity(), np.array([0.0, 0.0, 1.0]), cfg)
        assert np.allclose(out, np.eye(3) + 0.01 * skew([0, 0, 1]), atol=1e-15)

    def test_rejects_singular(self):
        with pytest.raises(SingularMatrix):
            baumgarte_step(np.zeros((3, 3)), np.zeros(3), BaumgarteConfig())

    def test_rejects_nonfinite_omega(self):
        with pytest.raises(ValueError):
            baumgarte_step(Rotation.identity(), [np.nan, 0, 0], BaumgarteConfig())

    def test_contraction_of_scaled_rotations(self):
        # one step strictly decreases the orthonormality error for scaled
        # rotations across the whole contraction region
        rng = np.random.default_rng(6)
        for _ in range(50):
            r = rodrigues(rng.normal(size=3), rng.uniform(0, np.pi))
            c = rng.uniform(0.5, 2.0)
            rho = rng.uniform(0.5, 10.0)
            dt = min(0.5 / rho, 0.05)
            before = ik.orthonormality_error(c * r)
            after_m = baumgarte_step(Rotation.drifting(c * r), np.zeros(3),
                                     BaumgarteConfig(rho=rho, dt=dt))
            assert ik.orthonormality_error(after_m) < before

    def test_integrate_matches_repeated_steps(self):
        rng = np.random.default_rng(7)
        omegas = rng.normal(scale=0.5, size=(20, 3))
        cfg = BaumgarteConfig(rho=10.0, dt=0.01)
        r = np.eye(3)
        worst = 0.0
        for w in omegas:
            r = baumgarte_step(Rotation.drifting(r), w, cfg)
            worst = max(worst, ik.orthonormality_error(r))
        final, max_err = baumgarte_integrate(np.eye(3), omegas, cfg)
        assert np.allclose(final, r, atol=1e-15)
        assert abs(max_err - worst) < 1e-12

    def test_integrate_rejects_non_finite_omega(self):
        omegas = np.array([[np.nan, 0.0, 0.0], [0.1, 0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            baumgarte_integrate(np.eye(3), omegas, BaumgarteConfig(rho=10.0, dt=0.01))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BaumgarteConfig(rho=0.0)
        with pytest.raises(ValueError):
            BaumgarteConfig(dt=-0.01)


class TestProjectToSO3:
    def test_idempotent_on_rotations(self):
        r = rodrigues([1, 0.5, -0.3], 0.9)
        assert np.allclose(project_to_so3(r).m, r, atol=1e-12)

    def test_removes_positive_scaling(self):
        r = rodrigues([0.2, 1.0, 0.4], 1.7)
        assert np.allclose(project_to_so3(1.1 * r).m, r, atol=1e-12)

    def test_output_orthonormal(self):
        rng = np.random.default_rng(8)
        count = 0
        while count < 50:
            a = rng.normal(size=(3, 3))
            if np.linalg.det(a) <= 1e-6:
                continue
            count += 1
            out = project_to_so3(a)
            assert out.orthonormality_error() <= 1e-12

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateMatrix):
            project_to_so3(np.zeros((3, 3)))
