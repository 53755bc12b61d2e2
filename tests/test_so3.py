import numpy as np
import pytest

import iktrack as ik
from iktrack import (BaumgarteConfig, Rotation, baumgarte_step, orientation_residual,
                     project_to_so3)
from iktrack._kernels import orthonormality_errors, skew_stack
from iktrack.so3 import project_stack_to_so3
from iktrack.errors import DegenerateMatrix, NotARotation, SingularMatrix

from conftest import baumgarte_integrate, rodrigues


def skew(v):
    """The kernels' skew matrix S(v), with S(v) u = v x u, of one vector."""
    return skew_stack(np.asarray(v, dtype=float)[None])[0]


class TestSkewStack:
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
        for s in skew_stack(rng.normal(size=(20, 3))):
            assert np.array_equal(s.T, -s)


class TestRotationType:
    def test_accepts_valid(self):
        r = Rotation(rodrigues([1, 2, 3], 0.5))
        assert orthonormality_errors(r.m[None])[0] < 1e-12

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
        assert orthonormality_errors(r.m[None])[0] > 0.1


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

    @pytest.mark.parametrize("last, singular", [(1e-13, True), (1e-11, False)])
    def test_singular_threshold(self, last, singular):
        # det(R^T R) <= 1e-24, which is |det R| <= 1e-12
        r = np.diag([1.0, 1.0, last])
        if singular:
            with pytest.raises(SingularMatrix):
                baumgarte_step(r, np.zeros(3), BaumgarteConfig())
        else:
            assert np.isfinite(baumgarte_step(r, np.zeros(3), BaumgarteConfig())).all()

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
            before = orthonormality_errors((c * r)[None])[0]
            after_m = baumgarte_step(Rotation.drifting(c * r), np.zeros(3),
                                     BaumgarteConfig(rho=rho, dt=dt))
            assert orthonormality_errors(after_m[None])[0] < before

    def test_integrate_matches_repeated_steps(self):
        rng = np.random.default_rng(7)
        omegas = rng.normal(scale=0.5, size=(20, 3))
        cfg = BaumgarteConfig(rho=10.0, dt=0.01)
        r = np.eye(3)
        worst = 0.0
        for w in omegas:
            r = baumgarte_step(Rotation.drifting(r), w, cfg)
            worst = max(worst, orthonormality_errors(r[None])[0])
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
            assert orthonormality_errors(out.m[None])[0] <= 1e-12

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateMatrix):
            project_to_so3(np.zeros((3, 3)))

    @pytest.mark.parametrize("reflection", [
        np.diag([1.0, 1.0, -1.0]),
        2.5 * rodrigues([1, 2, 3], 0.5) @ np.diag([1.0, -1.0, 1.0]),
        # finite, with a reflecting polar factor and a determinant that
        # overflows to +inf: the base a tracker without the half-turn guard
        # records on test_cli's huge-target stream
        np.array([[-7.451789651684191e+186, 4.563381386988721e+188, 1.456417512806618e+188],
                  [-1.1327652201049282e+196, -1.5008020222015757e+196, -9.999127788300164e+197],
                  [-2.0207607127873975e+196, 9.997548271408887e+197, -1.4739482341247123e+196]]),
    ], ids=["diag", "scaled", "huge"])
    def test_rejects_reflection(self, reflection):
        with pytest.raises(DegenerateMatrix, match="reflects"):
            project_to_so3(reflection)

    def test_matches_the_stack_projection(self):
        """One matrix and a stack of one give the same bits, or the same
        error and message: general matrices (about half reflect), scaled
        rotations, signed zeros, singular values at and just past 1e-12, and
        NaN or infinite entries."""
        rng = np.random.default_rng(22)
        cases = list(rng.normal(size=(300, 3, 3)))
        cases += [rng.uniform(0.5, 2.0) * rodrigues(rng.normal(size=3), rng.uniform(0.0, 4.0))
                  for _ in range(100)]
        r = rodrigues([1, 2, 3], 0.5)
        signed_zeros = np.array([[1.0, -0.0, 0.0], [0.0, 1.0, -0.0], [-0.0, 0.0, 1.0]])
        cases += [np.zeros((3, 3)), -np.eye(3), signed_zeros, -signed_zeros,
                  np.diag([1.0, 1.0, 1e-12]), np.diag([1.0, 1.0, 1.0000001e-12]),
                  np.diag([1.0, 1.0, -1e-12]), np.outer([1.0, 2.0, 3.0], [0.5, -1.0, 2.0])]
        for value in (np.nan, np.inf, -np.inf):
            for i in range(3):
                for j in range(3):
                    m = r.copy()
                    m[i, j] = value
                    cases.append(m)
        errors = 0
        for m in cases:
            try:
                expected = project_stack_to_so3(m[None])[0]
            except DegenerateMatrix as e:
                errors += 1
                with pytest.raises(DegenerateMatrix) as exc:
                    project_to_so3(m)
                assert str(exc.value) == str(e)
            else:
                out = project_to_so3(m).m
                assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
        # both outcomes are well exercised
        assert 100 < errors < len(cases) - 100

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        # numpy's SVD raises a bare LinAlgError on NaN, and never returns on
        # an infinite entry in the first column
        for i in range(3):
            for j in range(3):
                m = rodrigues([1, 2, 3], 0.5)
                m[i, j] = value
                with pytest.raises(DegenerateMatrix):
                    project_to_so3(m)
