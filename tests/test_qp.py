import hashlib
import itertools

import numpy as np
import pytest

import iktrack as ik
from iktrack.errors import RankDeficient
from iktrack.qp import ActiveSetSolver, LeastSquaresQP, QPStatus

from conftest import hinge_model, solve_unconstrained


def enumerate_active_sets(J, target, G, g, damping):
    """Exhaustive oracle: solve every constraint subset as equalities and keep
    the feasible KKT point with minimal objective."""
    d = J.shape[1]
    k = G.shape[0]
    h = J.T @ J + damping * np.eye(d)
    c = J.T @ target
    best = None
    for size in range(k + 1):
        for subset in itertools.combinations(range(k), size):
            subset = list(subset)
            gs = G[subset]
            if subset:
                kkt = np.block([[h, gs.T], [gs, np.zeros((size, size))]])
                rhs = np.concatenate([c, g[subset]])
            else:
                kkt, rhs = h, c
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x, mu = sol[:d], sol[d:]
            if mu.size and mu.min() < -1e-9:
                continue
            if k and np.max(G @ x - g) > 1e-9:
                continue
            objective = 0.5 * x @ h @ x - c @ x
            if best is None or objective < best[0] - 1e-12:
                best = (objective, x)
    return None if best is None else best[1]


def random_feasible_instance(rng):
    d = int(rng.integers(1, 5))
    rows = int(rng.integers(d, d + 3))
    k = int(rng.integers(0, 4))
    J = rng.normal(size=(rows, d))
    target = rng.normal(size=rows)
    anchor = rng.normal(size=d)
    G = rng.normal(size=(k, d))
    g = G @ anchor + np.abs(rng.normal(size=k))
    return LeastSquaresQP(J, target, G, g, damping=1e-6)


class TestSolveBasics:
    def test_scalar_least_squares(self):
        sol = ActiveSetSolver().solve(LeastSquaresQP(np.array([[1.0]]), np.array([1.0])))
        assert sol.status is QPStatus.SOLVED
        assert np.allclose(sol.x, [1.0])

    def test_clipped_scalar(self):
        prob = LeastSquaresQP(np.array([[1.0]]), np.array([1.0]),
                              np.array([[1.0]]), np.array([0.5]))
        sol = ActiveSetSolver().solve(prob)
        assert np.allclose(sol.x, [0.5])
        assert sol.active_set == (0,)

    def test_halfspace_projection(self):
        # symmetric projection of the unconstrained optimum [1, 1] onto x+y <= 1
        prob = LeastSquaresQP(np.eye(2), np.array([1.0, 1.0]),
                              np.array([[1.0, 1.0]]), np.array([1.0]))
        sol = ActiveSetSolver().solve(prob)
        assert np.allclose(sol.x, [0.5, 0.5], atol=1e-10)

    def test_infeasible_detected(self):
        prob = LeastSquaresQP(np.array([[1.0]]), np.array([0.0]),
                              np.array([[1.0], [-1.0]]), np.array([1.0, -2.0]),
                              damping=1e-6)
        sol = ActiveSetSolver().solve(prob)
        assert sol.status is QPStatus.INFEASIBLE

    def test_feasibility_of_returned_point(self):
        rng = np.random.default_rng(10)
        solver = ActiveSetSolver()
        for _ in range(200):
            prob = random_feasible_instance(rng)
            sol = solver.solve(prob)
            assert sol.status is QPStatus.SOLVED
            if prob.G.shape[0]:
                assert np.max(prob.G @ sol.x - prob.g) <= solver.tol

    def test_kkt_conditions_hold(self):
        rng = np.random.default_rng(11)
        solver = ActiveSetSolver()
        for _ in range(100):
            prob = random_feasible_instance(rng)
            sol = solver.solve(prob)
            h = prob.J.T @ prob.J + prob.damping * np.eye(prob.J.shape[1])
            c = prob.J.T @ prob.target
            k = prob.G.shape[0]
            if k == 0:
                assert np.abs(h @ sol.x - c).max() <= 1e-8
                continue
            # recover multipliers on the reported active rows
            act = list(sol.active_set)
            ga = prob.G[act]
            mu, *_ = np.linalg.lstsq(ga.T, c - h @ sol.x, rcond=None) if act else (np.zeros(0),)
            assert np.abs(h @ sol.x - c + (ga.T @ mu if act else 0.0)).max() <= 1e-6
            if act:
                assert mu.min() >= -1e-6
                # the active set is the final working set, whose rows are independent
                assert np.linalg.matrix_rank(ga) == len(act)


class TestSingularKKT:
    """Two opposite rows active at once make the KKT matrix singular. No
    working set reaches that: a warm start whose rows are dependent is dropped
    and the solve starts cold, and a singular matrix in the loop is
    ``RankDeficient``."""

    def test_dependent_warm_start_starts_cold(self):
        prob = LeastSquaresQP(np.eye(1), np.array([1.0]), np.array([[1.0], [-1.0]]),
                              np.array([0.0, 0.0]), damping=1e-6)
        sol = ActiveSetSolver().solve(prob, warm_start=(0, 1))
        assert sol.status is QPStatus.SOLVED
        assert np.array_equal(sol.x, [0.0])
        assert sol.active_set == (0,)

    @pytest.mark.parametrize("warm_start", [(), (0,)])
    def test_zero_damping_rank_deficient_whatever_the_warm_start(self, warm_start):
        """Without damping J^T J is singular here. Warm-started with the row
        [0, 1] the KKT matrix is not, and the outcome still does not depend on
        the warm start."""
        for row in ([1.0, 0.0], [0.0, 1.0]):
            prob = LeastSquaresQP(np.array([[1.0, 0.0]]), np.array([1.0]), np.array([row]),
                                  np.array([0.5]), damping=0.0)
            with pytest.raises(RankDeficient):
                ActiveSetSolver().solve(prob, warm_start=warm_start)

    def test_a_joint_with_equal_limits_is_held(self):
        """A hinge whose limits are both 0 tracks a moving arm: the joint
        stays at 0, and each step hands on at most one of its two rows."""
        spec = ik.TrajectorySpec(kind="sinusoidal", duration=1.0, dt=0.01, amplitude=0.5,
                                 seed=1)
        _, stream = ik.generate_stream(hinge_model(), spec)
        model = hinge_model(pos_limits=(0.0, 0.0))
        gains = ik.GainConfig.build(model, dt=0.01)
        baumgarte, solver = ik.BaumgarteConfig(dt=0.01), ActiveSetSolver()
        state = ik.SolverState.initial(model, ik.initial_configuration(model, stream[0]))
        assert len(stream) == 100
        for sample in stream:
            state, _ = ik.step(state, sample, model, gains, baumgarte, solver)
            assert np.array_equal(state.q.s, [0.0])
            assert len(state.last_active_set) <= 1


class TestOracleEquivalence:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(12)
        solver = ActiveSetSolver()
        for _ in range(500):
            prob = random_feasible_instance(rng)
            ref = enumerate_active_sets(prob.J, prob.target, prob.G, prob.g, prob.damping)
            sol = solver.solve(prob)
            assert ref is not None
            assert sol.status is QPStatus.SOLVED
            assert np.abs(sol.x - ref).max() <= 1e-6

    def test_warm_start_reaches_same_solution(self):
        rng = np.random.default_rng(13)
        solver = ActiveSetSolver()
        for _ in range(100):
            prob = random_feasible_instance(rng)
            cold = solver.solve(prob)
            warm = solver.solve(prob, warm_start=cold.active_set)
            assert np.abs(cold.x - warm.x).max() <= 1e-9
            assert warm.iterations <= cold.iterations


class TestUnconstrained:
    def test_square_invertible(self):
        rng = np.random.default_rng(14)
        J = rng.normal(size=(3, 3))
        target = rng.normal(size=3)
        assert np.allclose(solve_unconstrained(J, target), np.linalg.solve(J, target))

    def test_mean_fit(self):
        x = solve_unconstrained(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
        assert np.allclose(x, [2.0])

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficient):
            solve_unconstrained(np.array([[1.0, 1.0]]), np.array([1.0]), damping=0.0)

    def test_matches_solve_on_empty_constraints(self):
        rng = np.random.default_rng(15)
        solver = ActiveSetSolver()
        for _ in range(100):
            d = int(rng.integers(1, 6))
            J = rng.normal(size=(d + int(rng.integers(0, 3)), d))
            target = rng.normal(size=J.shape[0])
            a = solver.solve(LeastSquaresQP(J, target, damping=1e-6)).x
            b = solve_unconstrained(J, target, damping=1e-6)
            assert np.abs(a - b).max() <= 1e-8


class TestProperties:
    def test_monotone_damping(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            J = rng.normal(size=(d + 2, d))
            target = rng.normal(size=d + 2)
            fits = []
            for lam in (1e-8, 1e-4, 1e-1, 1.0):
                x = solve_unconstrained(J, target, damping=lam)
                fits.append(np.linalg.norm(J @ x - target))
            assert all(fits[i + 1] >= fits[i] - 1e-12 for i in range(len(fits) - 1))

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(17)
        solver = ActiveSetSolver()
        for _ in range(20):
            prob = random_feasible_instance(rng)
            a = solver.solve(prob, warm_start=(0,))
            b = solver.solve(prob, warm_start=(0,))
            assert np.array_equal(a.x, b.x)
            assert a.active_set == b.active_set
            assert a.iterations == b.iterations


def normal_equation_solution(J, target, damping):
    """The damped normal-equation solution, formed as the active-set loop
    formed it for a problem without rows."""
    d = J.shape[1]
    h = J.T @ J
    if damping > 0.0:
        h = h + damping * np.eye(d)
    return np.linalg.solve(h, J.T @ target)


def objective(prob, x):
    """0.5 ||J x - target||^2 + 0.5 damping ||x||^2, as the solver once
    reported it with each solution."""
    resid = prob.J @ x - prob.target
    return 0.5 * float(resid @ resid) + 0.5 * prob.damping * float(x @ x)


def rowless_problems(rng, count):
    for _ in range(count):
        d = int(rng.integers(1, 12))
        J = rng.normal(size=(d + int(rng.integers(0, 5)), d))
        target = rng.normal(size=J.shape[0])
        for damping in (0.0, 1e-6, 0.3):
            if rng.random() < 0.5:
                yield LeastSquaresQP(J, target, damping=damping)
            else:
                yield LeastSquaresQP(J, target, np.zeros((0, d)), np.zeros(0), damping=damping)


# sha256 prefix of x, the objective at x, active set, iterations and status over the
# rowless problems of seed 5, each solved cold and with three stale warm
# starts, recorded with the active-set loop that handled k == 0 before the
# direct path (numpy 2.4, x86-64)
PINNED_ROWLESS = "8ad9883428760729"
STALE_WARM_STARTS = ((), (0,), (3, 1, 7), (-1,))


class TestRowlessFastPath:
    def test_matches_normal_equations(self):
        solver = ActiveSetSolver()
        for prob in rowless_problems(np.random.default_rng(18), 60):
            x = normal_equation_solution(prob.J, prob.target, prob.damping)
            for warm in STALE_WARM_STARTS:
                sol = solver.solve(prob, warm_start=warm)
                assert np.array_equal(sol.x, x)
                assert sol.active_set == ()
                assert sol.iterations == 1
                assert sol.status is QPStatus.SOLVED

    def test_outputs_are_pinned(self):
        solver = ActiveSetSolver()
        digest = hashlib.sha256()
        for prob in rowless_problems(np.random.default_rng(5), 100):
            for warm in STALE_WARM_STARTS:
                sol = solver.solve(prob, warm_start=warm)
                digest.update(sol.x.tobytes())
                digest.update(repr((objective(prob, sol.x), sol.active_set, sol.iterations,
                                    sol.status.value)).encode())
        assert digest.hexdigest()[:16] == PINNED_ROWLESS
