"""Dense convex QP for linearly-inequality-constrained least squares:

    minimize 1/2 ||target - J x||^2 + 1/2 damping ||x||^2
    subject to G x <= g

solved with a dual active-set method over the damped normal equations: start
at the unconstrained minimum, add the most violated constraint with step-length
control, dropping working constraints whose multipliers would turn negative.
Problems here are small and dense; the tracking loop warm-starts each solve
from the previous step's active set, so set changes per call are rare.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import RankDeficient, check_setting


class QPStatus(Enum):
    SOLVED = "solved"
    MAX_ITERATIONS = "max_iterations"
    INFEASIBLE = "infeasible"


@dataclass(eq=False)
class LeastSquaresQP:
    """Problem data; ``damping`` makes the Hessian positive definite when the
    fit term alone is rank-deficient."""

    J: np.ndarray
    target: np.ndarray
    G: np.ndarray | None = None
    g: np.ndarray | None = None
    damping: float = 0.0

    def __post_init__(self):
        self.J = np.asarray(self.J, dtype=float)
        self.target = np.asarray(self.target, dtype=float)
        if self.J.ndim != 2 or self.target.shape != (self.J.shape[0],):
            raise ValueError("J must be 2-D with target matching its row count")
        if self.G is None:
            self.G = np.zeros((0, self.J.shape[1]))
            self.g = np.zeros(0)
        else:
            self.G = np.asarray(self.G, dtype=float).reshape(-1, self.J.shape[1])
            self.g = np.asarray(self.g, dtype=float).reshape(-1)
            if self.g.shape[0] != self.G.shape[0]:
                raise ValueError("G and g row counts differ")
        check_setting("damping", self.damping, zero_ok=True)


@dataclass(eq=False)
class QPSolution:
    x: np.ndarray
    objective: float
    active_set: tuple[int, ...]
    iterations: int
    status: QPStatus


def solve_unconstrained(J, target, damping: float = 0.0) -> np.ndarray:
    """x = (J^T J + damping I)^-1 J^T target via a least-squares factorization
    of the damping-augmented system."""
    check_setting("damping", damping, zero_ok=True)
    J = np.asarray(J, dtype=float)
    target = np.asarray(target, dtype=float)
    d = J.shape[1]
    if damping > 0.0:
        aug = np.vstack([J, np.sqrt(damping) * np.eye(d)])
        rhs = np.concatenate([target, np.zeros(d)])
        x, _, _, _ = np.linalg.lstsq(aug, rhs, rcond=None)
        return x
    x, _, rank, _ = np.linalg.lstsq(J, target, rcond=None)
    if rank < d:
        raise RankDeficient(f"rank {rank} < {d} with zero damping")
    return x


def _kkt_solve(h, mat, rhs_top, rhs_bot):
    """Solve [h mat^T; mat 0] [x; y] = [rhs_top; rhs_bot]."""
    d = h.shape[0]
    m = mat.shape[0]
    if m == 0:
        return np.linalg.solve(h, rhs_top), np.zeros(0)
    kkt = np.zeros((d + m, d + m))
    kkt[:d, :d] = h
    kkt[:d, d:] = mat.T
    kkt[d:, :d] = mat
    rhs = np.concatenate([rhs_top, rhs_bot])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol, _, _, _ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:d], sol[d:]


class ActiveSetSolver:
    """Dual active-set solver with feasibility and multiplier tolerance
    ``tol`` and an iteration cap of 10 (d + k) for d unknowns and k rows.
    ``damping`` is the Hessian damping its callers put into their problems."""

    tol = 1e-8
    damping = 1e-6

    def __init__(self, damping: float = damping):
        check_setting("damping", damping, zero_ok=True)
        self.damping = damping

    def solve(self, prob: LeastSquaresQP, warm_start=()) -> QPSolution:
        J, target, G, g = prob.J, prob.target, prob.G, prob.g
        d = J.shape[1]
        h = J.T @ J
        if prob.damping > 0.0:
            h.flat[::d + 1] += prob.damping
        c = J.T @ target
        if G.shape[0] == 0:
            # no rows: the damped normal-equation solution is the optimum, and
            # a warm start has nothing to keep
            x = np.linalg.solve(h, c)
            active, iterations, status = (), 1, QPStatus.SOLVED
        else:
            x, active, iterations, status = self._active_set(h, c, G, g, warm_start)
        resid = J @ x - target
        objective = 0.5 * float(resid @ resid) + 0.5 * prob.damping * float(x @ x)
        return QPSolution(x=x, objective=objective, active_set=active,
                          iterations=iterations, status=status)

    def _active_set(self, h, c, G, g, warm_start):
        """Dual active-set iterations for k >= 1 rows from the unconstrained
        minimum h^-1 c; returns x, the active rows, the iteration count and
        the status."""
        d = h.shape[0]
        k = G.shape[0]
        tol = self.tol
        max_iter = 10 * (d + k)
        work: list[int] = []
        mu: list[float] = []
        # warm start: keep the previous active set where its multipliers stay
        # dual-feasible, otherwise shed rows until they do
        start = sorted({int(i) for i in warm_start if 0 <= int(i) < k})
        if start:
            while start:
                x, lam = _kkt_solve(h, G[start], c, g[start])
                if lam.size and lam.min() < -tol:
                    start.pop(int(np.argmin(lam)))
                else:
                    break
            work = start
            mu = [float(v) for v in lam] if work else []
            if not work:
                x = np.linalg.solve(h, c)
        else:
            x = np.linalg.solve(h, c)
        iterations = 0
        status = QPStatus.MAX_ITERATIONS
        while iterations < max_iter:
            iterations += 1
            viol = G @ x - g
            p = int(np.argmax(viol))
            if viol[p] <= tol:
                status = QPStatus.SOLVED
                break
            mu_p = 0.0
            infeasible = False
            while iterations < max_iter:
                gw = G[work] if work else np.zeros((0, d))
                z, rho = _kkt_solve(h, gw, -G[p], np.zeros(len(work)))
                dp = float(G[p] @ z)
                t_full = -float(G[p] @ x - g[p]) / dp if dp < -tol else np.inf
                t_dual = np.inf
                blocker = -1
                for idx in range(len(work)):
                    if rho[idx] < -tol:
                        cand = mu[idx] / -rho[idx]
                        if cand < t_dual:
                            t_dual = cand
                            blocker = idx
                if not np.isfinite(t_full) and not np.isfinite(t_dual):
                    infeasible = True
                    break
                t = min(t_full, t_dual)
                x = x + t * z
                for idx in range(len(work)):
                    mu[idx] += t * rho[idx]
                mu_p += t
                if t_full <= t_dual:
                    insert = int(np.searchsorted(np.asarray(work, dtype=int), p))
                    work.insert(insert, p)
                    mu.insert(insert, mu_p)
                    break
                work.pop(blocker)
                mu.pop(blocker)
                iterations += 1
            if infeasible:
                status = QPStatus.INFEASIBLE
                break
        if status is QPStatus.SOLVED and float(np.max(G @ x - g)) > tol:
            status = QPStatus.MAX_ITERATIONS
        active = tuple(np.flatnonzero(g - G @ x <= 10.0 * tol).tolist())
        return x, active, iterations, status
