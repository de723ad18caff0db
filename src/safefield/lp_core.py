"""Standard-form linear programs: the container and a HiGHS solver with dual
extraction and solution validation."""

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import DimensionMismatch, NumericalFailure

FEAS_TOL = 1e-7
COMPL_TOL = 1e-6


def _as_matrix(M, n_vars):
    if M is None:
        return sp.csr_matrix((0, n_vars))
    if sp.issparse(M):
        return M.tocsr()
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return sp.csr_matrix(M)


class StandardLp:
    """min or max c^T x subject to A_ub x <= b_ub, A_eq x = b_eq,
    lb <= x <= ub. Matrices may be dense or scipy.sparse."""

    def __init__(self, sense, c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
                 lb=None, ub=None):
        if sense not in ("min", "max"):
            raise DimensionMismatch("sense must be 'min' or 'max'")
        self.sense = sense
        self.c = np.asarray(c, dtype=float).ravel()
        n = self.c.shape[0]
        self.A_ub = _as_matrix(A_ub, n)
        self.b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
        self.A_eq = _as_matrix(A_eq, n)
        self.b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
        self.lb = np.full(n, -np.inf) if lb is None else np.asarray(lb, dtype=float).ravel()
        self.ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float).ravel()
        if self.A_ub.shape != (self.b_ub.shape[0], n):
            raise DimensionMismatch("inequality block shape mismatch")
        if self.A_eq.shape != (self.b_eq.shape[0], n):
            raise DimensionMismatch("equality block shape mismatch")
        if self.lb.shape[0] != n or self.ub.shape[0] != n:
            raise DimensionMismatch("bound length mismatch")

    @property
    def n_vars(self):
        return self.c.shape[0]


class LpSolution:
    """status is Optimal, Infeasible or Unbounded.

    duals_ub and duals_eq equal d(objective)/d(rhs) for a max problem and
    the negation of that for a min problem, so duals_ub >= 0 in both senses.
    For a max problem, objective = b_ub.duals_ub + b_eq.duals_eq + bound
    terms (strong duality).
    """

    def __init__(self, status, x, objective, duals_ub, duals_eq):
        self.status = status
        self.x = x
        self.objective = objective
        self.duals_ub = duals_ub
        self.duals_eq = duals_eq


def _validate(lp, x, duals_ub):
    scale = 1.0 + max(
        float(np.max(np.abs(lp.b_ub))) if lp.b_ub.size else 0.0,
        float(np.max(np.abs(lp.b_eq))) if lp.b_eq.size else 0.0,
        float(np.max(np.abs(x))),
    )
    feas = 0.0
    if lp.b_ub.size:
        feas = max(feas, float(np.max(lp.A_ub @ x - lp.b_ub)))
    if lp.b_eq.size:
        feas = max(feas, float(np.max(np.abs(lp.A_eq @ x - lp.b_eq))))
    lo = np.where(np.isfinite(lp.lb), lp.lb - x, 0.0)
    hi = np.where(np.isfinite(lp.ub), x - lp.ub, 0.0)
    feas = max(feas, float(np.max(lo, initial=0.0)), float(np.max(hi, initial=0.0)))
    if feas > FEAS_TOL * scale:
        raise NumericalFailure("primal feasibility residual %.3g exceeds tolerance" % feas)
    if lp.b_ub.size:
        slack = lp.b_ub - lp.A_ub @ x
        compl = float(np.max(np.abs(duals_ub * slack)))
        dual_scale = 1.0 + float(np.max(np.abs(duals_ub)))
        if compl > COMPL_TOL * scale * dual_scale:
            raise NumericalFailure("complementary slackness residual %.3g" % compl)


def solve_lp(lp):
    """Solve with the HiGHS backend; deterministic for fixed inputs."""
    c = lp.c if lp.sense == "min" else -lp.c
    res = linprog(
        c,
        A_ub=lp.A_ub if lp.b_ub.size else None,
        b_ub=lp.b_ub if lp.b_ub.size else None,
        A_eq=lp.A_eq if lp.b_eq.size else None,
        b_eq=lp.b_eq if lp.b_eq.size else None,
        bounds=np.column_stack([lp.lb, lp.ub]),
        method="highs",
    )
    if res.status == 2:
        return LpSolution("Infeasible", None, None, None, None)
    if res.status == 3:
        return LpSolution("Unbounded", None, None, None, None)
    if res.status != 0:
        raise NumericalFailure("solver stopped with status %d: %s" % (res.status, res.message))
    sign = 1.0 if lp.sense == "min" else -1.0
    x = np.asarray(res.x, dtype=float)
    duals_ub = -np.asarray(res.ineqlin.marginals) if lp.b_ub.size else np.zeros(0)
    duals_eq = -np.asarray(res.eqlin.marginals) if lp.b_eq.size else np.zeros(0)
    _validate(lp, x, duals_ub)
    return LpSolution("Optimal", x, sign * float(res.fun), duals_ub, duals_eq)

