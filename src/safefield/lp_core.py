"""Standard-form linear programs: the container and a HiGHS solver with dual
extraction and solution validation.

An LP may mark some inequality rows lazy: rows of which few bind at the
optimum, as in a discretized semi-infinite program. solve_lp then solves it
by row generation (Hettich & Kortanek, SIAM Review 35(3), 1993): HiGHS sees
the other rows and a fixed seed of the lazy ones, and each round adds the
lazy rows that its optimum violates most, until it violates none by more
than LAZY_TOL of the residual scale. That optimum is feasible for the whole
LP and optimal for a relaxation of it, so it is optimal for the whole LP;
rows never added get dual 0."""

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import DimensionMismatch, NumericalFailure

FEAS_TOL = 1e-7
COMPL_TOL = 1e-6
LAZY_TOL = 1e-9
LAZY_SEED_STRIDE = 25
LAZY_ROUND = 64


def _as_matrix(M, n_vars):
    if M is None:
        return sp.csr_matrix((0, n_vars))
    if sp.issparse(M):
        return M.tocsr()
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return sp.csr_matrix(M)


class StandardLp:
    """min or max c^T x subject to A_ub x <= b_ub, A_eq x = b_eq,
    lb <= x <= ub. Matrices may be dense or scipy.sparse. lazy, when given,
    is a boolean mask over the inequality rows that solve_lp may leave out
    of HiGHS until the optimum violates them."""

    def __init__(self, sense, c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
                 lb=None, ub=None, lazy=None):
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
        self.lazy = None if lazy is None else np.asarray(lazy, dtype=bool).ravel()
        if self.lazy is not None and self.lazy.shape != self.b_ub.shape:
            raise DimensionMismatch("lazy mask length mismatch")

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


def _scale(lp, x):
    """The magnitude that the residuals at x are measured against."""
    return 1.0 + max(
        float(np.max(np.abs(lp.b_ub))) if lp.b_ub.size else 0.0,
        float(np.max(np.abs(lp.b_eq))) if lp.b_eq.size else 0.0,
        float(np.max(np.abs(x))),
    )


def _validate(lp, x, duals_ub):
    scale = _scale(lp, x)
    r = lp.A_ub @ x - lp.b_ub  # the slack is -r, bit for bit
    feas = 0.0
    if lp.b_ub.size:
        feas = max(feas, float(np.max(r)))
    if lp.b_eq.size:
        feas = max(feas, float(np.max(np.abs(lp.A_eq @ x - lp.b_eq))))
    lo = np.where(np.isfinite(lp.lb), lp.lb - x, 0.0)
    hi = np.where(np.isfinite(lp.ub), x - lp.ub, 0.0)
    feas = max(feas, float(np.max(lo, initial=0.0)), float(np.max(hi, initial=0.0)))
    if feas > FEAS_TOL * scale:
        raise NumericalFailure("primal feasibility residual %.3g exceeds tolerance" % feas)
    if lp.b_ub.size:
        compl = float(np.max(np.abs(duals_ub * -r)))
        dual_scale = 1.0 + float(np.max(np.abs(duals_ub)))
        if compl > COMPL_TOL * scale * dual_scale:
            raise NumericalFailure("complementary slackness residual %.3g" % compl)


def _highs(lp, rows):
    """HiGHS on lp restricted to the inequality rows in the mask rows."""
    c = lp.c if lp.sense == "min" else -lp.c
    A_ub = lp.A_ub if rows.all() else lp.A_ub[rows]
    return linprog(
        c,
        A_ub=A_ub if A_ub.shape[0] else None,
        b_ub=lp.b_ub[rows] if A_ub.shape[0] else None,
        A_eq=lp.A_eq if lp.b_eq.size else None,
        b_eq=lp.b_eq if lp.b_eq.size else None,
        bounds=np.column_stack([lp.lb, lp.ub]),
        method="highs",
    )


def _initial_rows(lp):
    """The rows HiGHS sees first: every row that is not lazy, and every
    LAZY_SEED_STRIDE-th lazy row."""
    if lp.lazy is None:
        return np.ones(lp.b_ub.shape, dtype=bool)
    rows = ~lp.lazy
    rows[np.flatnonzero(lp.lazy)[::LAZY_SEED_STRIDE]] = True
    return rows


def solve_lp(lp):
    """Solve with the HiGHS backend; deterministic for fixed inputs. An LP
    with lazy rows is solved by row generation (see the module docstring);
    the x returned is validated against every row either way. An infeasible
    relaxation proves the LP infeasible; an unbounded one does not, so the
    rest of the rows are added at once."""
    rows = _initial_rows(lp)
    while True:
        res = _highs(lp, rows)
        if rows.all() or res.status not in (0, 3):
            break
        if res.status == 3:
            rows[:] = True
            continue
        excess = lp.A_ub @ res.x - lp.b_ub
        violated = np.flatnonzero(
            ~rows & (excess > LAZY_TOL * _scale(lp, res.x)))
        if not violated.size:
            break
        worst = np.argsort(-excess[violated], kind="stable")[:LAZY_ROUND]
        rows[violated[worst]] = True
    if res.status == 2:
        return LpSolution("Infeasible", None, None, None, None)
    if res.status == 3:
        return LpSolution("Unbounded", None, None, None, None)
    if res.status != 0:
        raise NumericalFailure("solver stopped with status %d: %s" % (res.status, res.message))
    sign = 1.0 if lp.sense == "min" else -1.0
    x = np.asarray(res.x, dtype=float)
    duals_ub = np.zeros(lp.b_ub.shape)
    if rows.any():
        duals_ub[rows] = -np.asarray(res.ineqlin.marginals)
    duals_eq = -np.asarray(res.eqlin.marginals) if lp.b_eq.size else np.zeros(0)
    _validate(lp, x, duals_ub)
    return LpSolution("Optimal", x, sign * float(res.fun), duals_ub, duals_eq)
