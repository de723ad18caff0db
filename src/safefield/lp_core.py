"""Standard-form linear programs: the container and a HiGHS solver with dual
extraction and solution validation.

Each HiGHS call goes through linprog below: it hands the model straight to
the HiGHS binding that SciPy bundles (scipy.optimize._highspy._core), with
the options that scipy.optimize.linprog(method="highs") sets, so HiGHS
solves the model that linprog would hand it, by dual simplex (Huangfu &
Hall, Math. Prog. Comp. 10(1), 2018), without linprog's input checks and
result packing. The binding is private to SciPy; the tests compare every
call against scipy.optimize.linprog bit for bit. HiGHS reads the matrix as
CSR rows and builds its column-wise copy itself. This module alone turns
rows into matrices: callers hand it dense arrays, SciPy matrices or, for
point rows, plain CSR arrays.

Some inequality rows of an LP may be held as a separation instead of as
matrix entries: point rows, of which few bind at the optimum, as in a
discretized semi-infinite program. solve_lp then solves it by row
generation, a cutting-plane method (Kelley, J. SIAM 8(4), 1960; Hettich &
Kortanek, SIAM Review 35(3), 1993): HiGHS sees the matrix rows and a fixed
seed of the point rows, and each round adds the point rows that its
optimum violates most, until it violates none by more than LAZY_TOL of the
residual scale. That optimum is feasible for the whole LP and optimal for a
relaxation of it, so it is optimal for the whole LP; rows never added get
dual 0. solve_lp writes as matrix rows only the point rows that a HiGHS
call reads.

An LP's inequality rows are the rows of the A_ub it was given, followed by
its point rows in their own order. A_ub, b_ub, n_ub, duals_ub and every
matrix handed to HiGHS list the rows in that order."""

from collections import namedtuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core

from .errors import DimensionMismatch, NumericalFailure

FEAS_TOL = 1e-7
COMPL_TOL = 1e-6
LAZY_TOL = 1e-9
LAZY_SEED_STRIDE = 25
LAZY_ROUND = 64

# the options that scipy.optimize.linprog(method="highs") sets; every
# other option keeps its HiGHS default
_OPTIONS = _core.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.simplex_strategy = _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False
_OPTIONS.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone

# HiGHS model statuses by scipy.optimize.linprog's numbers; any other
# status, kUnboundedOrInfeasible included, is 4
_STATUS = {_core.HighsModelStatus.kOptimal: 0,
           _core.HighsModelStatus.kInfeasible: 2,
           _core.HighsModelStatus.kUnbounded: 3}


def _as_matrix(M, n_vars):
    """M as CSR, without the zeros of a dense M."""
    if M is None:
        return sp.csr_matrix((0, n_vars))
    if sp.issparse(M):
        return M.tocsr()
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return sp.csr_matrix(M)


class _NoPointRows:
    """The point rows of an LP given none: an empty separation."""

    b = np.zeros(0)

    def deficits(self, x):
        return self.b

    def rows(self, selected):
        return self.b, np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64)


class StandardLp:
    """min or max c^T x subject to A_ub x <= b_ub, A_eq x = b_eq,
    lb <= x <= ub. Matrices may be dense or scipy.sparse; A_kept, A_eq and
    A_ub are held as CSR, the rows that HiGHS reads.

    points holds more inequality rows as a separation (see
    synthesis.PointRows; none when not given):
      - points.b, their right-hand sides;
      - points.deficits(x), A x - b on each of them;
      - points.rows(selected), the CSR arrays (data, indices, indptr) of
        the rows at the ascending indices selected into points.b.
    The A_ub and b_ub passed in are the matrix rows, kept as A_kept and
    b_kept, and the point rows follow them (see the module docstring).
    The attributes A_ub and b_ub read the whole system, built on each
    read. solve_lp reads neither."""

    def __init__(self, sense, c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
                 lb=None, ub=None, points=None):
        if sense not in ("min", "max"):
            raise DimensionMismatch("sense must be 'min' or 'max'")
        self.sense = sense
        self.c = np.asarray(c, dtype=float).ravel()
        n = self.c.shape[0]
        self.A_kept = _as_matrix(A_ub, n)
        self.b_kept = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
        self.A_eq = _as_matrix(A_eq, n)
        self.b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
        self.lb = np.full(n, -np.inf) if lb is None else np.asarray(lb, dtype=float).ravel()
        self.ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float).ravel()
        if self.A_kept.shape != (self.b_kept.shape[0], n):
            raise DimensionMismatch("inequality block shape mismatch")
        if self.A_eq.shape != (self.b_eq.shape[0], n):
            raise DimensionMismatch("equality block shape mismatch")
        if self.lb.shape[0] != n or self.ub.shape[0] != n:
            raise DimensionMismatch("bound length mismatch")
        self.points = _NoPointRows() if points is None else points

    @property
    def n_vars(self):
        return self.c.shape[0]

    @property
    def n_ub(self):
        """The number of inequality rows, point rows included."""
        return self.b_kept.shape[0] + self.points.b.size

    @property
    def A_ub(self):
        blocks = _inequalities(self, np.ones(self.points.b.size, dtype=bool))[0]
        return sp.vstack(blocks, format="csr")

    @property
    def b_ub(self):
        return np.concatenate([self.b_kept, self.points.b])


class LpSolution:
    """status is Optimal, Infeasible or Unbounded.

    duals_ub and duals_eq equal d(objective)/d(rhs) for a max problem and
    the negation of that for a min problem, so duals_ub >= 0 in both senses.
    For a max problem, objective = b_ub.duals_ub + b_eq.duals_eq + bound
    terms (strong duality). highs_calls counts the HiGHS calls of the
    solve, iterations the simplex iterations they took together, and
    point_rows the point rows that its last one read.
    """

    def __init__(self, status, x, objective, duals_ub, duals_eq,
                 highs_calls=0, point_rows=0, iterations=0):
        self.status = status
        self.x = x
        self.objective = objective
        self.duals_ub = duals_ub
        self.duals_eq = duals_eq
        self.highs_calls = highs_calls
        self.point_rows = point_rows
        self.iterations = iterations


def _scale(lp, x):
    """The magnitude that the residuals at x are measured against."""
    parts = [lp.b_kept, lp.b_eq, x, lp.points.b]
    return 1.0 + max(float(np.max(np.abs(v), initial=0.0)) for v in parts)


def _validate(lp, x, objective, duals_ub, duals_eq, deficits=None):
    """Check a solution: every number finite, x within every row and bound,
    complementary slackness on the inequality rows. deficits, when given,
    are the point rows' at x."""
    if not all(np.all(np.isfinite(v)) for v in (x, objective, duals_ub,
                                                 duals_eq)):
        raise NumericalFailure("solver returned a non-finite solution or dual")
    scale = _scale(lp, x)
    r = lp.A_kept @ x - lp.b_kept  # the slack is -r, bit for bit
    r = np.concatenate([r, lp.points.deficits(x) if deficits is None
                        else deficits])
    eq = np.abs(lp.A_eq @ x - lp.b_eq)
    lo = np.where(np.isfinite(lp.lb), lp.lb - x, 0.0)
    hi = np.where(np.isfinite(lp.ub), x - lp.ub, 0.0)
    # np.max keeps a NaN residual, which then fails the test below
    feas = float(np.max([np.max(v, initial=0.0) for v in (r, eq, lo, hi)]))
    if not feas <= FEAS_TOL * scale:
        raise NumericalFailure("primal feasibility residual %.3g exceeds tolerance" % feas)
    if r.size:
        compl = float(np.max(np.abs(duals_ub * -r)))
        dual_scale = 1.0 + float(np.max(np.abs(duals_ub)))
        if compl > COMPL_TOL * scale * dual_scale:
            raise NumericalFailure("complementary slackness residual %.3g" % compl)


def _inequalities(lp, chosen):
    """The matrix rows, then the point rows in the mask chosen: their
    matrix blocks and right-hand sides."""
    picked = np.flatnonzero(chosen)
    rows = sp.csr_matrix(lp.points.rows(picked),
                         shape=(picked.size, lp.n_vars))
    return ([lp.A_kept, rows],
            np.concatenate([lp.b_kept, lp.points.b[picked]]))


class HighsResult(namedtuple("HighsResult", "status message x fun duals nit")):
    """What one HiGHS call returns. status is 0 (optimal), 2 (infeasible),
    3 (unbounded) or 4 (anything else), and message names HiGHS's model
    status. x, fun (the objective) and duals (the row duals, d fun / d b,
    which scipy.optimize.linprog calls marginals) are None unless the
    status is 0. nit is the simplex iteration count."""

    __slots__ = ()


def linprog(c, A, b, n_ub, lb, ub):
    """min c^T x subject to A[:n_ub] x <= b[:n_ub], A[n_ub:] x = b[n_ub:]
    and lb <= x <= ub, by HiGHS, on the model and with the options that
    scipy.optimize.linprog(method="highs") would give it. A is a SciPy
    matrix, handed to HiGHS as CSR rows (a CSR is taken as it is, any
    other format converted). A fresh HiGHS instance per call, so no call
    sees another's basis.

    Every HiGHS call of the package is a call to this name, looked up at
    call time, so a caller (a tracer, a test) may wrap it."""
    A = A.tocsr()
    # HiGHS refuses a NaN bound or right-hand side, but solves on with a
    # NaN cost or matrix entry
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(A.data))):
        return HighsResult(4, "non-finite cost or matrix entry", None, None,
                           None, 0)
    lower = b.copy()
    lower[:n_ub] = -np.inf
    # each field is copied into a std::vector element by element, which
    # is about twice as fast from a list as from an array
    model = _core.HighsLp()
    model.num_row_, model.num_col_ = A.shape
    model.col_cost_ = c.tolist()
    model.col_lower_ = lb.tolist()
    model.col_upper_ = ub.tolist()
    model.row_lower_ = lower.tolist()
    model.row_upper_ = b.tolist()
    matrix = model.a_matrix_
    matrix.format_ = _core.MatrixFormat.kRowwise
    matrix.num_row_, matrix.num_col_ = A.shape
    matrix.start_ = A.indptr.tolist()
    matrix.index_ = A.indices.tolist()
    matrix.value_ = A.data.tolist()
    highs = _core._Highs()
    highs.passOptions(_OPTIONS)
    if highs.passModel(model) == _core.HighsStatus.kError:
        return HighsResult(4, "HiGHS refused the model", None, None, None, 0)
    highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()
    message = highs.modelStatusToString(status)
    if status != _core.HighsModelStatus.kOptimal:
        return HighsResult(_STATUS.get(status, 4), message, None, None, None,
                           info.simplex_iteration_count)
    solution = highs.getSolution()
    return HighsResult(0, message, np.array(solution.col_value),
                       info.objective_function_value,
                       np.array(solution.row_dual),
                       info.simplex_iteration_count)


def _highs(lp, chosen):
    """HiGHS on lp restricted to its matrix rows and the point rows in the
    mask chosen."""
    blocks, b_ub = _inequalities(lp, chosen)
    c = lp.c if lp.sense == "min" else -lp.c
    A = sp.vstack(blocks + [lp.A_eq], format="csr")
    return linprog(c, A, np.concatenate([b_ub, lp.b_eq]), b_ub.size,
                   lp.lb, lp.ub)


def solve_lp(lp):
    """Solve with the HiGHS backend; deterministic for fixed inputs. An LP
    with point rows is solved by row generation (see the module docstring)
    from every LAZY_SEED_STRIDE-th point row; the x returned is validated
    against every row either way. An infeasible relaxation proves the LP
    infeasible; an unbounded one does not, so the rest of the rows are
    added at once."""
    chosen = np.zeros(lp.points.b.size, dtype=bool)
    chosen[::LAZY_SEED_STRIDE] = True
    calls = iterations = 0
    while True:
        res = _highs(lp, chosen)
        calls += 1
        iterations += res.nit
        excess = None
        if chosen.all() or res.status not in (0, 3):
            break
        if res.status == 3:
            chosen[:] = True
            continue
        excess = lp.points.deficits(res.x)
        violated = np.flatnonzero(
            ~chosen & (excess > LAZY_TOL * _scale(lp, res.x)))
        if not violated.size:
            break
        worst = np.argsort(-excess[violated], kind="stable")[:LAZY_ROUND]
        chosen[violated[worst]] = True
    stats = dict(highs_calls=calls, point_rows=int(chosen.sum()),
                 iterations=iterations)
    if res.status == 2:
        return LpSolution("Infeasible", None, None, None, None, **stats)
    if res.status == 3:
        return LpSolution("Unbounded", None, None, None, None, **stats)
    if res.status != 0:
        raise NumericalFailure("solver stopped with status %d: %s" % (res.status, res.message))
    sign = 1.0 if lp.sense == "min" else -1.0
    seen = np.concatenate([np.ones(lp.b_kept.size, dtype=bool), chosen])
    n_seen = np.count_nonzero(seen)
    duals_ub = np.zeros(lp.n_ub)
    duals_ub[seen] = -res.duals[:n_seen]
    duals_eq = -res.duals[n_seen:]
    objective = sign * float(res.fun)
    _validate(lp, res.x, objective, duals_ub, duals_eq, excess)
    return LpSolution("Optimal", res.x, objective, duals_ub, duals_eq,
                      **stats)
