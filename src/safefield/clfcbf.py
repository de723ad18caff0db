"""Stability and safety constraint rows in state and control:
c_x^T x + w^T u + r <= 0.

With xdot = A x + B u, the CLF row is v.xdot + alpha_v V <= 0 and each CBF
row is -(hdot + alpha_h h) <= 0. A measurement PMF enters a row only
through the control law u = K_b + sum_l M_l P_l, so the row's coefficient
on landmark l's PMF is w^T M_l and its constant is w^T K_b + r. Synthesis
expands that over the unknown gains; verification evaluates it for fixed
ones.
"""

import numpy as np

from .errors import DimensionMismatch
from .geometry import HalfspaceSet


class LinearDynamics:
    """xdot = A x + B u. A and B are read-only copies, so drift_free (A is
    all zero) holds for the life of the dynamics."""

    def __init__(self, A, B):
        self.A = np.array(A, dtype=float)
        self.B = np.array(B, dtype=float)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise DimensionMismatch("A must be square")
        if self.B.ndim != 2 or self.B.shape[0] != self.A.shape[0]:
            raise DimensionMismatch("B must have d rows")
        self.A.setflags(write=False)
        self.B.setflags(write=False)
        self.drift_free = not self.A.any()

    @property
    def d(self):
        return self.A.shape[0]

    @property
    def n_u(self):
        return self.B.shape[1]

    @staticmethod
    def single_integrator(d):
        return LinearDynamics(np.zeros((d, d)), np.eye(d))


class ConstraintRow:
    """One row c_x^T x + w^T u + r <= 0; k=0 is the stability row, the rest
    are safety rows, one per obstacle facet. region: see build_cell_rows."""

    def __init__(self, kind, facet, c_x, w, r):
        self.kind = kind
        self.facet = facet
        self.region = None
        self.c_x = np.asarray(c_x, dtype=float)
        self.w = np.asarray(w, dtype=float)
        self.r = float(r)


def build_clf_row(entry, dynamics, alpha_v):
    """Exponential-decrease row for V(x) = v.(x - o):
    v^T(Ax + Bu) + alpha_v v^T(x - o) <= 0."""
    if alpha_v <= 0:
        raise DimensionMismatch("alpha_v must be positive")
    v = np.asarray(entry.v, dtype=float)
    c_x = (dynamics.A + alpha_v * np.eye(dynamics.d)).T @ v
    r = -alpha_v * float(v @ np.asarray(entry.o, dtype=float))
    return ConstraintRow("clf", None, c_x, dynamics.B.T @ v, r)


def build_cbf_rows(A_h, b_h, dynamics, alpha_h):
    """Barrier rows for facets given as h_j(x) = A_h[j].x + b_h[j] >= 0
    inside: -[A_h]_j(Ax + Bu) - alpha_h([A_h]_j x + [b_h]_j) <= 0."""
    if alpha_h <= 0:
        raise DimensionMismatch("alpha_h must be positive")
    A_h = np.atleast_2d(np.asarray(A_h, dtype=float))
    b_h = np.atleast_1d(np.asarray(b_h, dtype=float))
    if A_h.shape[0] < 1 or A_h.shape[0] != b_h.shape[0]:
        raise DimensionMismatch("facet rows and offsets disagree")
    rows = []
    for j in range(A_h.shape[0]):
        a = A_h[j]
        c_x = -(dynamics.A + alpha_h * np.eye(dynamics.d)).T @ a
        rows.append(ConstraintRow("cbf", j, c_x, -dynamics.B.T @ a,
                                  -alpha_h * float(b_h[j])))
    return rows


def build_cell_rows(body, entry, dynamics, alpha_v, alpha_h, v_floor=None):
    """The rows of one cell and the distinct state regions they hold on:
    body, then, when v_floor is set, the part of body where the progress
    v.(x - o) is at least v_floor. Row 0 is the CLF row of the plan entry,
    on the last region; then one CBF row per facet of body in
    entry.barriers, tagged with that facet, on body. Each row names its
    region by its index in that list (row.region)."""
    regions = [body]
    if v_floor is not None:
        regions.append(HalfspaceSet(
            np.vstack([body.A, -entry.v[None, :]]),
            np.concatenate([body.b, [float(entry.v @ entry.o) + float(v_floor)]]),
        ))
    rows = [build_clf_row(entry, dynamics, alpha_v)]
    rows[0].region = len(regions) - 1
    barriers = entry.barriers
    if barriers:
        cbf = build_cbf_rows(-body.A[barriers], -body.b[barriers],
                             dynamics, alpha_h)
        for facet, row in zip(barriers, cbf):
            row.facet, row.region = facet, 0
        rows.extend(cbf)
    return rows, regions
