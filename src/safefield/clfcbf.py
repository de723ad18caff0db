"""Stability and safety constraint rows in the unified affine form
c_x^T x + c_p^T P + r <= 0.

c_x is numeric; c_p and r are affine in the flat gain vector because the
control law u = sum_l sum_i K_{l,i} (R_i P_l) + K_b is linear in the gains.
"""

import numpy as np

from .errors import DimensionMismatch
from .geometry import HalfspaceSet


class GainLayout:
    """Flat ordering of the gain decision vector: for each landmark, each
    feature map contributes an n_u x d block stored row-major; the bias K_b
    occupies the last n_u slots."""

    def __init__(self, n_landmarks, n_k, n_u, d):
        self.n_landmarks = int(n_landmarks)
        self.n_k = int(n_k)
        self.n_u = int(n_u)
        self.d = int(d)

    @property
    def n_gains(self):
        return self.n_landmarks * self.n_k * self.n_u * self.d + self.n_u

    def gain_index(self, landmark, i, m, s):
        return ((landmark * self.n_k + i) * self.n_u + m) * self.d + s

    def block_start(self, landmark, i):
        return self.gain_index(landmark, i, 0, 0)

    def bias_start(self):
        return self.n_landmarks * self.n_k * self.n_u * self.d

    def pack(self, gains, bias):
        """gains[l][i] is the n_u x d matrix for landmark l, map i."""
        theta = np.zeros(self.n_gains)
        for l in range(self.n_landmarks):
            for i in range(self.n_k):
                base = self.block_start(l, i)
                theta[base:base + self.n_u * self.d] = np.asarray(gains[l][i]).ravel()
        theta[self.bias_start():] = bias
        return theta

    def unpack(self, theta):
        gains = [
            [
                np.asarray(theta[self.block_start(l, i):self.block_start(l, i) + self.n_u * self.d])
                .reshape(self.n_u, self.d)
                .copy()
                for i in range(self.n_k)
            ]
            for l in range(self.n_landmarks)
        ]
        return gains, np.asarray(theta[self.bias_start():]).copy()


class AffineInGains:
    """Vector expression value(theta) = const + coef @ theta."""

    def __init__(self, const, coef):
        self.const = np.atleast_1d(np.asarray(const, dtype=float))
        self.coef = np.asarray(coef, dtype=float)
        if self.coef.ndim != 2 or self.coef.shape[0] != self.const.shape[0]:
            raise DimensionMismatch("coef must be (len(const), n_gains)")

    @property
    def n_gains(self):
        return self.coef.shape[1]

    def evaluate(self, theta):
        return self.const + self.coef @ np.asarray(theta, dtype=float)

    def __add__(self, other):
        if isinstance(other, AffineInGains):
            return AffineInGains(self.const + other.const, self.coef + other.coef)
        return AffineInGains(self.const + np.asarray(other, dtype=float), self.coef)

    def __mul__(self, scalar):
        return AffineInGains(self.const * scalar, self.coef * scalar)

    __rmul__ = __mul__


class LinearDynamics:
    """xdot = A x + B u."""

    def __init__(self, A, B):
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise DimensionMismatch("A must be square")
        if self.B.ndim != 2 or self.B.shape[0] != self.A.shape[0]:
            raise DimensionMismatch("B must have d rows")

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
    """One row c_x^T x + c_p^T P_all + r <= 0; k=0 is the stability row, the
    rest are safety rows, one per obstacle facet."""

    def __init__(self, kind, facet, c_x, c_p, r, u_coef):
        self.kind = kind
        self.facet = facet
        self.c_x = np.asarray(c_x, dtype=float)
        self.c_p = c_p
        self.r = r
        # u_coef: the row reads ... + u_coef^T u + ...; kept for diagnostics
        self.u_coef = np.asarray(u_coef, dtype=float)


def _gain_image(w, maps_per_landmark, layout):
    """c_p for a row whose control term is w^T u: the coefficient of
    K_{l,i}[m,s] on P_l[j] is w[m] * R_i[s, j]."""
    n_p_total = sum(maps[0].shape[1] for maps in maps_per_landmark)
    coef = np.zeros((n_p_total, layout.n_gains))
    off = 0
    for l, maps in enumerate(maps_per_landmark):
        if len(maps) != layout.n_k:
            raise DimensionMismatch("feature map count mismatch")
        n_p = maps[0].shape[1]
        for i, R in enumerate(maps):
            base = layout.block_start(l, i)
            coef[off:off + n_p, base:base + layout.n_u * layout.d] = np.kron(
                w[None, :], np.asarray(R, dtype=float).T
            )
        off += n_p
    return AffineInGains(np.zeros(n_p_total), coef)


def _bias_term(w, const, layout):
    coef = np.zeros((1, layout.n_gains))
    coef[0, layout.bias_start():layout.bias_start() + layout.n_u] = w
    return AffineInGains([const], coef)


def build_clf_row(entry, dynamics, alpha_v, maps_per_landmark, layout):
    """Exponential-decrease row for V(x) = v.(x - o):
    v^T(Ax + Bu) + alpha_v v^T(x - o) <= 0."""
    if alpha_v <= 0:
        raise DimensionMismatch("alpha_v must be positive")
    v = np.asarray(entry.v, dtype=float)
    c_x = (dynamics.A + alpha_v * np.eye(dynamics.d)).T @ v
    w = dynamics.B.T @ v
    c_p = _gain_image(w, maps_per_landmark, layout)
    r = _bias_term(w, -alpha_v * float(v @ np.asarray(entry.o, dtype=float)), layout)
    return ConstraintRow("clf", None, c_x, c_p, r, w)


def build_cbf_rows(A_h, b_h, dynamics, alpha_h, maps_per_landmark, layout):
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
        w = -dynamics.B.T @ a
        c_p = _gain_image(w, maps_per_landmark, layout)
        r = _bias_term(w, -alpha_h * float(b_h[j]), layout)
        rows.append(ConstraintRow("cbf", j, c_x, c_p, r, w))
    return rows


def build_cell_rows(body, entry, dynamics, alpha_v, alpha_h, maps_per_landmark,
                    layout, barrier_facets, v_floor=None):
    """The rows of one cell and the state region each must hold over.

    Row 0 is the CLF row, then one CBF row per barrier facet of body, tagged
    with that facet. Every region is body itself, except that v_floor, when
    set, limits the CLF row to where the progress v.(x - o) is at least
    v_floor."""
    rows = [build_clf_row(entry, dynamics, alpha_v, maps_per_landmark, layout)]
    if len(barrier_facets):
        cbf = build_cbf_rows(-body.A[barrier_facets], -body.b[barrier_facets],
                             dynamics, alpha_h, maps_per_landmark, layout)
        for facet, row in zip(barrier_facets, cbf):
            row.facet = facet
        rows.extend(cbf)
    regions = [body for _ in rows]
    if v_floor is not None:
        regions[0] = HalfspaceSet(
            np.vstack([body.A, -entry.v[None, :]]),
            np.concatenate([body.b, [float(entry.v @ entry.o) + float(v_floor)]]),
        )
    return rows, regions


def evaluate_row(row, theta, x, P):
    """Affine evaluation; negative means strictly satisfied."""
    return float(
        row.c_x @ np.asarray(x, dtype=float)
        + row.c_p.evaluate(theta) @ np.asarray(P, dtype=float)
        + row.r.evaluate(theta)[0]
    )
