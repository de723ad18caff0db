"""Convex cells as halfspace intersections, and the environment they tile.

A halfspace set stores rows (A, b) meaning A x + b <= 0 with unit row norms,
so -(A[j] x + b[j]) is the signed distance of x to facet j (positive inside).
"""

import json
import math
import numbers

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInput,
    GoalNotVertex,
    LandmarkOutOfView,
    NonConvexInput,
    UnboundedPolytope,
)

ABS_TOL = 1e-9
DEDUP_TOL = 1e-8


class HalfspaceSet:
    """Intersection of halfspaces A x + b <= 0 with unit-norm rows."""

    def __init__(self, A, b):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if A.shape[0] != b.shape[0]:
            raise DegenerateInput("row count mismatch between A and b")
        norms = np.linalg.norm(A, axis=1)
        if np.any(norms < ABS_TOL):
            raise DegenerateInput("zero-norm halfspace row")
        self.A = A / norms[:, None]
        self.b = b / norms

    @property
    def dim(self):
        return self.A.shape[1]

    @property
    def n_rows(self):
        return self.A.shape[0]

    def values(self, x):
        """Row values A x + b (nonpositive inside)."""
        return self.A @ np.asarray(x, dtype=float) + self.b

    def contains(self, x, tol=ABS_TOL):
        return bool(np.all(self.values(x) <= tol))

    def facet_distance(self, x):
        """Signed distance to each facet, positive inside."""
        return -self.values(x)


def polygon_to_halfspaces(vertices):
    """Halfspace form of a convex polygon given counterclockwise vertices."""
    V = np.asarray(vertices, dtype=float)
    if V.ndim != 2 or V.shape[1] != 2:
        raise DegenerateInput("vertices must be (m, 2)")
    m = V.shape[0]
    if m < 3:
        raise DegenerateInput("need at least 3 vertices")
    edges = np.roll(V, -1, axis=0) - V
    if np.any(np.linalg.norm(edges, axis=1) < DEDUP_TOL):
        raise DegenerateInput("repeated adjacent vertices")
    # cross product of consecutive edges: positive for a ccw convex chain
    cross = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] - edges[:, 1] * np.roll(edges, -1, axis=0)[:, 0]
    if np.any(np.abs(cross) < ABS_TOL):
        raise DegenerateInput("collinear adjacent edges")
    if np.any(cross < 0):
        raise NonConvexInput("vertices must trace a convex counterclockwise chain")
    # outward normal of edge e is (e_y, -e_x) for a ccw polygon
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    offsets = -np.sum(normals * V, axis=1)
    return HalfspaceSet(normals, offsets)


def _bounded_2d(A):
    # bounded iff no angular gap of pi or more between outward normals
    ang = np.sort(np.arctan2(A[:, 1], A[:, 0]))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
    return np.max(gaps) < np.pi - ABS_TOL


def region_points(hs):
    """Vertices of a bounded 2-D halfspace intersection, without order: none
    when it is empty, one when it is a point, two when it is a segment."""
    if hs.dim != 2:
        raise DegenerateInput("vertex enumeration implemented for 2-D only")
    if not _bounded_2d(hs.A):
        raise UnboundedPolytope("halfspace normals leave an open direction")
    i, j = np.triu_indices(hs.n_rows, 1)
    M = np.stack([hs.A[i], hs.A[j]], axis=1)
    det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    ok = np.abs(det) >= ABS_TOL
    rhs = -np.stack([hs.b[i], hs.b[j]], axis=1)[ok]
    pts = np.linalg.solve(M[ok], rhs[:, :, None])[:, :, 0]
    tol = ABS_TOL * (1.0 + np.linalg.norm(pts, axis=1))
    pts = pts[np.all(pts @ hs.A.T + hs.b <= tol[:, None], axis=1)]
    # keep the first of every cluster closer than DEDUP_TOL
    close = np.linalg.norm(pts[:, None] - pts[None, :], axis=2) < DEDUP_TOL
    return pts[~np.any(np.tril(close, -1), axis=1)]


def cell_vertices(hs):
    """Vertices of a bounded 2-D halfspace intersection, counterclockwise."""
    V = region_points(hs)
    if V.shape[0] == 0:
        raise DegenerateInput("halfspace intersection has no vertices")
    if V.shape[0] < 3:
        raise DegenerateInput("halfspace intersection is lower-dimensional")
    return counterclockwise(V)


def counterclockwise(V):
    """The vertices V of a 2-D convex polygon, three or more, in
    counterclockwise order about their mean."""
    center = V.mean(axis=0)
    order = np.argsort(np.arctan2(V[:, 1] - center[1], V[:, 0] - center[0]))
    return V[order]


def deviation_candidates(hs, V, a):
    """Per point a[i] of a (n, 2) array, the distinct Pareto-minimal gaps
    |x - a[i]| over the states x of the region hs, whose vertices are V
    (region_points(hs), enumerated once by the caller for every a).

    For every lam >= 0, sum_q lam_q |x_q - a[i, q]| is linear on each piece
    of the region cut by the lines x_q = a[i, q], so its minimum over the
    region lies at a vertex of the region, where an edge crosses one of
    those lines, or at a[i] when a[i] lies in the region. The crossings
    with x_q = a[i, q], and whether each lies in the region, depend on
    a[i, q] alone, so they are found once per distinct value; the vertices
    lie in the region by definition. A candidate whose gap another
    candidate matches or beats on every axis cannot be the only minimizer
    and is dropped. Returns (point index, gap) as (m,) and (m, 2) arrays;
    an empty region yields none."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n, n_v, R = a.shape[0], V.shape[0], hs.n_rows
    A, b = hs.A, hs.b

    def inside(C):  # C (..., 2) in the region, within ABS_TOL (1 + |C|)
        tol = ABS_TOL * (1.0 + np.linalg.norm(C, axis=-1))
        return np.all(C @ A.T + b <= tol[..., None], axis=-1)

    # candidate columns: the vertices, the crossings with x_0 = a[i, 0] and
    # with x_1 = a[i, 1] (one per edge line), then a[i]
    gap = np.empty((n, n_v + 2 * R + 1, 2))
    gap[:, :n_v] = np.abs(V - a[:, None, :])
    for q in range(2):
        o = 1 - q
        values, at = np.unique(a[:, q], return_inverse=True)
        # edge line A[j].x + b[j] = 0 at x_q = value, for every (value, j)
        cross = np.empty((values.size, R, 2))
        cross[:, :, q] = values[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            cross[:, :, o] = -(b + A[:, q] * values[:, None]) / A[:, o]
        cross[:, np.abs(A[:, o]) < ABS_TOL] = np.nan
        cols = slice(n_v + q * R, n_v + (q + 1) * R)
        gap[:, cols] = np.where(inside(cross)[at, :, None],
                                np.abs(cross[at] - a[:, None, :]), np.inf)
    gap[:, -1] = np.where(inside(a)[:, None], 0.0, np.inf)
    # in order of (gap_0, gap_1), a candidate is Pareto-minimal when its
    # gap_1 is below every gap_1 before it; exact repeats keep the first
    order = np.lexsort((gap[:, :, 1], gap[:, :, 0]), axis=-1)
    g1 = np.take_along_axis(gap[:, :, 1], order, axis=1)
    before = np.minimum.accumulate(g1, axis=1)[:, :-1]
    minimal = np.c_[np.isfinite(g1[:, 0]), g1[:, 1:] < before]
    keep = np.zeros(g1.shape, dtype=bool)
    np.put_along_axis(keep, order, minimal, axis=1)
    idx, c = np.nonzero(keep)
    return idx, gap[idx, c]


class ConvexCell:
    """One convex cell of the decomposition, given by its counterclockwise
    vertices, which it keeps (read-only) beside its halfspace form body."""

    def __init__(self, cell_id, vertices, landmark_ids):
        self.id = int(cell_id)
        self.vertices = np.array(vertices, dtype=float)
        self.vertices.setflags(write=False)
        self.body = polygon_to_halfspaces(self.vertices)
        self.landmark_ids = list(landmark_ids)

    def contains(self, x, tol=ABS_TOL):
        return self.body.contains(x, tol=tol)


class Environment:
    """Cells, landmarks and the task endpoints."""

    def __init__(self, cells, landmarks, start, goal, patrol_cycle=None):
        self.cells = list(cells)
        self.landmarks = np.atleast_2d(np.asarray(landmarks, dtype=float))
        self.start = np.asarray(start, dtype=float)
        self.goal = np.asarray(goal, dtype=float)
        self.patrol_cycle = list(patrol_cycle) if patrol_cycle is not None else None
        self.dimension = self.landmarks.shape[1]
        n_l = self.landmarks.shape[0]
        for cell in self.cells:
            for lid in cell.landmark_ids:
                if not 0 <= lid < n_l:
                    raise LandmarkOutOfView(
                        "cell %d references landmark %d of %d" % (cell.id, lid, n_l)
                    )
        if not any(
            np.linalg.norm(v - self.goal) <= 1e-9 for c in self.cells for v in c.vertices
        ):
            raise GoalNotVertex("goal does not coincide with any cell vertex",
                                field="environment.goal")
        # every cell's halfspaces in one stack; cell k owns the rows from
        # _first_row[k] up to the next cell's first row
        self._A = np.vstack([c.body.A for c in self.cells])
        self._b = np.concatenate([c.body.b for c in self.cells])
        self._first_row = np.cumsum([0] + [c.body.n_rows for c in self.cells[:-1]])
        self._ids = [c.id for c in self.cells]

    def cell_ids_containing(self, x, tol=ABS_TOL):
        """The ids of the cells whose every row value is at most tol at x, a
        sequence of numbers, in cell order."""
        values = self._A.dot(x) + self._b
        worst = np.maximum.reduceat(values, self._first_row)
        return [i for i, v in zip(self._ids, worst.tolist()) if v <= tol]

    def cell_by_id(self, cell_id):
        for c in self.cells:
            if c.id == cell_id:
                return c
        raise KeyError(cell_id)


def real(value):
    """float(value) for a finite number. float alone also reads numeric
    strings and booleans, which are refused here, and JSON's NaN and
    Infinity, which are refused too."""
    kind = type(value)
    if kind is not float and kind is not int and (
            kind is bool or not isinstance(value, numbers.Real)):
        raise TypeError("%r is not a number" % (value,))
    out = float(value)
    if not math.isfinite(out):
        raise ValueError("%r is not finite" % (value,))
    return out


def integral(value):
    """int(value) for a number (see real) of integral value: int alone
    truncates."""
    out = int(real(value))
    if out != value:
        raise ValueError("%r is not integral" % (value,))
    return out


def integers(value):
    """A list of integral numbers (see integral) as a list of ints."""
    return [integral(v) for v in value]


def reals(value):
    """A number, or lists of them nested to any depth, as one float array;
    each entry must be a finite number (see real), checked in one pass by
    type and one by value."""
    entries = np.array(value, dtype=object)
    if not set(map(type, entries.flat)) <= {float, int}:
        for entry in entries.flat:
            real(entry)
    out = entries.astype(float)
    bad = out[~np.isfinite(out)]
    if bad.size:
        raise ValueError("%r is not finite" % (float(bad[0]),))
    return out


def point(dim):
    """Converter of a list of dim numbers (see reals) to a float array."""
    def convert(value):
        out = reals(value)
        if out.shape != (dim,):
            raise ValueError("%d coordinates in a %d-D environment"
                             % (out.size, dim))
        return out
    return convert


_REQUIRED = object()


def read(section, key, convert, path, prefix, default=_REQUIRED):
    """convert(section[key]), or default where section has no key and a
    default is given. A missing entry, one that convert refuses and a
    section that is not an object raise ConfigError naming the file path
    and the field prefix + key."""
    try:
        if default is not _REQUIRED and key not in section:
            return default
        return convert(section[key])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        reason = ("missing entry" if isinstance(exc, KeyError)
                  else "malformed entry (%s)" % exc)
        raise ConfigError(reason, path=path, field=prefix + key) from None


def load_json(path, field):
    """The JSON document in the file at path; an unreadable file or one
    that is not JSON raises ConfigError naming path and field."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(exc.strerror, path=path, field=field) from None
    except ValueError as exc:
        raise ConfigError("invalid JSON: %s" % exc, path=path,
                          field=field) from None


def known_keys(section, prefix, keys, path):
    """Reject any key of section that is not in keys."""
    for key in section:
        if key not in keys:
            raise ConfigError("unknown key", path=path, field=prefix + key)


def environment_from_dict(obj, path=None):
    """Build an Environment from its JSON-style dict form. A missing,
    malformed or unknown entry, a cell without landmarks, a cell id that is
    not integral or repeats another, a dimension other than the landmarks',
    and the refusals of ConvexCell (its vertices) and Environment (a
    landmark id out of range, a goal off every vertex) raise ConfigError
    naming the entry, with path as the file."""
    cells = []
    for i, spec in enumerate(read(obj, "cells", list, path, "environment.")):
        prefix = "environment.cells.%d." % i
        vertices = read(spec, "vertices", reals, path, prefix)
        known_keys(spec, prefix, ("id", "vertices", "landmark_ids"), path)
        ids = read(spec, "landmark_ids", integers, path, prefix)
        if not ids:
            raise ConfigError("a cell must read at least one landmark",
                              path=path, field=prefix + "landmark_ids")
        cell_id = read(spec, "id", integral, path, prefix, i)
        if cell_id in [c.id for c in cells]:
            raise ConfigError("cell id %d repeats an earlier cell's" % cell_id,
                              path=path, field=prefix + "id")
        try:
            cells.append(ConvexCell(cell_id, vertices, ids))
        except (DegenerateInput, NonConvexInput) as exc:
            raise ConfigError(str(exc), path=path,
                              field=prefix + "vertices") from None
    prefix = "environment."
    known_keys(obj, prefix, ("dimension", "cells", "landmarks", "start",
                             "goal", "patrol_cycle"), path)
    cycle = read(obj, "patrol_cycle",
                 lambda v: None if v is None else integers(v), path, prefix,
                 None)
    landmarks = read(obj, "landmarks", reals, path, prefix)
    dim = np.atleast_2d(landmarks).shape[1]
    if read(obj, "dimension", integral, path, prefix, dim) != dim:
        raise ConfigError("dimension differs from the landmarks' %d" % dim,
                          path=path, field=prefix + "dimension")
    start, goal = (read(obj, key, point(dim), path, prefix)
                   for key in ("start", "goal"))
    try:
        return Environment(cells, landmarks, start, goal, patrol_cycle=cycle)
    except LandmarkOutOfView as exc:
        # Environment refused the first cell, in order, naming one
        n_l = np.atleast_2d(landmarks).shape[0]
        i = next(i for i, c in enumerate(cells)
                 if not set(c.landmark_ids) <= set(range(n_l)))
        reason, field = str(exc), "cells.%d.landmark_ids" % i
    except GoalNotVertex as exc:
        reason, field = exc.reason, "goal"
    raise ConfigError(reason, path=path, field=prefix + field)
