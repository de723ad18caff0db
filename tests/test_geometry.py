import numpy as np
import pytest

from helpers import (check_candidates_against_lp, random_convex_polygon,
                     reference_deviation_candidates, same_bits)
from safefield.errors import DegenerateInput, GoalNotVertex, NonConvexInput
from safefield.measurement import GridSpec
from safefield.geometry import (
    ABS_TOL,
    ConvexCell,
    Environment,
    HalfspaceSet,
    cell_vertices,
    deviation_candidates,
    polygon_to_halfspaces,
    region_points,
)

TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def sorted_rows(a):
    a = np.asarray(a, dtype=float)
    return a[np.lexsort((a[:, 1], a[:, 0]))]


def test_triangle_halfspace_oracle():
    hs = polygon_to_halfspaces(TRIANGLE)
    assert hs.n_rows == 3 and hs.dim == 2
    # edge (0,0)-(1,0): outward normal (0,-1), offset 0
    # edge (1,0)-(0,1): outward normal (1,1)/sqrt(2), offset -1/sqrt(2)
    # edge (0,1)-(0,0): outward normal (-1,0), offset 0
    expect = {(0.0, -1.0, 0.0), (-1.0, 0.0, 0.0)}
    got = {tuple(np.round(np.r_[hs.A[j], hs.b[j]], 12)) for j in range(3)}
    assert expect <= got
    s = 1.0 / np.sqrt(2.0)
    assert any(np.allclose(np.r_[hs.A[j], hs.b[j]], [s, s, -s]) for j in range(3))


def test_rows_are_normalized():
    hs = polygon_to_halfspaces(TRIANGLE * 7.0)
    assert np.allclose(np.linalg.norm(hs.A, axis=1), 1.0)


def test_containment_and_facet_distance():
    hs = polygon_to_halfspaces(TRIANGLE)
    assert hs.contains([0.25, 0.25])
    assert not hs.contains([1.0, 1.0])
    d = hs.facet_distance([0.25, 0.25])
    assert np.all(d > 0)
    assert np.any(hs.facet_distance([2.0, 2.0]) < 0)


def test_vertex_halfspace_roundtrip_square():
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
    back = cell_vertices(polygon_to_halfspaces(verts))
    assert np.allclose(sorted_rows(back), sorted_rows(verts), atol=1e-9)


def test_vertex_halfspace_roundtrip_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        verts = random_convex_polygon(rng)
        back = cell_vertices(polygon_to_halfspaces(verts))
        assert back.shape == verts.shape
        assert np.allclose(sorted_rows(back), sorted_rows(verts), atol=1e-7)


def test_vertices_inside_own_halfspaces():
    rng = np.random.default_rng(11)
    for _ in range(20):
        hs = polygon_to_halfspaces(random_convex_polygon(rng))
        for v in cell_vertices(hs):
            assert hs.contains(v, tol=1e-7)


def test_empty_intersection_raises():
    hs = HalfspaceSet(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                      np.array([-1.0, -1.0, 1.0, 1.0]))
    # x1 >= 1 and x1 <= -1 cannot hold together
    with pytest.raises(DegenerateInput):
        cell_vertices(hs)


def test_nonconvex_polygon_rejected():
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.5], [2.0, 2.0], [0.0, 2.0]])
    with pytest.raises(NonConvexInput):
        polygon_to_halfspaces(verts)


def test_deviation_candidates_attain_the_lp_minimum():
    rng = np.random.default_rng(5)
    inside = outside = 0
    for _ in range(20):
        hs = polygon_to_halfspaces(random_convex_polygon(rng))
        a = rng.uniform(-5.0, 5.0, size=(10, 2))
        n_in = check_candidates_against_lp(hs, a, rng)
        inside, outside = inside + n_in, outside + 10 - n_in
    assert inside and outside


def test_deviation_candidates_of_a_box_are_the_clamp():
    hs = polygon_to_halfspaces([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
    a = np.array([[1.0, 0.5], [3.0, 0.5], [-1.0, 4.0], [2.0, 1.0]])
    idx, gap = deviation_candidates(hs, region_points(hs), a)
    assert idx.tolist() == [0, 1, 2, 3]
    assert np.allclose(gap, [[0.0, 0.0], [1.0, 0.0], [1.0, 3.0], [0.0, 0.0]])


def random_region(rng):
    """A random cell body, a box on a fifth of draws (whose axis-parallel
    edges cross no line of their own axis), cut on half of the draws as
    synthesis cuts a goal cell's CLF region: by v.(x - o) >= floor for a
    unit v, with the floor between the body's extremes of progress, at its
    top (one vertex, or one edge) or above it (empty)."""
    if rng.random() < 0.2:
        lo = rng.uniform(-20.0, 0.0, size=2)
        hi = lo + rng.uniform(5.0, 20.0, size=2)
        verts = [lo, [hi[0], lo[1]], hi, [lo[0], hi[1]]]
    else:
        verts = random_convex_polygon(rng, radius=20.0)
    body = polygon_to_halfspaces(verts)
    if rng.random() < 0.5:
        return body, np.asarray(verts, dtype=float)
    v = rng.normal(size=2) if rng.random() < 0.7 else np.eye(2)[rng.integers(2)]
    v /= np.linalg.norm(v)
    progress = np.asarray(verts) @ v
    floor = rng.choice([rng.uniform(progress.min(), progress.max()),
                        progress.max(), progress.max() + 1.0])
    cut = HalfspaceSet(np.vstack([body.A, -v]), np.r_[body.b, floor])
    return cut, np.asarray(verts, dtype=float)


def test_deviation_candidates_equal_the_per_point_reference():
    # a = landmark - grid points, as synthesis builds it: few distinct
    # values per axis; the landmark at a vertex of the body on half of the
    # draws, where crossings and candidates coincide
    rng = np.random.default_rng(11)
    spec = GridSpec((30, 30), (40.0, 40.0))
    kinds = set()
    for _ in range(120):
        hs, verts = random_region(rng)
        V = region_points(hs)
        kinds.add(min(V.shape[0], 3))
        landmark = (verts[rng.integers(len(verts))] if rng.random() < 0.5
                    else verts.mean(axis=0) + rng.uniform(-5.0, 5.0, size=2))
        a = landmark - spec.points()
        idx, gap = deviation_candidates(hs, V, a)
        want_idx, want_gap = reference_deviation_candidates(hs, V, a)
        assert same_bits(idx, want_idx)
        assert same_bits(gap, want_gap)
    assert {0, 1, 3} <= kinds  # empty, a point and a polygon all drawn


def test_environment_ingest(annulus_env):
    env = annulus_env
    assert len(env.cells) == 8
    assert env.dimension == 2
    assert np.allclose(env.goal, [40.0, 10.0])
    assert env.cell_ids_containing([20.0, 5.0]) == [0, 1]


def _facet_points(env, offsets):
    """Points along every cell facet, each pushed off it along the outward
    normal by every offset."""
    pts = []
    for cell in env.cells:
        V = cell.vertices
        for a, b in zip(V, np.roll(V, -1, axis=0)):
            normal = np.array([b[1] - a[1], a[0] - b[0]])
            normal /= np.linalg.norm(normal)
            for s in (0.0, 0.25, 0.5, 1.0):
                for off in offsets:
                    pts.append(a + s * (b - a) + off * normal)
    return pts


@pytest.mark.parametrize("env_name", ["annulus_env", "patrol_env"])
@pytest.mark.parametrize("tol", [ABS_TOL, 0.0, 1e-3])
def test_cells_containing_equals_each_cells_own_test(env_name, tol, request):
    env = request.getfixturevalue(env_name)
    rng = np.random.default_rng(5)
    V = np.vstack([c.vertices for c in env.cells])
    lo, hi = V.min(axis=0), V.max(axis=0)
    near = [k * tol for k in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)]
    points = (list(rng.uniform(lo - 1.0, hi + 1.0, size=(500, 2))) + list(V)
              + _facet_points(env, near + [-3e-9, 3e-9]))
    hits = 0
    for x in points:
        got = env.cell_ids_containing(x, tol=tol)
        assert got == [c.id for c in env.cells if c.contains(x, tol=tol)]
        hits += len(got) > 1
    assert hits > 0  # some points lie on a facet that two cells share


def test_goal_must_be_vertex():
    cells = [ConvexCell(0, TRIANGLE, [0])]
    with pytest.raises(GoalNotVertex):
        Environment(cells, [[0.2, 0.2]], [0.2, 0.2], [0.5, 0.25])
