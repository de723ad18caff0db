import numpy as np
import pytest

from safefield.errors import ConfigError, DisconnectedFreeSpace
from safefield.geometry import ConvexCell, Environment
from safefield.planning import (
    build_graph,
    goal_cell_id,
    goal_entry,
    make_plan,
)
from safefield.simulation import SimConfig, run_trajectory


def two_squares():
    """Unit squares side by side; goal at the far bottom-right vertex."""
    a = ConvexCell(0, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], [0])
    b = ConvexCell(1, [[1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0]], [1])
    return Environment([a, b], [[0.0, 0.0], [2.0, 0.0]],
                       [0.5, 0.5], [2.0, 0.0])


def test_disconnected_cells_raise():
    # the second square touches the first at no facet
    a = ConvexCell(0, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], [0])
    b = ConvexCell(1, [[3.0, 0.0], [4.0, 0.0], [4.0, 1.0], [3.0, 1.0]], [1])
    env = Environment([a, b], [[0.0, 0.0], [4.0, 0.0]], [0.5, 0.5], [4.0, 0.0])
    with pytest.raises(DisconnectedFreeSpace, match=r"cells \[1\] unreachable from cell 0"):
        build_graph(env)


def test_two_square_edge_oracle():
    env = two_squares()
    graph = build_graph(env)
    assert graph.neighbors(0) == [1]
    assert graph.neighbors(1) == [0]
    edge = graph.edge(0, 1)
    assert np.allclose(edge.midpoint, [1.0, 0.5])
    # the shared facet is x1 = 1 on both bodies
    r0, r1 = edge.row_for(0), edge.row_for(1)
    assert np.allclose(env.cells[0].body.A[r0], [1.0, 0.0])
    assert np.allclose(env.cells[1].body.A[r1], [-1.0, 0.0])


def loop_edges(env):
    """The facet-sharing edges found pair by pair and row by row, each
    segment from the facet's vertices taken one at a time: the reference
    for build_graph's all-rows-at-once search."""
    edges = []
    cells = env.cells

    def segment(cell, row):
        A, b = cell.body.A, cell.body.b
        on = [v for v in cell.vertices if abs(A[row] @ v + b[row]) <= 1e-8]
        if len(on) < 2:
            return None
        pts = np.array(on)
        t = np.array([-A[row, 1], A[row, 0]])
        s = pts @ t
        return (pts[np.argmin(s)], pts[np.argmax(s)], float(np.min(s)),
                float(np.max(s)), t)

    for ia in range(len(cells)):
        for ib in range(ia + 1, len(cells)):
            a, b = cells[ia], cells[ib]
            best = None
            for ra in range(a.body.n_rows):
                for rb in range(b.body.n_rows):
                    if (np.linalg.norm(a.body.A[ra] + b.body.A[rb]) > 1e-8
                            or abs(a.body.b[ra] + b.body.b[rb]) > 1e-8):
                        continue
                    sa, sb = segment(a, ra), segment(b, rb)
                    if sa is None or sb is None:
                        continue
                    t = sa[4]
                    lo = max(sa[2], min(sb[0] @ t, sb[1] @ t))
                    hi = min(sa[3], max(sb[0] @ t, sb[1] @ t))
                    if hi - lo <= 1e-8:
                        continue
                    n = a.body.A[ra]
                    base = sa[0] - (sa[0] @ t) * t
                    seg = np.stack([base + lo * t, base + hi * t])
                    seg = seg - ((seg @ n + a.body.b[ra])[:, None]) * n[None, :]
                    if best is None or hi - lo > np.linalg.norm(best[4][1] - best[4][0]):
                        best = (a.id, ra, b.id, rb, seg)
            if best is not None:
                edges.append(best)
    return edges


def grid_env(rng):
    """Random rectangles on a jittered grid, some split along a diagonal."""
    xs, ys = (np.cumsum(np.r_[0.0, rng.uniform(0.5, 2.0, n)])
              for n in rng.integers(2, 5, size=2))
    cells = []
    for x0, x1 in zip(xs, xs[1:]):
        for y0, y1 in zip(ys, ys[1:]):
            corners = [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]
            parts = ([corners[:3], [corners[0]] + corners[2:]]
                     if rng.random() < 0.3 else [corners])
            cells += [ConvexCell(len(cells) + k, p, [0])
                      for k, p in enumerate(parts)]
    return Environment(cells, [[0.0, 0.0]], [0.1, 0.1], [0.0, 0.0])


def test_build_graph_matches_the_pairwise_loop(annulus_env, patrol_env):
    rng = np.random.default_rng(0)
    envs = [annulus_env, patrol_env, two_squares()] + [
        grid_env(rng) for _ in range(10)]
    for env in envs:
        edges = list(build_graph(env).edges.values())
        expected = loop_edges(env)
        assert [(e.cell_a, e.row_a, e.cell_b, e.row_b) for e in edges] == [
            e[:4] for e in expected]
        assert all(type(e.row_a) is int and type(e.row_b) is int
                   for e in edges)
        for e, ref in zip(edges, expected):
            assert np.array_equal(e.segment, ref[4])


def test_transit_entry_oracle():
    env = two_squares()
    plan = make_plan(env, build_graph(env))
    assert plan.mode == "stabilize"
    assert list(plan.entries) == [0, 1]
    assert [e.next_id for e in plan.entries.values()] == [1, None]
    first = plan.entries[0]
    # exit direction is the inward normal of the shared facet of cell 0
    assert np.allclose(first.v, [-1.0, 0.0])
    assert np.allclose(first.o, [1.0, 0.5])
    assert first.progress([0.25, 0.5]) > 0
    assert first.progress([1.25, 0.5]) < 0
    assert abs(first.progress([1.0, 0.9])) <= 1e-12


def test_goal_entry_nonnegative_over_cell():
    env = two_squares()
    entry = goal_entry(env, build_graph(env), 1)
    assert entry.exit_face is None
    cell = env.cell_by_id(1)
    vals = [entry.progress(v) for v in cell.vertices]
    assert min(vals) >= -1e-9
    assert abs(entry.progress(env.goal)) <= 1e-9


@pytest.mark.parametrize("name", ["annulus8", "two_squares"])
def test_plan_entries_carry_their_barriers(annulus_env, name):
    # a transit entry guards every facet but its exit; the goal entry
    # guards exactly the facets that no neighbour shares
    env = annulus_env if name == "annulus8" else two_squares()
    graph = build_graph(env)
    plan = make_plan(env, graph)
    goals = 0
    for cid, entry in plan.entries.items():
        rows = range(env.cell_by_id(cid).body.n_rows)
        if entry.exit_face is not None:
            assert entry.barriers == [j for j in rows if j != entry.exit_face]
            continue
        goals += 1
        shared = {graph.edge(cid, nb).row_for(cid)
                  for nb in graph.neighbors(cid)}
        assert entry.barriers == [j for j in rows if j not in shared]
        assert entry.barriers and shared
    assert goals == 1
    if name == "two_squares":
        # the goal square shares only its left facet, x = 1
        walls = env.cell_by_id(1).body.A[plan.entries[1].barriers]
        assert len(walls) == 3 and [-1.0, 0.0] not in walls.tolist()


def test_goal_cell_id(annulus_env):
    assert goal_cell_id(annulus_env) == 1


def bfs_hops(graph, target):
    """Hop count from every cell to target: the oracle the exit map must
    descend."""
    hops = {target: 0}
    queue = [target]
    for cur in queue:
        for nb in graph.neighbors(cur):
            if nb not in hops:
                hops[nb] = hops[cur] + 1
                queue.append(nb)
    return hops


def next_chain(plan, src):
    """The cells a stabilize run from cell src is handed through."""
    chain = [src]
    while plan.entries[chain[-1]].next_id is not None:
        chain.append(plan.entries[chain[-1]].next_id)
    return chain


def test_annulus_shortest_paths(annulus_env):
    plan = make_plan(annulus_env, build_graph(annulus_env))
    assert next_chain(plan, 7) == [7, 0, 1]
    assert next_chain(plan, 6) == [6, 7, 0, 1]
    assert next_chain(plan, 5) == [5, 4, 3, 1]
    assert next_chain(plan, 1) == [1]
    assert plan.entries[1].next_id is None


def test_bfs_path_properties(annulus_env):
    graph = build_graph(annulus_env)
    plan = make_plan(annulus_env, graph)
    for src in range(8):
        path = next_chain(plan, src)
        assert path[0] == src and path[-1] == 1
        assert len(set(path)) == len(path)
        for a, b in zip(path, path[1:]):
            assert b in graph.neighbors(a)


def test_exit_map(annulus_env):
    graph = build_graph(annulus_env)
    plan = make_plan(annulus_env, graph)
    assert list(plan.entries) == list(range(8))
    assert plan.entries[1].exit_face is None
    assert np.array_equal(plan.goal, annulus_env.goal)
    for cid, entry in plan.entries.items():
        assert entry.cell_id == cid
        if cid == 1:
            continue
        # next_id lies across the entry's exit facet
        edge = graph.edge(cid, entry.next_id)
        assert edge.row_for(cid) == entry.exit_face


def test_exit_map_descends_to_goal(annulus_env):
    graph = build_graph(annulus_env)
    plan = make_plan(annulus_env, graph)
    hops = bfs_hops(graph, 1)
    for cid, entry in plan.entries.items():
        if cid == 1:
            continue
        assert hops[entry.next_id] == hops[cid] - 1
        # ties go to the smallest cell id
        assert entry.next_id == min(nb for nb in graph.neighbors(cid)
                                    if hops[nb] == hops[cid] - 1)


def test_patrol_plan(patrol_env):
    graph = build_graph(patrol_env)
    plan = make_plan(patrol_env, graph, mode="patrol")
    assert plan.mode == "patrol"
    assert list(plan.entries) == [0, 1]
    assert plan.goal is None
    for cid, entry in plan.entries.items():
        assert entry.exit_face is not None
        assert entry.next_id == 1 - cid
    # both entries exit through the shared facet, in opposite directions
    assert np.allclose(plan.entries[0].v, -plan.entries[1].v)


@pytest.mark.parametrize("cycle", [[0, 7], [7, 0]])
def test_patrol_plan_follows_the_cycle_order(annulus_env, cycle):
    env = Environment(annulus_env.cells, annulus_env.landmarks,
                      annulus_env.start, annulus_env.goal, patrol_cycle=cycle)
    plan = make_plan(env, build_graph(env), mode="patrol")
    assert list(plan.entries) == cycle
    assert [e.next_id for e in plan.entries.values()] == cycle[1:] + cycle[:1]


def test_start_outside_free_space(annulus_env):
    # no plan cell holds the start, in either mode, so the run stops before
    # it needs a controller
    patrol = Environment(annulus_env.cells, annulus_env.landmarks,
                         annulus_env.start, annulus_env.goal,
                         patrol_cycle=[0, 7])
    for env, mode in ((annulus_env, "stabilize"), (patrol, "patrol")):
        plan = make_plan(env, build_graph(env), mode)
        with pytest.raises(ConfigError, match="lies in no cell") as err:
            run_trajectory(env, plan, [], SimConfig(), x0=[-5.0, -5.0])
        assert err.value.field == "starts"


@pytest.mark.parametrize("cycle, pair, junction", [
    # cell 0's facet x = 20 runs from y = 0 to 20, but cell 1 holds only
    # y in [0, 10] of it; cell 7's facet x = 20 meets cell 6 above y = 40
    ([0, 1, 3, 4, 5, 6, 7], (0, 1), [20.0, 10.0]),
    ([7, 6, 5, 4, 3, 1, 0], (7, 6), [20.0, 40.0]),
], ids=["cell-0-to-1", "cell-7-to-6"])
def test_patrol_exit_must_be_the_shared_segment(annulus_env, cycle, pair,
                                                junction):
    env = Environment(annulus_env.cells, annulus_env.landmarks,
                      annulus_env.start, annulus_env.goal, patrol_cycle=cycle)
    with pytest.raises(ConfigError) as err:
        make_plan(env, build_graph(env), mode="patrol")
    assert err.value.field == "environment.patrol_cycle"
    assert ("from cell %d to cell %d" % pair) in str(err.value)
    assert ("T-junction %s" % junction) in str(err.value)
