import numpy as np
import pytest

from safefield.errors import ConfigError, DisconnectedFreeSpace
from safefield.geometry import ConvexCell, Environment, polygon_to_halfspaces
from safefield.planning import (
    build_graph,
    goal_cell_id,
    goal_entry,
    make_plan,
)
from safefield.simulation import SimConfig, run_trajectory


def two_squares():
    """Unit squares side by side; goal at the far bottom-right vertex."""
    a = ConvexCell(0, polygon_to_halfspaces(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), [0])
    b = ConvexCell(1, polygon_to_halfspaces(
        [[1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0]]), [1])
    return Environment([a, b], [[0.0, 0.0], [2.0, 0.0]],
                       [0.5, 0.5], [2.0, 0.0])


def test_disconnected_cells_raise():
    # the second square touches the first at no facet
    a = ConvexCell(0, polygon_to_halfspaces(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), [0])
    b = ConvexCell(1, polygon_to_halfspaces(
        [[3.0, 0.0], [4.0, 0.0], [4.0, 1.0], [3.0, 1.0]]), [1])
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


@pytest.mark.parametrize("cycle", [[7, 6, 5, 4, 3, 1, 0], [3, 4, 5, 6, 7, 0, 1]])
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
                         patrol_cycle=[0, 1, 3, 4, 5, 6, 7])
    for env, mode in ((annulus_env, "stabilize"), (patrol, "patrol")):
        plan = make_plan(env, build_graph(env), mode)
        with pytest.raises(ConfigError, match="lies in no cell") as err:
            run_trajectory(env, plan, [], SimConfig(), x0=[-5.0, -5.0])
        assert err.value.field == "starts"
