import numpy as np
import pytest

from safefield.errors import DisconnectedFreeSpace, NoPath
from safefield.geometry import ConvexCell, Environment, polygon_to_halfspaces
from safefield.planning import (
    build_graph,
    exit_map_to_goal,
    goal_cell_id,
    goal_entry,
    plan_from_start,
    shortest_cell_path,
)


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
    plan = plan_from_start(env, build_graph(env))
    assert plan.mode == "stabilize"
    assert plan.cell_ids == [0, 1]
    first = plan.entries[0]
    # exit direction is the inward normal of the shared facet of cell 0
    assert np.allclose(first.v, [-1.0, 0.0])
    assert np.allclose(first.o, [1.0, 0.5])
    assert first.progress([0.25, 0.5]) > 0
    assert first.progress([1.25, 0.5]) < 0
    assert abs(first.progress([1.0, 0.9])) <= 1e-12


def test_goal_entry_nonnegative_over_cell():
    env = two_squares()
    entry = goal_entry(env, 1)
    assert entry.exit_face is None
    cell = env.cell_by_id(1)
    vals = [entry.progress(v) for v in cell.vertices]
    assert min(vals) >= -1e-9
    assert abs(entry.progress(env.goal)) <= 1e-9


def test_goal_cell_id(annulus_env):
    assert goal_cell_id(annulus_env) == 1


def test_annulus_shortest_paths(annulus_env):
    graph = build_graph(annulus_env)
    assert shortest_cell_path(graph, 7, 1) == [7, 0, 1]
    assert shortest_cell_path(graph, 6, 1) == [6, 7, 0, 1]
    assert shortest_cell_path(graph, 5, 1) == [5, 4, 3, 1]
    assert shortest_cell_path(graph, 1, 1) == [1]


def test_bfs_path_properties(annulus_env):
    graph = build_graph(annulus_env)
    for src in range(8):
        path = shortest_cell_path(graph, src, 1)
        assert path[0] == src and path[-1] == 1
        assert len(set(path)) == len(path)
        for a, b in zip(path, path[1:]):
            assert b in graph.neighbors(a)


def test_exit_map(annulus_env):
    graph = build_graph(annulus_env)
    entries = exit_map_to_goal(annulus_env, graph)
    assert set(entries) == set(range(8))
    assert entries[1].exit_face is None
    for cid, entry in entries.items():
        if cid == 1:
            continue
        edge = graph.edge(cid, _successor(annulus_env, graph, entry))
        assert edge.row_for(cid) == entry.exit_face


def _successor(env, graph, entry):
    # the neighbor across the exit facet one hop closer to the goal
    best = None
    for nb in graph.neighbors(entry.cell_id):
        if graph.edge(entry.cell_id, nb).row_for(entry.cell_id) == entry.exit_face:
            best = nb if best is None else min(best, nb)
    assert best is not None
    return best


def test_exit_map_descends_to_goal(annulus_env):
    graph = build_graph(annulus_env)
    entries = exit_map_to_goal(annulus_env, graph)
    hops = {cid: len(shortest_cell_path(graph, cid, 1)) for cid in range(8)}
    for cid in range(8):
        if cid == 1:
            continue
        nxt = _successor(annulus_env, graph, entries[cid])
        assert hops[nxt] == hops[cid] - 1


def test_patrol_plan(patrol_env):
    graph = build_graph(patrol_env)
    plan = plan_from_start(patrol_env, graph, mode="patrol")
    assert plan.mode == "patrol"
    assert plan.cell_ids == [0, 1]
    for entry in plan.entries:
        assert entry.exit_face is not None
    # both entries exit through the shared facet, in opposite directions
    assert np.allclose(plan.entries[0].v, -plan.entries[1].v)


def test_start_outside_free_space(annulus_env):
    graph = build_graph(annulus_env)
    with pytest.raises(NoPath):
        plan_from_start(annulus_env, graph, start=np.array([-5.0, -5.0]))
