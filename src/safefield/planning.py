"""Cell adjacency, shortest cell paths and exit-face assignment.

Each plan entry fixes, for one cell, the facet the robot should leave
through and the linear progress function V(x) = v . (x - o), built so that
V >= 0 over the whole cell and V = 0 on the exit facet (or only at the goal
when the plan terminates there).
"""

import numpy as np

from .errors import DisconnectedFreeSpace, GoalNotVertex, NoPath

FACE_MATCH_TOL = 1e-8
OVERLAP_TOL = 1e-8


class EdgeInfo:
    """Shared facet between two cells."""

    def __init__(self, cell_a, row_a, cell_b, row_b, segment):
        self.cell_a = cell_a
        self.row_a = row_a
        self.cell_b = cell_b
        self.row_b = row_b
        self.segment = np.asarray(segment, dtype=float)

    @property
    def midpoint(self):
        return 0.5 * (self.segment[0] + self.segment[1])

    def row_for(self, cell_id):
        if cell_id == self.cell_a:
            return self.row_a
        if cell_id == self.cell_b:
            return self.row_b
        raise KeyError(cell_id)


class CellGraph:
    def __init__(self, cell_ids, edges):
        self.cell_ids = list(cell_ids)
        self.edges = {}
        self._adj = {cid: [] for cid in self.cell_ids}
        for e in edges:
            self.edges[frozenset((e.cell_a, e.cell_b))] = e
            self._adj[e.cell_a].append(e.cell_b)
            self._adj[e.cell_b].append(e.cell_a)
        for cid in self._adj:
            self._adj[cid] = sorted(set(self._adj[cid]))

    def neighbors(self, cell_id):
        return list(self._adj[cell_id])

    def edge(self, a, b):
        return self.edges[frozenset((a, b))]


def _facet_segment(cell, row):
    V = cell.vertices
    on = [v for v in V if abs(cell.body.A[row] @ v + cell.body.b[row]) <= FACE_MATCH_TOL]
    if len(on) < 2:
        return None
    pts = np.array(on)
    t = np.array([-cell.body.A[row, 1], cell.body.A[row, 0]])
    s = pts @ t
    return pts[np.argmin(s)], pts[np.argmax(s)], float(np.min(s)), float(np.max(s)), t


def build_graph(env):
    """Adjacency graph over cells sharing a facet segment of positive length."""
    edges = []
    cells = env.cells
    for ia in range(len(cells)):
        for ib in range(ia + 1, len(cells)):
            a, b = cells[ia], cells[ib]
            best = None
            for ra in range(a.body.n_rows):
                for rb in range(b.body.n_rows):
                    if np.linalg.norm(a.body.A[ra] + b.body.A[rb]) > FACE_MATCH_TOL:
                        continue
                    if abs(a.body.b[ra] + b.body.b[rb]) > FACE_MATCH_TOL:
                        continue
                    sa = _facet_segment(a, ra)
                    sb = _facet_segment(b, rb)
                    if sa is None or sb is None:
                        continue
                    t = sa[4]
                    lo = max(sa[2], min(sb[0] @ t, sb[1] @ t))
                    hi = min(sa[3], max(sb[0] @ t, sb[1] @ t))
                    if hi - lo <= OVERLAP_TOL:
                        continue
                    n = a.body.A[ra]
                    base = sa[0] - (sa[0] @ t) * t
                    seg = np.stack([base + lo * t, base + hi * t])
                    # re-project onto the facet line to kill drift from base choice
                    seg = seg - ((seg @ n + a.body.b[ra])[:, None]) * n[None, :]
                    cand = EdgeInfo(a.id, ra, b.id, rb, seg)
                    if best is None or hi - lo > np.linalg.norm(best.segment[1] - best.segment[0]):
                        best = cand
            if best is not None:
                edges.append(best)
    graph = CellGraph([c.id for c in cells], edges)
    if graph.cell_ids:
        seen = _bfs_distances(graph, graph.cell_ids[0])
        if len(seen) != len(graph.cell_ids):
            missing = sorted(set(graph.cell_ids) - set(seen))
            raise DisconnectedFreeSpace("cells %s unreachable from cell %d" % (missing, graph.cell_ids[0]))
    return graph


def _bfs_distances(graph, target):
    dist = {target: 0}
    queue = [target]
    while queue:
        cur = queue.pop(0)
        for nb in graph.neighbors(cur):
            if nb not in dist:
                dist[nb] = dist[cur] + 1
                queue.append(nb)
    return dist


def shortest_cell_path(graph, src, dst):
    """Shortest path by cell count; ties broken toward the smallest cell id."""
    dist = _bfs_distances(graph, dst)
    if src not in dist:
        raise NoPath("no cell path from %s to %s" % (src, dst))
    path = [src]
    cur = src
    while cur != dst:
        nxt = min(nb for nb in graph.neighbors(cur) if dist.get(nb, np.inf) == dist[cur] - 1)
        path.append(nxt)
        cur = nxt
    return path


class PlanEntry:
    """Exit assignment for one cell: leave through exit_face with progress
    v . (x - o), or stabilize at o when exit_face is None."""

    def __init__(self, cell_id, exit_face, v, o):
        self.cell_id = cell_id
        self.exit_face = exit_face
        self.v = np.asarray(v, dtype=float)
        self.o = np.asarray(o, dtype=float)

    def progress(self, x):
        return float(self.v @ (np.asarray(x, dtype=float) - self.o))


class HighLevelPlan:
    def __init__(self, mode, entries, goal=None):
        self.mode = mode
        self.entries = list(entries)
        self.goal = None if goal is None else np.asarray(goal, dtype=float)

    @property
    def cell_ids(self):
        return [e.cell_id for e in self.entries]


def _transit_entry(env, graph, cell_id, next_id):
    edge = graph.edge(cell_id, next_id)
    row = edge.row_for(cell_id)
    cell = env.cell_by_id(cell_id)
    v = -cell.body.A[row]
    return PlanEntry(cell_id, row, v, edge.midpoint)


def goal_entry(env, cell_id, tol=1e-9):
    """Terminal entry for the cell carrying the goal vertex: o is the goal,
    v points from the goal toward the vertex centroid, and the progress
    function v.(x - o) must be non-negative on the whole cell."""
    cell = env.cell_by_id(cell_id)
    verts = cell.vertices
    v = verts.mean(axis=0) - env.goal
    nv = np.linalg.norm(v)
    if nv < tol:
        raise GoalNotVertex("goal coincides with the centroid of cell %d" % cell_id)
    entry = PlanEntry(cell_id, None, v / nv, env.goal)
    worst = min(entry.progress(vx) for vx in verts)
    if worst < -1e-9:
        raise GoalNotVertex(
            "progress function dips to %.3g at a vertex of goal cell %d" % (worst, cell_id)
        )
    return entry


def goal_cell_id(env, tol=1e-9):
    """Smallest-id cell containing the goal."""
    ids = [c.id for c in env.cells if c.contains(env.goal, tol=tol)]
    if not ids:
        raise GoalNotVertex("goal is not inside any cell")
    return min(ids)


def plan_from_start(env, graph, start=None, mode="stabilize"):
    """Plan the cell sequence from the start point.

    stabilize: shortest path to the goal cell, terminal entry at the goal.
    patrol: the environment's patrol cycle, every entry a transit entry.
    """
    start = env.start if start is None else np.asarray(start, dtype=float)
    if mode == "patrol":
        cycle = env.patrol_cycle
        if not cycle:
            raise NoPath("patrol mode requires a patrol cycle")
        entries = []
        for idx, cid in enumerate(cycle):
            nxt = cycle[(idx + 1) % len(cycle)]
            entries.append(_transit_entry(env, graph, cid, nxt))
        for e in entries:
            env.cell_by_id(e.cell_id).exit_face = e.exit_face
        return HighLevelPlan("patrol", entries)
    ids = [c.id for c in env.cells if c.contains(start)]
    if not ids:
        raise NoPath("start point is not inside any cell")
    path = shortest_cell_path(graph, min(ids), goal_cell_id(env))
    entries = [
        _transit_entry(env, graph, path[i], path[i + 1]) for i in range(len(path) - 1)
    ]
    entries.append(goal_entry(env, path[-1]))
    for e in entries:
        cell = env.cell_by_id(e.cell_id)
        cell.exit_face = e.exit_face
    return HighLevelPlan("stabilize", entries, goal=env.goal)


def exit_map_to_goal(env, graph):
    """One plan entry per cell, each pointing one BFS hop closer to the goal."""
    gid = goal_cell_id(env)
    dist = _bfs_distances(graph, gid)
    entries = {}
    for cell in env.cells:
        if cell.id == gid:
            entries[cell.id] = goal_entry(env, cell.id)
        else:
            if cell.id not in dist:
                raise NoPath("cell %d cannot reach the goal cell" % cell.id)
            nxt = min(nb for nb in graph.neighbors(cell.id) if dist[nb] == dist[cell.id] - 1)
            entries[cell.id] = _transit_entry(env, graph, cell.id, nxt)
        cell.exit_face = entries[cell.id].exit_face
    return entries
