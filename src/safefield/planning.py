"""Cell adjacency and the exit map: one exit facet per planned cell.

Each plan entry fixes, for one cell, the facet the robot should leave
through and the linear progress function V(x) = v . (x - o), built so that
V >= 0 over the whole cell and V = 0 on the exit facet (or only at the goal
when the plan terminates there).
"""

import numpy as np

from .errors import ConfigError, DisconnectedFreeSpace, GoalNotVertex

FACE_MATCH_TOL = 1e-8
OVERLAP_TOL = 1e-8
GOAL_TOL = 1e-9  # goal-to-centroid distance, and progress dip at a vertex


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
    pts = V[np.abs(V @ cell.body.A[row] + cell.body.b[row]) <= FACE_MATCH_TOL]
    if len(pts) < 2:
        return None
    t = np.array([-cell.body.A[row, 1], cell.body.A[row, 0]])
    s = pts @ t
    return pts[np.argmin(s)], pts[np.argmax(s)], float(np.min(s)), float(np.max(s)), t


def build_graph(env):
    """Adjacency graph over cells sharing a facet segment of positive length.

    Only facet rows of two cells on one line with opposite normals can share
    one; those row pairs are found for all cells at once, in cell-pair and
    then row-pair order, and each facet's segment is computed once."""
    cells = env.cells
    facets = [(i, r) for i, c in enumerate(cells) for r in range(c.body.n_rows)]
    owner = np.array([i for i, _ in facets])
    A = np.vstack([c.body.A for c in cells])
    b = np.concatenate([c.body.b for c in cells])
    opposite = ((np.linalg.norm(A[:, None] + A[None], axis=2) <= FACE_MATCH_TOL)
                & (np.abs(b[:, None] + b[None]) <= FACE_MATCH_TOL)
                & (owner[:, None] < owner[None]))
    segments = {}
    best = {}
    for p, q in zip(*(k.tolist() for k in np.nonzero(opposite))):
        for k in (p, q):
            if k not in segments:
                segments[k] = _facet_segment(cells[facets[k][0]], facets[k][1])
        (ia, ra), (ib, rb) = facets[p], facets[q]
        sa, sb = segments[p], segments[q]
        if sa is None or sb is None:
            continue
        t = sa[4]
        lo = max(sa[2], min(sb[0] @ t, sb[1] @ t))
        hi = min(sa[3], max(sb[0] @ t, sb[1] @ t))
        if hi - lo <= OVERLAP_TOL:
            continue
        a = cells[ia]
        n = a.body.A[ra]
        base = sa[0] - (sa[0] @ t) * t
        seg = np.stack([base + lo * t, base + hi * t])
        # re-project onto the facet line to kill drift from base choice
        seg = seg - ((seg @ n + a.body.b[ra])[:, None]) * n[None, :]
        prev = best.get((ia, ib))
        if prev is None or hi - lo > np.linalg.norm(prev.segment[1] - prev.segment[0]):
            best[ia, ib] = EdgeInfo(a.id, ra, cells[ib].id, rb, seg)
    edges = [best[pair] for pair in sorted(best)]
    graph = CellGraph([c.id for c in cells], edges)
    if graph.cell_ids:
        seen = _bfs_distances(graph, graph.cell_ids[0])
        if len(seen) != len(graph.cell_ids):
            missing = sorted(set(graph.cell_ids) - set(seen))
            raise DisconnectedFreeSpace("cells %s unreachable from cell %d" % (
                missing, graph.cell_ids[0]), field="environment.cells")
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


class PlanEntry:
    """What one cell's controller must certify: leave through exit_face into
    cell next_id with progress v . (x - o), or stabilize at o when exit_face
    (and next_id) is None, and never cross a facet row in barriers."""

    def __init__(self, cell_id, exit_face, v, o, next_id=None, barriers=()):
        self.cell_id = cell_id
        self.exit_face = exit_face
        self.v = np.asarray(v, dtype=float)
        self.o = np.asarray(o, dtype=float)
        self.next_id = next_id
        self.barriers = list(barriers)

    def progress(self, x):
        """V(x) = v . (x - o) as a Python float, for x a sequence of
        numbers."""
        return float(self.v.dot(x - self.o))


class HighLevelPlan:
    """The exit map of one run: entries maps each planned cell id to its
    PlanEntry, in cycle order for patrol and in id order for stabilize."""

    def __init__(self, mode, entries, goal=None):
        self.mode = mode
        self.entries = dict(entries)
        self.goal = None if goal is None else np.asarray(goal, dtype=float)


def _transit_entry(env, graph, cell_id, next_id):
    """Leave through the facet shared with next_id, guarding all others."""
    edge = graph.edge(cell_id, next_id)
    row = edge.row_for(cell_id)
    cell = env.cell_by_id(cell_id)
    v = -cell.body.A[row]
    barriers = [j for j in range(cell.body.n_rows) if j != row]
    return PlanEntry(cell_id, row, v, edge.midpoint, next_id, barriers)


def _t_junction(cell, edge):
    """An end of edge's shared segment that lies inside cell's facet on it
    rather than at a facet end, or None when the facet is the segment."""
    facet = _facet_segment(cell, edge.row_for(cell.id))
    for point in edge.segment:
        if min(np.linalg.norm(point - facet[0]),
               np.linalg.norm(point - facet[1])) > OVERLAP_TOL:
            return point
    return None


def goal_entry(env, graph, cell_id):
    """Terminal entry for the cell carrying the goal vertex: o is the goal,
    v points from the goal toward the vertex centroid, and the progress
    function v.(x - o) must be non-negative on the whole cell. Its barriers
    are the facets that no neighbour shares."""
    cell = env.cell_by_id(cell_id)
    verts = cell.vertices
    v = verts.mean(axis=0) - env.goal
    nv = np.linalg.norm(v)
    if nv < GOAL_TOL:
        raise GoalNotVertex("goal coincides with the centroid of cell %d"
                            % cell_id, field="environment.goal")
    shared = {graph.edge(cell_id, nb).row_for(cell_id)
              for nb in graph.neighbors(cell_id)}
    barriers = [j for j in range(cell.body.n_rows) if j not in shared]
    entry = PlanEntry(cell_id, None, v / nv, env.goal, barriers=barriers)
    worst = min(entry.progress(vx) for vx in verts)
    if worst < -GOAL_TOL:
        raise GoalNotVertex(
            "progress function dips to %.3g at a vertex of goal cell %d"
            % (worst, cell_id), field="environment.goal")
    return entry


def goal_cell_id(env):
    """Smallest-id cell containing the goal."""
    ids = [c.id for c in env.cells if c.contains(env.goal)]
    if not ids:
        raise GoalNotVertex("goal is not inside any cell",
                            field="environment.goal")
    return min(ids)


def make_plan(env, graph, mode="stabilize"):
    """The one plan of a run, which synthesis solves for and the simulator
    follows.

    stabilize: every cell, in id order, exits one BFS hop closer to the
    goal cell (ties toward the smallest cell id; build_graph has checked
    that every cell reaches it); the goal cell stabilizes at the goal.
    patrol: the environment's patrol cycle, each cell exiting into the
    next; a cycle must visit each cell once, and each exit facet must be
    exactly the segment its cell shares with the next, since the CLF row
    promises only that the state leaves through the exit facet.
    """
    if mode == "patrol":
        cycle = env.patrol_cycle
        if not cycle:
            raise ConfigError("patrol mode requires a patrol cycle",
                              field="environment.patrol_cycle")
        entries = {}
        for idx, cid in enumerate(cycle):
            nxt = cycle[(idx + 1) % len(cycle)]
            if frozenset((cid, nxt)) not in graph.edges:
                raise ConfigError(
                    "patrol cycle steps from cell %r to cell %r, which are "
                    "not two distinct cells sharing a facet" % (cid, nxt),
                    field="environment.patrol_cycle")
            if cid in entries:
                raise ConfigError(
                    "patrol cycle visits cell %r twice; a cell has one "
                    "exit facet" % cid, field="environment.patrol_cycle")
            junction = _t_junction(env.cell_by_id(cid), graph.edge(cid, nxt))
            if junction is not None:
                raise ConfigError(
                    "patrol cycle steps from cell %r to cell %r through an "
                    "exit facet longer than the segment they share, which "
                    "ends at the T-junction %s"
                    % (cid, nxt, junction.tolist()),
                    field="environment.patrol_cycle")
            entries[cid] = _transit_entry(env, graph, cid, nxt)
        return HighLevelPlan("patrol", entries)
    gid = goal_cell_id(env)
    dist = _bfs_distances(graph, gid)
    entries = {}
    for cid in sorted(c.id for c in env.cells):
        if cid == gid:
            entries[cid] = goal_entry(env, graph, cid)
        else:
            nxt = min(nb for nb in graph.neighbors(cid)
                      if dist[nb] == dist[cid] - 1)
            entries[cid] = _transit_entry(env, graph, cid, nxt)
    return HighLevelPlan("stabilize", entries, goal=env.goal)
