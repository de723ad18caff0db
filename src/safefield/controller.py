"""Cell controllers and their file, with NumPy alone: nothing here solves
an LP, so simulate and field load no SciPy. A CellProblem states a cell's
program once: its cell, plan entry (which rows it carries, and whether it
stops at its goal), landmarks and all else its rows and PMF set depend on.
A CellController holds the gains solved for one (synthesis). A saved
controller names its rows and landmarks, so load_controllers checks it
against the run's plan and environment.
"""

import json

import numpy as np

from . import geometry, measurement
from .clfcbf import LinearDynamics, build_cell_rows
from .errors import ConfigError, DimensionMismatch
from .measurement import build_expectation_kernel


class GainBasis:
    """Feature maps turning a vectorized PMF into d-vector features: each map
    R_i is a d x n_p matrix. The mean map is required so plain mean-feedback
    controllers stay representable; the others enrich the gain space. A map
    named twice would add only redundant gain columns."""

    KNOWN = ("mean", "quadratic", "cosine")

    def __init__(self, names=KNOWN):
        if not isinstance(names, (list, tuple)):
            raise DimensionMismatch("feature maps must be a list of names, "
                                    "not %r" % (names,))
        names = tuple(names)
        bad = [n for n in names if n not in self.KNOWN]
        if bad:
            raise DimensionMismatch("unknown feature maps %r" % bad)
        if "mean" not in names:
            raise DimensionMismatch("the mean map is required")
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise DimensionMismatch("repeated feature maps %r" % repeated)
        self.names = names

    @property
    def n_k(self):
        return len(self.names)

    def matrices(self, kernel, width):
        """Evaluate every map on the grid behind kernel."""
        U = np.asarray(kernel, dtype=float)
        half = np.asarray(width, dtype=float)[:, None] / 2.0
        out = []
        for name in self.names:
            if name == "mean":
                out.append(U.copy())
            elif name == "quadratic":
                out.append(U * U)
            else:
                R = np.cos(np.pi * U / half)
                # cos(+-pi/2) rounds to 6.1e-17: store the exact zeros
                R[np.abs(R) <= 1e-15] = 0.0
                out.append(R)
        return out


class CellProblem:
    """The robust CLF/CBF program of one cell: the cell, its plan entry, the
    coordinates of the landmarks it reads (one per cell.landmark_ids), the
    dynamics, the CLF and CBF rates alpha_v and alpha_h, the error bounds,
    the measurement grid, the feature basis and, from these, v_floor, the
    goal cell's progress floor (None elsewhere). Parts that disagree (the
    cell's id and the entry's, landmark counts, cell and dynamics or
    landmark and grid dimensions) and no landmark raise DimensionMismatch."""

    def __init__(self, cell, entry, landmarks, dynamics, alpha_v, alpha_h,
                 bounds, grid, basis):
        self.cell = cell
        self.entry = entry
        self.landmarks = [np.asarray(p, dtype=float) for p in landmarks]
        self.dynamics = dynamics
        self.alpha_v = float(alpha_v)
        self.alpha_h = float(alpha_h)
        self.bounds = bounds
        self.grid = grid
        self.basis = basis
        self.v_floor = (goal_v_floor(entry, bounds, grid)
                        if entry.exit_face is None else None)
        if (cell.id != entry.cell_id
                or len(self.landmarks) != len(cell.landmark_ids)):
            raise DimensionMismatch("cell %s: entry, cell and landmarks "
                                    "disagree" % cell.id)
        if cell.body.dim != dynamics.d:
            raise DimensionMismatch("cell dimension does not match dynamics")
        if any(l.shape != (grid.dim,) for l in self.landmarks):
            raise DimensionMismatch("landmark dimension mismatch")
        if not self.landmarks:
            raise DimensionMismatch("need at least one landmark")

    def rows(self):
        """The entry's rows and the distinct regions they hold on
        (clfcbf.build_cell_rows)."""
        return build_cell_rows(self.cell.body, self.entry, self.dynamics,
                               self.alpha_v, self.alpha_h, self.v_floor)

    def features(self):
        """The basis's feature maps R_i on the grid, each d x n_p."""
        return self.basis.matrices(build_expectation_kernel(self.grid),
                                   self.grid.width)


def goal_v_floor(entry, bounds, spec):
    """Stability is only enforced where the progress function clears the
    worst-case sensing error, leaving the terminal plateau to the
    equilibrium equality."""
    return 2.0 * np.sum(np.abs(entry.v)) * (bounds.epsilon + max(spec.pitch))


class CellController:
    """Gains synthesized for a CellProblem, with the problem they solve.

    The gains and bias are fixed at construction, and so are the
    per-landmark control matrices built from them on the problem's feature
    maps: a controller is a constant of the closed loop, so a different law
    is a new controller. Synthesis raises before it could build a controller
    from any LP status but Optimal, so that is every controller's status."""

    status = "Optimal"

    def __init__(self, problem, gains, bias, margins, saturation=None):
        self.problem = problem
        self._gains = tuple(tuple(_frozen(Ki) for Ki in per_l)
                            for per_l in gains)
        self._bias = _frozen(bias)
        self.margins = np.asarray(margins, dtype=float)
        self.saturation = saturation
        shape = (problem.dynamics.n_u, problem.dynamics.d)
        if (len(self._gains) != len(problem.landmarks)
                or any(len(per_l) != problem.basis.n_k
                       for per_l in self._gains)
                or any(K.shape != shape for per_l in self._gains
                       for K in per_l)
                or self._bias.shape != shape[:1]
                or len(self.margins) != 1 + len(problem.entry.barriers)):
            raise DimensionMismatch(
                "cell %s: gains, bias, landmarks and rows disagree"
                % problem.cell.id)
        features = problem.features()
        self._control = tuple(
            _frozen(sum(K @ R for K, R in zip(per_landmark, features)))
            for per_landmark in self._gains
        )

    @property
    def gains(self):
        """gains[l][i]: the n_u x d gain of landmark l on feature map i."""
        return self._gains

    @property
    def bias(self):
        return self._bias

    def control_matrices(self):
        """Per-landmark n_u x n_p matrices sum_i K_li R_i acting on the
        vectorized PMF."""
        return self._control

    def to_dict(self):
        p = self.problem
        run = _run_fields(p.cell, p.entry, p.landmarks)
        return {
            "id": run.pop("id"),
            "basis": list(p.basis.names),
            "K": [[Ki.tolist() for Ki in per_l] for per_l in self.gains],
            "K_b": self.bias.tolist(),
            "delta": self.margins.tolist(),
            "alpha_v": p.alpha_v,
            "alpha_h": p.alpha_h,
            "epsilon": p.bounds.epsilon,
            "sigma_m": p.bounds.sigma_m,
            "grid": {"n": list(p.grid.n), "width": list(p.grid.width)},
            **run,
            "v_floor": p.v_floor,
            "dynamics": {"A": p.dynamics.A.tolist(), "B": p.dynamics.B.tolist()},
            "status": self.status,
            "saturation": self.saturation,
        }

    @classmethod
    def from_dict(cls, d, cell, entry, landmarks):
        """The controller to_dict wrote as d, its problem built from the
        cell, plan entry and landmark coordinates of a run whose run fields
        d has and from d's own fields. A malformed number, a status other
        than the class's and a v_floor other than the one the problem works
        out raise ConfigError naming its key (geometry.read)."""
        def read(key, convert=geometry.reals, section=d, prefix=""):
            return geometry.read(section, key, convert, None, prefix)

        def status(value):
            if value != cls.status:
                raise ValueError("%r is not %r" % (value, cls.status))

        real = geometry.real
        read("status", status)
        grid, dynamics, saturation = d["grid"], d["dynamics"], d["saturation"]
        if saturation is not None:
            saturation = {"max_u_vertices": read(
                "max_u_vertices", real, saturation, "saturation.")}
        problem = CellProblem(
            cell, entry, landmarks,
            dynamics=LinearDynamics(
                read("A", section=dynamics, prefix="dynamics."),
                read("B", section=dynamics, prefix="dynamics.")),
            alpha_v=read("alpha_v", real),
            alpha_h=read("alpha_h", real),
            bounds=measurement.UncertaintyBounds(read("epsilon", real),
                                                 read("sigma_m", real)),
            grid=measurement.GridSpec(
                read("n", geometry.integers, grid, "grid."),
                read("width", section=grid, prefix="grid.")),
            basis=GainBasis(d["basis"]),
        )
        saved = read("v_floor", lambda v: v if v is None else real(v))
        if saved != problem.v_floor:
            raise ConfigError("%s is not %s, the goal floor epsilon and grid give"
                              % (saved, problem.v_floor), field="v_floor")
        return cls(problem, read("K"), read("K_b"), read("delta"), saturation)


def _run_fields(cell, entry, landmarks):
    """The fields of a saved controller that its run decides: its cell's
    plan entry and landmarks. to_dict writes id first, the rest after grid."""
    return {
        "id": cell.id,
        "landmark_ids": list(cell.landmark_ids),
        "landmarks": [p.tolist() for p in landmarks],
        "kinds": ["clf"] + ["cbf"] * len(entry.barriers),
        "facets": [None] + entry.barriers,
        "v": entry.v.tolist(),
        "o": entry.o.tolist(),
        "exit_face": entry.exit_face,
    }


def _frozen(a):
    """A read-only float copy of a."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def save_controllers(controllers, path):
    with open(path, "w") as fh:
        json.dump([c.to_dict() for c in controllers.values()], fh, indent=2)
        fh.write("\n")


def load_controllers(path, env, plan):
    """The controllers save_controllers wrote to path, keyed by cell id in
    file order, each carrying its cell of env, that cell's entry of plan
    and its landmarks of env.
    An empty list or anything but such a list, a cell that plan lacks or
    that the file lists twice, a run field (_run_fields) that differs from
    the run's and a malformed entry raise ConfigError naming the file and
    the controller (controllers.<k>, or controllers.<k>.<key>)."""
    data = geometry.load_json(path, "controllers")
    if not isinstance(data, list) or not data:
        raise ConfigError("controllers must be a list of at least one "
                          "controller", path=path, field="controllers")
    controllers = {}
    for k, saved in enumerate(data):
        field = "controllers.%d" % k
        try:
            cell_id = saved["id"]
            entry = plan.entries.get(cell_id)
            if entry is None:
                reason = "the run's plan has no cell %r" % (cell_id,)
            elif cell_id in controllers:
                reason = "cell %d is listed twice" % cell_id
            else:
                cell = env.cell_by_id(cell_id)
                landmarks = [env.landmarks[j] for j in cell.landmark_ids]
                differ = [key for key, value
                          in _run_fields(cell, entry, landmarks).items()
                          if saved[key] != value]
                if not differ:
                    controllers[cell_id] = CellController.from_dict(
                        saved, cell, entry, landmarks)
                    continue
                reason = ("cell %d was synthesized for another plan or "
                          "environment (%s differ); run synth again"
                          % (cell_id, ", ".join(differ)))
        except ConfigError as exc:
            reason, field = exc.reason, "%s.%s" % (field, exc.field)
        except KeyError as exc:
            reason = "controller lacks key %s" % exc
        except (TypeError, ValueError, DimensionMismatch) as exc:
            reason = "malformed controller: %s" % exc
        raise ConfigError(reason, path=path, field=field)
    return controllers
