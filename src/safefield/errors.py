"""Exception types shared across the package."""


class SafeFieldError(Exception):
    """Base class for every error raised by this package."""


class NonConvexInput(SafeFieldError):
    """Polygon vertices do not describe a convex region."""


class DegenerateInput(SafeFieldError):
    """Geometric input collapses to lower dimension (repeated points, zero area)."""


class UnboundedPolytope(SafeFieldError):
    """Halfspace set does not bound a finite region."""


class ConfigError(SafeFieldError):
    """Bad or missing field in a run configuration. The message names the
    file and the field, each where it is known."""

    def __init__(self, message, path=None, field=None):
        self.reason = message
        where = ", ".join("%s %s" % (part, value) for part, value
                          in (("file", path), ("field", field))
                          if value is not None)
        if where:
            message = "%s (%s)" % (message, where)
        super().__init__(message)
        self.path = path
        self.field = field


class DisconnectedFreeSpace(ConfigError):
    """Cell adjacency graph is not connected: a fault of environment.cells."""


class GoalNotVertex(ConfigError):
    """Goal point is not placed as required: a fault of environment.goal."""


class LandmarkOutOfView(SafeFieldError):
    """A landmark out of view: an unknown id, or an offset off the grid."""


class LandmarkNotVisible(SafeFieldError):
    """Landmark offset leaves the measurement grid somewhere in the cell."""


class DimensionMismatch(SafeFieldError):
    """Inconsistent dimensions between coupled inputs."""


class SolverError(SafeFieldError):
    """An LP solve failed: no usable answer, an infeasible cell or an answer
    that fails its checks. The CLI exits 3 on any of them."""


class NumericalFailure(SolverError):
    """Solver returned an answer that fails basic sanity checks. Where one
    instance of a batch failed, index names it."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class SolverFailure(SolverError):
    """LP solver stopped without a usable status."""


class SynthesisInfeasible(SolverError):
    """No gain matrix satisfies the robust constraints for this cell."""


class GoalObservationOffGrid(SafeFieldError):
    """Expected observation at the goal lies outside the measurement grid."""


class InfeasibleMeasurementSet(SafeFieldError):
    """No distribution is consistent with the stated error bounds at this state."""


class VerificationFailed(SafeFieldError):
    """A synthesized controller violates a certified constraint."""

    def __init__(self, message, cell_id=None, x=None, row=None, slack=None):
        super().__init__(message)
        self.cell_id = cell_id
        self.x = x
        self.row = row
        self.slack = slack


class GridMismatch(SafeFieldError):
    """Measurement grid is incompatible with the controller's grid."""


class ClosedLoopFailure(SafeFieldError):
    """A simulated run failed at time t in state x, with cell_id's
    controller active; trajectory holds the run up to that step. The CLI
    writes that trajectory, fails the start and exits 1."""

    def __init__(self, message, t=None, x=None, cell_id=None, trajectory=None):
        super().__init__(message)
        self.t = t
        self.x = x
        self.cell_id = cell_id
        self.trajectory = trajectory


class SafetyViolation(ClosedLoopFailure):
    """Simulated state crossed an obstacle facet."""

    def __init__(self, message, facet=None, **run):
        super().__init__(message, **run)
        self.facet = facet


class LeftFreeSpace(ClosedLoopFailure):
    """Simulated state left the union of all cells."""


class OffGridReading(ClosedLoopFailure):
    """In closed loop, the active controller read a landmark past the edge
    of its measurement grid: the state had drifted out of the controller's
    cell (through a shared face, by less than one step) to where the
    landmark is out of view. The cell's certificate does not cover that
    state."""


class OffPlanCrossing(ClosedLoopFailure):
    """Simulated patrol crossed its exit facet into a cell other than the
    planned successor."""

    def __init__(self, message, planned=None, **run):
        super().__init__(message, **run)
        self.planned = planned
