"""Measurement-robust per-cell feedback synthesis over convex decompositions.

The package synthesizes linear feedback over sensed landmark PMFs, cell by
cell, so that a stability (exit-progress) certificate and safety (barrier)
certificates hold for every measurement distribution consistent with the
sensor's support and deviation bounds. Controllers are certified by LP
duality at synthesis time and re-checked by an independent adversary: a
batched NumPy simplex over the consistent PMFs, started from a consistent
PMF in closed form, with a full LP (adversarial_pmf) as its test oracle.
"""

import importlib

from .clfcbf import (
    ConstraintRow,
    LinearDynamics,
    build_cbf_rows,
    build_clf_row,
)
from .controller import (CellController, CellProblem, GainBasis,
                         load_controllers, save_controllers)
from .errors import (
    ClosedLoopFailure,
    ConfigError,
    DegenerateInput,
    DimensionMismatch,
    DisconnectedFreeSpace,
    GoalNotVertex,
    GoalObservationOffGrid,
    GridMismatch,
    InfeasibleMeasurementSet,
    LandmarkNotVisible,
    LandmarkOutOfView,
    LeftFreeSpace,
    NonConvexInput,
    NumericalFailure,
    OffGridReading,
    OffPlanCrossing,
    SafeFieldError,
    SafetyViolation,
    SolverError,
    SolverFailure,
    SynthesisInfeasible,
    UnboundedPolytope,
    VerificationFailed,
)
from .geometry import (
    ConvexCell,
    Environment,
    HalfspaceSet,
    cell_vertices,
    environment_from_dict,
    polygon_to_halfspaces,
)
from .measurement import (
    GridSpec,
    PmfGrid,
    UncertaintyBounds,
    blur_pmf,
    build_expectation_kernel,
    make_delta_pmf,
)
from .planning import (
    CellGraph,
    HighLevelPlan,
    PlanEntry,
    build_graph,
    goal_cell_id,
    make_plan,
)
from .simulation import (
    SensorModel,
    SimConfig,
    Trajectory,
    control_input,
    run_trajectory,
    sample_vector_field,
)

__version__ = "0.1.0"

# the LP modules load SciPy, so they and their names load on first read
_LAZY = {"lp_core": ("LpSolution", "StandardLp", "solve_lp"),
         "synthesis": ("assemble_robust_lp", "synthesize_cell_controller",
                       "synthesize_environment"),
         "verification": ("VerificationReport", "adversarial_pmf",
                          "verify_controller", "verify_environment",
                          "worst_case_row_values")}


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            found = importlib.import_module("." + module, __name__)
            return found if name == module else getattr(found, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
