"""Measurement-robust per-cell feedback synthesis over convex decompositions.

The package synthesizes linear feedback over sensed landmark PMFs, cell by
cell, so that a stability (exit-progress) certificate and safety (barrier)
certificates hold for every measurement distribution consistent with the
sensor's support and deviation bounds. Controllers are certified by LP
duality at synthesis time and re-checked by an independent adversarial LP.
"""

from .clfcbf import (
    ConstraintRow,
    LinearDynamics,
    build_cbf_rows,
    build_clf_row,
)
from .errors import (
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
    OffPlanCrossing,
    SafeFieldError,
    SafetyViolation,
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
from .lp_core import LpSolution, StandardLp, solve_lp
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
from .synthesis import (
    CellController,
    CellProblem,
    GainBasis,
    assemble_robust_lp,
    load_controllers,
    save_controllers,
    synthesize_cell_controller,
    synthesize_environment,
)
from .verification import (
    VerificationReport,
    adversarial_pmf,
    verify_controller,
    verify_environment,
    worst_case_row_values,
)

__version__ = "0.1.0"
