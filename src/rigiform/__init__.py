"""Distance-based formation control with per-edge disturbance rejection.

Agents hold a rigid shape by descending squared-distance errors along
their edges.  When the two endpoints of an edge disagree about the
measured distance, the plain gradient law settles into steady collective
motion instead of stopping; equipping each edge's estimating agent with an
internal model of the disagreement restores convergence.  The package
certifies target formations (rigidity ranks, stability spectra), builds
minimally rigid formations by vertex insertion, integrates the closed
loop deterministically, and ships a CLI around all of it.
"""

from .analysis import (
    HURWITZ_TOL,
    AssignmentRule,
    StabilityReport,
    certify,
    is_hurwitz,
    select_estimating_agents,
    stability_matrix,
    transformed_coords,
)
from .controller import (
    MODES,
    ControllerConfig,
    consistent_errors,
)
from .disturbance import (
    DisturbanceSpec,
    EdgeDisturbance,
    ExosystemState,
    InternalModelBasis,
    check_observability,
    default_basis,
    exosystem_initial_state,
    exosystem_output,
    lambda_matrix,
    mu_closed_form,
)
from .rigidity import (
    RANK_TOL,
    ConstructionTrace,
    FormationGraph,
    Framework,
    InsertionStep,
    build_from_trace,
    edge_function,
    is_infinitesimally_rigid,
    is_minimally_rigid,
    numeric_rank,
    random_trace,
    rigid_rank_target,
    rigidity_matrix,
    s1_matrix,
    s2_matrix,
    trace_distances,
    trace_graph,
)
from .scenario import (
    BUILTIN_NAMES,
    Scenario,
    ScenarioError,
    builtin_scenario,
    generate_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .sim import (
    DIVERGENCE_GUARD,
    RunVerdict,
    SimState,
    Trajectory,
    closed_loop_derivative,
    initial_state,
    integrate,
    propagate_exosystem,
    run_verdict,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentRule",
    "BUILTIN_NAMES",
    "ConstructionTrace",
    "ControllerConfig",
    "DIVERGENCE_GUARD",
    "DisturbanceSpec",
    "EdgeDisturbance",
    "ExosystemState",
    "FormationGraph",
    "Framework",
    "HURWITZ_TOL",
    "InsertionStep",
    "InternalModelBasis",
    "MODES",
    "RANK_TOL",
    "RunVerdict",
    "Scenario",
    "ScenarioError",
    "SimState",
    "StabilityReport",
    "Trajectory",
    "build_from_trace",
    "builtin_scenario",
    "certify",
    "check_observability",
    "closed_loop_derivative",
    "consistent_errors",
    "default_basis",
    "edge_function",
    "exosystem_initial_state",
    "exosystem_output",
    "generate_scenario",
    "initial_state",
    "integrate",
    "is_hurwitz",
    "is_infinitesimally_rigid",
    "is_minimally_rigid",
    "lambda_matrix",
    "load_scenario",
    "mu_closed_form",
    "numeric_rank",
    "propagate_exosystem",
    "random_trace",
    "rigid_rank_target",
    "rigidity_matrix",
    "run_verdict",
    "s1_matrix",
    "s2_matrix",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "select_estimating_agents",
    "stability_matrix",
    "trace_distances",
    "trace_graph",
    "transformed_coords",
    "write_csv",
]
