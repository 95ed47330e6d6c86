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
    Certificate,
    certificate,
    certify,
    is_hurwitz,
    select_estimating_agents,
    stability_matrix,
)
from .disturbance import (
    DisturbanceSpec,
    EdgeDisturbance,
    ExosystemState,
    InternalModelBasis,
    check_observability,
    default_basis,
    exosystem_initial_state,
    lambda_matrix,
    mu_closed_form,
)
from .rigidity import (
    RANK_TOL,
    ConstructionTrace,
    FormationGraph,
    Framework,
    consistent_errors,
    edge_function,
    is_infinitesimally_rigid,
    is_minimally_rigid,
    numeric_rank,
    random_trace,
    rigid_rank_target,
    rigidity_matrix,
    s2_matrix,
    trace_distances,
    trace_graph,
)
from .scenario import (
    BUILTIN_NAMES,
    MODES,
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
    Trajectory,
    integrate,
    propagate_exosystem,
    run_verdict,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentRule",
    "BUILTIN_NAMES",
    "Certificate",
    "ConstructionTrace",
    "DIVERGENCE_GUARD",
    "DisturbanceSpec",
    "EdgeDisturbance",
    "ExosystemState",
    "FormationGraph",
    "Framework",
    "HURWITZ_TOL",
    "InternalModelBasis",
    "MODES",
    "RANK_TOL",
    "RunVerdict",
    "Scenario",
    "ScenarioError",
    "Trajectory",
    "builtin_scenario",
    "certificate",
    "certify",
    "check_observability",
    "consistent_errors",
    "default_basis",
    "edge_function",
    "exosystem_initial_state",
    "generate_scenario",
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
    "s2_matrix",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "select_estimating_agents",
    "stability_matrix",
    "trace_distances",
    "trace_graph",
    "write_csv",
]
