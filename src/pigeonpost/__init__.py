"""Pigeon-post network planning: demand graphs, flight plans, and solvers.

Pigeons fly only home.  Given a directed demand graph, the toolkit
breeds and places pigeons, schedules their flights, verifies delivery
under singlehop / 2-hop / multihop routing, and solves small instances
to proven optimality.
"""

from .demand import (
    ComponentPartition,
    DegreeProfile,
    DemandGraph,
    DemandGraphError,
    PigeonLowerBound,
    degree_profile,
    lower_bound,
    parse_demand_graph,
    weakly_connected_components,
)
from .exact import (
    OptimalityCertificate,
    SearchLimitError,
    SearchLimits,
    certify,
    optimal_multihop,
    optimal_twohop,
)
from .flightplan import (
    Flight,
    FlightPlan,
    FlightPlanError,
    PlanStats,
    VerificationReport,
    parse_flight_plan,
    plan_stats,
    verify,
    verify_multihop,
    verify_singlehop,
    verify_twohop,
)
from .ilp import (
    Assignment,
    BinaryModel,
    ModelError,
    build_multihop_model,
    build_twohop_model,
    export_lp,
    extract_plan,
    optimal_multihop_ilp,
    optimal_twohop_ilp,
    solve_binary_model,
)
from .instances import cycle_graph, demo_graph, random_graph, star_graph
from .planners import (
    ApproximationReport,
    PlannerResult,
    approximation_report,
    plan_coordinator,
    plan_cycle,
    plan_singlehop,
)
from .reductions import (
    CnfError,
    CnfFormula,
    ReductionError,
    ReductionOutput,
    SatResult,
    UndirectedGraph,
    min_vertex_cover_bruteforce,
    parse_dimacs_cnf,
    parse_undirected_graph,
    reduce_3sat_to_twohop,
    reduce_vertex_cover_to_multihop,
    sat_bruteforce,
    satisfying_assignment_plan,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
