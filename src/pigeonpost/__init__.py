"""Pigeon-post network planning: demand graphs, flight plans, and solvers.

Pigeons fly only home.  Given a directed demand graph, the toolkit
breeds and places pigeons, schedules their flights, verifies delivery
under singlehop / 2-hop / multihop routing, and solves small instances
to proven optimality.

Every record (``DemandGraph``, ``Flight``, ``PlannerResult`` ...) is a
``typing.NamedTuple``: immutable, built positionally or by keyword, and
copied with ``_replace``.  A record that validates its fields does so in
the ``__new__`` of a subclass, its one check, which ``_replace`` and
``_make`` (inherited from ``demand._Checked``) take too.

The public names below load their module on first access (PEP 562), so
``import pigeonpost`` or a CLI command that needs no solver does not
compile and load the solver back ends.
"""

from importlib import import_module

# Submodule -> the public names it provides.
_EXPORTS = {
    "demand": (
        "ComponentPartition",
        "DemandGraph",
        "DemandGraphError",
        "PigeonLowerBound",
        "lower_bound",
        "parse_demand_graph",
        "weakly_connected_components",
    ),
    "exact": (
        "OptimalityCertificate",
        "certify",
        "optimal_multihop",
        "optimal_twohop",
    ),
    "flightplan": (
        "Flight",
        "FlightPlan",
        "FlightPlanError",
        "PlanStats",
        "VerificationReport",
        "parse_flight_plan",
        "plan_stats",
        "verify",
        "verify_multihop",
        "verify_singlehop",
        "verify_twohop",
    ),
    "ilp": (
        "Assignment",
        "BinaryModel",
        "ModelError",
        "build_multihop_model",
        "build_twohop_model",
        "export_lp",
        "extract_plan",
        "optimal_multihop_ilp",
        "optimal_twohop_ilp",
        "solve_binary_model",
    ),
    "instances": ("cycle_graph", "demo_graph", "random_graph", "star_graph"),
    "jsonutil": (),
    "planners": (
        "PlannerResult",
        "SearchLimitError",
        "SearchLimits",
        "plan_coordinator",
        "plan_cycle",
        "plan_singlehop",
    ),
    "reductions": (
        "CnfError",
        "CnfFormula",
        "ReductionError",
        "ReductionOutput",
        "SatResult",
        "UndirectedGraph",
        "min_vertex_cover_bruteforce",
        "parse_dimacs_cnf",
        "parse_undirected_graph",
        "reduce_3sat_to_twohop",
        "reduce_vertex_cover_to_multihop",
        "sat_bruteforce",
        "satisfying_assignment_plan",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

# The public names and the submodules themselves.
__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
