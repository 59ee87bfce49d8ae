"""0/1 integer models for the 2-hop and multihop problems.

Two model constructors, an exact solve through HiGHS, plan extraction,
and LP text export.

2-hop model (time slots ``1..2n-2``, which always suffice):
  * ``x_u_v_i``  - the pigeon flying in slot ``i`` goes from u to v,
  * ``y_u_w_v_i`` - demand ``(u, v)`` is relayed via ``w`` and picked up
    in slot ``i``,
  * per slot at most one flight; each demand covered directly or by a
    relay; a relay pickup needs the matching flight in its slot and a
    delivery flight ``w -> v`` in some strictly later slot.
  * objective: number of flights; a plan with k pigeons exists iff the
    optimum is at most k.

Multihop model for a weakly connected demand set on m nodes (slots
``1..2m``): a solution is a node walk, ``x_v_i`` placing node v at walk
position i, and ``y_u_v_i_j`` serving demand ``(u, v)`` by an occurrence
of u at position i before v at position j.  The optimum counts walk
nodes, so the pigeon count is the objective minus one per component.

``solve_binary_model`` hands a model to HiGHS through scipy's ``milp``
(the ``solver`` extra).

The constructors take the slot count as an optional argument; the
default is the paper's, which ``export_lp`` writes.  Only the relative
order of slots matters, so with ``k`` slots the solutions are the plans
of the paper model that use at most ``k`` slots.  The planners
``optimal_*_ilp`` follow the solve policy of
``planners._search_below_coordinator``, as the exact solvers do: the
coordinator plan of the graph (2-hop) or of each weakly connected
component (multihop) is the incumbent, and when its count meets the
bound ``demand._flight_bound`` it is returned as proven optimal; no
model is built and scipy is not imported.  Otherwise they build the
model at the incumbent's slot count, ``count - 1`` flight slots (2-hop)
or ``count`` walk positions (multihop), so its solutions are the plans
with fewer flights than the incumbent.  ``_tighten`` replaces the multihop pairwise
linking rows by aggregated ones and forces the used 2-hop slots to form
a prefix.  When HiGHS proves that model infeasible, the incumbent is
optimal.  A solution is checked against every row of the model as built
before a plan is extracted.  Every HiGHS call of one solve gets the time
left to the solve's one deadline; the node limit applies per call.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .demand import DemandGraph, weakly_connected_components
from .flightplan import Flight, FlightPlan
from .planners import (
    PlannerResult,
    SearchLimits,
    _BudgetExhausted,
    _Effort,
    _search_below_coordinator,
)


class ModelError(ValueError):
    """Raised for invalid model construction or extraction input."""


class ModelVariable(NamedTuple):
    name: str
    kind: str  # "x" or "y"
    index: tuple[int, ...]


class LinearConstraint(NamedTuple):
    name: str
    terms: tuple[tuple[int, int], ...]  # (integer coefficient, variable id)
    relation: str  # "<=", ">=", "="
    constant: int


class _BinaryModelFields(NamedTuple):
    variables: list[ModelVariable]
    constraints: list[LinearConstraint]
    objective: tuple[tuple[int, int], ...]


class BinaryModel(_BinaryModelFields):
    """A 0/1 linear minimization program."""

    __slots__ = ()

    def __new__(
        cls,
        variables: list[ModelVariable],
        constraints: list[LinearConstraint],
        objective: tuple[tuple[int, int], ...],
    ) -> BinaryModel:
        for row in constraints:
            for _coeff, var in row.terms:
                if not 0 <= var < len(variables):
                    raise ModelError(f"constraint {row.name} references unknown variable")
        return tuple.__new__(cls, (variables, constraints, objective))

    @classmethod
    def _make(cls, iterable) -> BinaryModel:
        return cls(*iterable)


def _ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(n) if u != v]


def build_twohop_model(g: DemandGraph, slots: int | None = None) -> BinaryModel:
    """Flight-slot model; optimum equals the minimal 2-hop pigeon count.

    ``slots`` defaults to ``2n - 2``; with fewer, the solutions are the
    plans of at most ``slots`` flights.
    """
    n = g.n
    demands = g.sorted_demands()
    if demands and n < 2:
        raise ModelError("a graph with demands needs at least two nodes")
    if n < 2:
        return BinaryModel([], [], ())

    if slots is None:
        slots = 2 * n - 2
    pairs = _ordered_pairs(n)

    variables: list[ModelVariable] = []
    x_id: dict[tuple[int, int, int], int] = {}
    for i in range(1, slots + 1):
        for u, v in pairs:
            x_id[(u, v, i)] = len(variables)
            variables.append(ModelVariable(f"x_{u}_{v}_{i}", "x", (u, v, i)))

    y_id: dict[tuple[int, int, int, int], int] = {}
    for u, v in demands:
        for w in range(n):
            for i in range(1, slots + 1):
                y_id[(u, w, v, i)] = len(variables)
                variables.append(ModelVariable(f"y_{u}_{w}_{v}_{i}", "y", (u, w, v, i)))

    constraints: list[LinearConstraint] = []
    for i in range(1, slots + 1):
        constraints.append(
            LinearConstraint(
                name=f"slot_{i}",
                terms=tuple((1, x_id[(u, v, i)]) for u, v in pairs),
                relation="<=",
                constant=1,
            )
        )
    for u, v in demands:
        terms = [(1, x_id[(u, v, i)]) for i in range(1, slots + 1)]
        terms += [
            (1, y_id[(u, w, v, i)])
            for w in range(n)
            for i in range(1, slots + 1)
        ]
        constraints.append(
            LinearConstraint(f"cover_{u}_{v}", tuple(terms), ">=", 1)
        )
    for u, v in demands:
        for w in range(n):
            for i in range(1, slots + 1):
                terms = [(1, y_id[(u, w, v, i)])]
                if w != u:  # no x_u_u_i exists; the relay is then impossible
                    terms.append((-1, x_id[(u, w, i)]))
                constraints.append(
                    LinearConstraint(f"pickup_{u}_{w}_{v}_{i}", tuple(terms), "<=", 0)
                )
    for u, v in demands:
        for w in range(n):
            for i in range(1, slots + 1):
                terms = [(1, y_id[(u, w, v, i)])]
                if w != v:
                    terms += [(-1, x_id[(w, v, j)]) for j in range(i + 1, slots + 1)]
                constraints.append(
                    LinearConstraint(f"delivery_{u}_{w}_{v}_{i}", tuple(terms), "<=", 0)
                )

    objective = tuple((1, var) for var in x_id.values())
    return BinaryModel(variables, constraints, objective)


def build_multihop_model(g: DemandGraph, slots: int | None = None) -> BinaryModel:
    """Walk-position model for one weakly connected demand set.

    The optimum counts walk positions: pigeons used is the objective
    minus one.  ``slots`` defaults to ``2m``; with fewer, the solutions
    are the walks of at most ``slots`` positions.  Demand graphs with
    several components must be split by the caller (see
    ``optimal_multihop_ilp``).
    """
    partition = weakly_connected_components(g)
    if not partition.components:
        return BinaryModel([], [], ())
    if len(partition.components) > 1:
        raise ModelError(
            "demand set spans several weakly connected components; "
            "build one model per component"
        )

    nodes = sorted(partition.components[0])
    demands = g.sorted_demands()
    if slots is None:
        slots = 2 * len(nodes)

    variables: list[ModelVariable] = []
    x_id: dict[tuple[int, int], int] = {}
    for i in range(1, slots + 1):
        for v in nodes:
            x_id[(v, i)] = len(variables)
            variables.append(ModelVariable(f"x_{v}_{i}", "x", (v, i)))

    y_id: dict[tuple[int, int, int, int], int] = {}
    for u, v in demands:
        for i in range(1, slots + 1):
            for j in range(i + 1, slots + 1):
                y_id[(u, v, i, j)] = len(variables)
                variables.append(ModelVariable(f"y_{u}_{v}_{i}_{j}", "y", (u, v, i, j)))

    constraints: list[LinearConstraint] = []
    for i in range(1, slots + 1):
        constraints.append(
            LinearConstraint(
                name=f"slot_{i}",
                terms=tuple((1, x_id[(v, i)]) for v in nodes),
                relation="<=",
                constant=1,
            )
        )
    for u, v in demands:
        terms = tuple(
            (1, y_id[(u, v, i, j)])
            for i in range(1, slots + 1)
            for j in range(i + 1, slots + 1)
        )
        constraints.append(LinearConstraint(f"serve_{u}_{v}", terms, "=", 1))
    for u, v in demands:
        for i in range(1, slots + 1):
            for j in range(i + 1, slots + 1):
                constraints.append(
                    LinearConstraint(
                        name=f"place_{u}_{v}_{i}_{j}",
                        terms=(
                            (2, y_id[(u, v, i, j)]),
                            (-1, x_id[(u, i)]),
                            (-1, x_id[(v, j)]),
                        ),
                        relation="<=",
                        constant=0,
                    )
                )

    objective = tuple((1, var) for var in x_id.values())
    return BinaryModel(variables, constraints, objective)


class Assignment(NamedTuple):
    """Solver outcome; ``values`` satisfies all constraints when feasible.

    ``status`` is one of ``optimal`` (proven), ``feasible`` (a limit ran
    out with an incumbent), ``infeasible`` (proven empty), or ``unknown``
    (a limit ran out, no incumbent).
    """

    status: str
    values: dict[str, int]
    objective: int | None

    @property
    def feasible(self) -> bool:
        return self.status in ("optimal", "feasible")

    @property
    def proven_optimal(self) -> bool:
        return self.status == "optimal"


def _row_holds(row: LinearConstraint, total: int) -> bool:
    if row.relation == "<=":
        return total <= row.constant
    if row.relation == ">=":
        return total >= row.constant
    return total == row.constant


def _verify_assignment(model: BinaryModel, values: dict[str, int]) -> None:
    names = [v.name for v in model.variables]
    for row in model.constraints:
        total = sum(coeff * values[names[var]] for coeff, var in row.terms)
        if not _row_holds(row, total):
            raise ModelError(f"solver returned values violating {row.name}")


def solve_binary_model(model: BinaryModel, limits: SearchLimits = SearchLimits()) -> Assignment:
    """Exact 0/1 minimization with HiGHS.

    ``limits.expansion_budget`` is HiGHS's node limit, clipped to the
    largest value its 32-bit option takes, and ``limits.time_budget`` its
    time limit.  Needs numpy and scipy (the ``solver`` extra) unless the
    model has no variables.
    """
    if not model.variables:
        # The empty assignment is the only point; it may still fail a row.
        if all(_row_holds(row, 0) for row in model.constraints):
            return Assignment("optimal", {}, 0)
        return Assignment("infeasible", {}, None)

    import numpy as np
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    nvars = len(model.variables)
    cost = np.zeros(nvars)
    for coeff, var in model.objective:
        cost[var] += coeff

    rows: list[int] = []
    cols: list[int] = []
    data: list[int] = []
    lower: list[float] = []
    upper: list[float] = []
    for r, row in enumerate(model.constraints):
        for coeff, var in row.terms:
            rows.append(r)
            cols.append(var)
            data.append(coeff)
        if row.relation == "<=":
            lower.append(-np.inf)
            upper.append(row.constant)
        elif row.relation == ">=":
            lower.append(row.constant)
            upper.append(np.inf)
        else:
            lower.append(row.constant)
            upper.append(row.constant)
    nrows = len(model.constraints)

    constraints = None
    if nrows:
        matrix = sparse.csr_matrix((data, (rows, cols)), shape=(nrows, nvars))
        constraints = LinearConstraint(matrix, np.array(lower), np.array(upper))
    options = {
        "node_limit": min(limits.expansion_budget, 2**31 - 1),
        "time_limit": limits.time_budget,
    }
    result = milp(
        c=cost,
        constraints=constraints,
        integrality=np.ones(nvars),
        bounds=Bounds(0, 1),
        options=options,
    )

    if result.status == 2:
        return Assignment("infeasible", {}, None)
    if result.x is None:
        return Assignment("unknown", {}, None)
    values = {
        model.variables[i].name: int(round(result.x[i])) for i in range(nvars)
    }
    _verify_assignment(model, values)
    objective = sum(
        coeff * values[model.variables[var].name] for coeff, var in model.objective
    )
    status = "optimal" if result.status == 0 else "feasible"
    return Assignment(status, values, objective)


def extract_plan(kind: str, model: BinaryModel, assignment: Assignment) -> FlightPlan:
    """Turn a feasible assignment into the flight plan it encodes.

    2-hop: each active ``x_u_v_i`` is a flight at slot ``i``; slots are
    compacted preserving order.  Multihop: active walk positions become
    flights between consecutive distinct nodes.
    """
    if not assignment.feasible:
        raise ModelError("cannot extract a plan from an infeasible assignment")
    if kind not in ("twohop", "multihop"):
        raise ModelError(f"unknown model kind {kind!r}")

    active: dict[int, tuple[int, ...]] = {}
    for var in model.variables:
        if var.kind == "x" and assignment.values.get(var.name):
            slot = var.index[-1]
            if slot in active:
                raise ModelError(f"two flights active in slot {slot}")
            active[slot] = var.index

    if kind == "twohop":
        flights = [
            Flight(active[slot][0], active[slot][1]) for slot in sorted(active)
        ]
        return FlightPlan(tuple(flights))

    walk = [active[slot][0] for slot in sorted(active)]
    deduped = [v for i, v in enumerate(walk) if i == 0 or v != walk[i - 1]]
    return FlightPlan(tuple(Flight(a, b) for a, b in zip(deduped, deduped[1:])))


def _format_terms(terms, names: list[str]) -> list[str]:
    chunks = []
    for idx, (coeff, var) in enumerate(terms):
        sign = "-" if coeff < 0 else "+"
        magnitude = abs(coeff)
        body = names[var] if magnitude == 1 else f"{magnitude} {names[var]}"
        if idx == 0 and sign == "+":
            chunks.append(body)
        else:
            chunks.append(f"{sign} {body}")
    return chunks


_LP_WIDTH = 72  # export_lp starts a new line before a row's line grows past this


def _wrap(prefix: str, chunks: list[str]) -> list[str]:
    lines = [prefix]
    for chunk in chunks:
        candidate = f"{lines[-1]} {chunk}"
        if len(candidate) > _LP_WIDTH and lines[-1] != prefix and lines[-1].strip():
            lines.append(f"   {chunk}")
        else:
            lines[-1] = candidate
    return lines


def export_lp(model: BinaryModel) -> str:
    """Emit the model in LP text format (Minimize / Subject To / Binary)."""
    names = [v.name for v in model.variables]
    out: list[str] = ["Minimize"]
    out.extend(_wrap(" obj:", _format_terms(model.objective, names)))
    out.append("Subject To")
    for row in model.constraints:
        chunks = _format_terms(row.terms, names)
        chunks.append(f"{row.relation} {row.constant}")
        out.extend(_wrap(f" {row.name}:", chunks))
    out.append("Binary")
    for name in names:
        out.append(f" {name}")
    out.append("End")
    return "\n".join(out) + "\n"


def _tighten(kind: str, model: BinaryModel) -> BinaryModel:
    """A model from ``build_*_model`` as the solve path hands it to the solver.

    The variables stay as they are.  The multihop rows keep every 0/1
    solution; the 2-hop rows keep one solution of each objective value.
    """
    constraints = list(model.constraints)
    if kind == "multihop":
        # Swap each ``2 y_u_v_i_j <= x_u_i + x_v_j`` for the aggregated
        # ``sum_j y_u_v_i_j <= x_u_i`` and ``sum_i y_u_v_i_j <= x_v_j``.
        # ``serve_u_v`` lets only one ``y_u_v_*`` be 1, so the 0/1 points
        # are the same, and the LP relaxation is far tighter
        # (disaggregated linking, Wolsey 1998).
        x_id = {var.index: k for k, var in enumerate(model.variables) if var.kind == "x"}
        links: dict[tuple[str, int, int, int], list[int]] = {}
        for k, var in enumerate(model.variables):
            if var.kind == "y":
                u, v, i, j = var.index
                links.setdefault(("out", u, v, i), []).append(k)
                links.setdefault(("in", u, v, j), []).append(k)
        constraints = [row for row in constraints if not row.name.startswith("place_")]
        for (end, u, v, slot), ys in links.items():
            terms = tuple((1, y) for y in ys) + ((-1, x_id[(u if end == "out" else v, slot)]),)
            constraints.append(LinearConstraint(f"link_{end}_{u}_{v}_{slot}", terms, "<=", 0))
    else:
        # 2-hop: the used slots form a prefix, ``used(i) <= used(i-1)``;
        # compacting the used slots of any solution meets these rows.
        by_slot: dict[int, list[int]] = {}  # slot -> its x variables
        for k, var in enumerate(model.variables):
            if var.kind == "x":
                by_slot.setdefault(var.index[-1], []).append(k)
        for i in range(2, len(by_slot) + 1):
            terms = tuple((1, var) for var in by_slot[i])
            terms += tuple((-1, var) for var in by_slot[i - 1])
            constraints.append(LinearConstraint(f"prefix_{i}", terms, "<=", 0))
    return BinaryModel(model.variables, constraints, model.objective)


def _solve_below(
    kind: str, limits: SearchLimits, part: DemandGraph, bound: int, cap: int, effort: _Effort
) -> list[Flight] | None:
    """Search of ``_search_below_coordinator``: a plan of ``part`` with at
    most ``cap`` flights, from ``_tighten(kind, model)`` with the model
    built at ``cap`` flight slots (2-hop) or ``cap + 1`` walk positions.
    HiGHS finds its own bounds, so ``bound`` is not used.

    A solution must also satisfy every row of the model as built, so a
    transform bug raises ``ModelError`` rather than yield a wrong plan.
    Infeasible proves that no such plan exists.  When a limit runs out,
    ``_BudgetExhausted`` carries the plan HiGHS has found, if any.
    """
    if kind == "twohop":
        model = build_twohop_model(part, cap)
    else:
        model = build_multihop_model(part, cap + 1)
    limits = limits._replace(time_budget=effort.time_left())
    result = solve_binary_model(_tighten(kind, model), limits)
    if result.status == "infeasible":
        return None
    if result.status == "unknown":
        raise _BudgetExhausted
    _verify_assignment(model, result.values)
    flights = list(extract_plan(kind, model, result).flights)
    if result.status == "feasible":
        raise _BudgetExhausted(flights)
    return flights


def optimal_twohop_ilp(g: DemandGraph, limits: SearchLimits = SearchLimits()) -> PlannerResult:
    """2-hop optimum via the slot model, searched below the coordinator plan.

    The coordinator plan is the incumbent.  When its count meets
    ``demand._flight_bound`` it is optimal and no model is solved.
    Otherwise the model has ``count - 1`` slots, so HiGHS either finds a
    plan with fewer flights or proves, by infeasibility, that none exists.
    """
    search = partial(_solve_below, "twohop", limits)
    return _search_below_coordinator(g, "twohop", "ilp", limits, search)


def optimal_multihop_ilp(g: DemandGraph, limits: SearchLimits = SearchLimits()) -> PlannerResult:
    """Multihop optimum: one walk model per weakly connected component.

    Each component's incumbent is its coordinator plan.  On ``m`` nodes
    it has at most ``2m - 2`` flights (one per other source, one per
    other destination), so it never loses to the cycle walk.  An
    incumbent that meets ``demand._flight_bound`` is optimal and no
    model is solved.  Otherwise the walk model keeps as many positions
    as the incumbent has flights, so a solution is a walk with fewer
    flights, and infeasibility proves the incumbent optimal.
    """
    search = partial(_solve_below, "multihop", limits)
    return _search_below_coordinator(g, "multihop", "ilp", limits, search)
