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
``planners._search_below_coordinator``, as the exact solvers do, and
build one model per part, a weakly connected component in its local ids
``0..m-1``; a 2-hop model of a part thus relays through the
component's own nodes only (see ``exact`` for why that loses nothing).
Each part's incumbent is the policy's: the coordinator plan or, when
that is above the bound ``demand._flight_bound``, the shorter of it and
the relay plan (2-hop) or the greedy-DFVS walk (multihop).  When the
incumbent meets the bound it is returned as proven optimal; no model is
built and scipy is not imported.  Otherwise they build the model at the
incumbent's slot count, ``count - 1`` flight slots (2-hop) or ``count``
walk positions (multihop), so its solutions are the plans with fewer
flights than the incumbent.  The incumbent only decides which models
are solved.  The ILP keeps its own bounds, ``_flight_bound`` and what
HiGHS proves, and never the exact solvers' cycle-packing bound, so its
counts stay an independent check of theirs.  ``_tighten`` replaces the
multihop pairwise linking rows by aggregated ones and forces the used
2-hop slots to form a prefix.  When HiGHS proves that model
infeasible, the incumbent is optimal.  A solution is checked against
every row of the model as built before a plan is extracted.  Every
HiGHS call of one solve gets the time left to the solve's one deadline;
the node limit applies per call.
"""

from __future__ import annotations

from functools import partial
from itertools import groupby, pairwise
from typing import NamedTuple

from .demand import DemandGraph, _Checked, weakly_connected_components
from .flightplan import FlightPlan
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
    kind: str  # "x" or "y"
    index: tuple[int, ...]

    @property
    def name(self) -> str:
        """``kind`` and ``index`` joined by underscores, as in ``x_0_1_2``."""
        return "_".join([self.kind, *map(str, self.index)])


class LinearConstraint(NamedTuple):
    name: str
    terms: tuple[tuple[int, int], ...]  # (integer coefficient, variable id)
    relation: str  # "<=", ">=", "="
    constant: int


class _BinaryModelFields(NamedTuple):
    variables: list[ModelVariable]
    constraints: list[LinearConstraint]
    objective: tuple[tuple[int, int], ...]


class BinaryModel(_Checked, _BinaryModelFields):
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


def _ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(n) if u != v]


def build_twohop_model(g: DemandGraph, slots: int | None = None) -> BinaryModel:
    """Flight-slot model; optimum equals the minimal 2-hop pigeon count.

    ``slots`` defaults to ``2n - 2``; with fewer, the solutions are the
    plans of at most ``slots`` flights.
    """
    n = g.n
    demands = g.sorted_demands()
    if slots is None:
        slots = 2 * n - 2
    pairs = _ordered_pairs(n)

    variables: list[ModelVariable] = []
    x_id: dict[tuple[int, int, int], int] = {}
    for i in range(1, slots + 1):
        for u, v in pairs:
            x_id[(u, v, i)] = len(variables)
            variables.append(ModelVariable("x", (u, v, i)))

    y_id: dict[tuple[int, int, int, int], int] = {}
    for u, v in demands:
        for w in range(n):
            for i in range(1, slots + 1):
                y_id[(u, w, v, i)] = len(variables)
                variables.append(ModelVariable("y", (u, w, v, i)))

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
            variables.append(ModelVariable("x", (v, i)))

    y_id: dict[tuple[int, int, int, int], int] = {}
    for u, v in demands:
        for i in range(1, slots + 1):
            for j in range(i + 1, slots + 1):
                y_id[(u, v, i, j)] = len(variables)
                variables.append(ModelVariable("y", (u, v, i, j)))

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
    """Solver outcome; ``values`` holds one 0/1 value per variable, in
    ``model.variables`` order, and satisfies all constraints when feasible.

    ``status`` is one of ``optimal`` (proven), ``feasible`` (a limit ran
    out with an incumbent), ``infeasible`` (proven empty), or ``unknown``
    (a limit ran out, no incumbent).
    """

    status: str
    values: tuple[int, ...]
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


def _verify_assignment(model: BinaryModel, values: tuple[int, ...]) -> None:
    for row in model.constraints:
        total = sum(coeff * values[var] for coeff, var in row.terms)
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
            return Assignment("optimal", (), 0)
        return Assignment("infeasible", (), None)

    import numpy as np
    from scipy import sparse
    from scipy.optimize import Bounds, milp
    from scipy.optimize import LinearConstraint as ScipyConstraint  # scipy's, not this module's

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
        constraints = ScipyConstraint(matrix, np.array(lower), np.array(upper))
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
        return Assignment("infeasible", (), None)
    if result.x is None:
        return Assignment("unknown", (), None)
    values = tuple(int(round(x)) for x in result.x)
    _verify_assignment(model, values)
    objective = sum(coeff * values[var] for coeff, var in model.objective)
    status = "optimal" if result.status == 0 else "feasible"
    return Assignment(status, values, objective)


def extract_plan(kind: str, model: BinaryModel, assignment: Assignment) -> FlightPlan:
    """Turn a feasible assignment into the flight plan it encodes.

    2-hop: each active ``x_u_v_i`` is a flight at slot ``i``; slots are
    compacted preserving order.  Multihop: active walk positions become
    flights between consecutive distinct nodes.
    """
    return FlightPlan(_plan_pairs(kind, model, assignment))


def _plan_pairs(kind: str, model: BinaryModel, assignment: Assignment) -> list[tuple[int, int]]:
    """The flights of ``extract_plan`` as ``(remote, home)`` pairs."""
    if not assignment.feasible:
        raise ModelError("cannot extract a plan from an infeasible assignment")
    if kind not in ("twohop", "multihop"):
        raise ModelError(f"unknown model kind {kind!r}")
    if len(assignment.values) != len(model.variables):
        raise ModelError(f"{len(assignment.values)} values for {len(model.variables)} variables")

    active: dict[int, tuple[int, ...]] = {}
    for var, value in zip(model.variables, assignment.values):
        if var.kind == "x" and value:
            slot = var.index[-1]
            if slot in active:
                raise ModelError(f"two flights active in slot {slot}")
            active[slot] = var.index

    if kind == "twohop":
        return [active[slot][:2] for slot in sorted(active)]

    walk = [v for v, _ in groupby(active[slot][0] for slot in sorted(active))]
    return list(pairwise(walk))


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
    kind: str, part: DemandGraph, bound: int, cap: int, effort: _Effort
) -> list[tuple[int, int]] | None:
    """Search of ``_search_below_coordinator``: a plan of ``part`` with at
    most ``cap`` flights, from ``_tighten(kind, model)`` with the model
    built at ``cap`` flight slots (2-hop) or ``cap + 1`` walk positions.
    HiGHS finds its own bounds, so ``bound`` is not used.

    No model is built once the deadline has passed, and HiGHS gets the
    time left to it.  Its node limit is ``effort.limits.expansion_budget``
    per call, not a share of the solve's expansions: scipy reports no
    node count for an infeasible result, the usual one here, so the nodes
    a call took cannot be charged to ``effort``.

    A solution must also satisfy every row of the model as built, so a
    transform bug raises ``ModelError`` rather than yield a wrong plan.
    Infeasible proves that no such plan exists.  When a limit runs out,
    ``_BudgetExhausted`` carries the plan HiGHS has found, if any.
    """
    effort.time_left()  # raises once the deadline has passed
    if kind == "twohop":
        model = build_twohop_model(part, cap)
    else:
        model = build_multihop_model(part, cap + 1)
    limits = effort.limits._replace(time_budget=effort.time_left())
    result = solve_binary_model(_tighten(kind, model), limits)
    if result.status == "infeasible":
        return None
    if result.status == "unknown":
        raise _BudgetExhausted
    _verify_assignment(model, result.values)
    flights = _plan_pairs(kind, model, result)
    if result.status == "feasible":
        raise _BudgetExhausted(flights)
    return flights


def optimal_twohop_ilp(g: DemandGraph, limits: SearchLimits = SearchLimits()) -> PlannerResult:
    """2-hop optimum: one slot model per weakly connected component,
    searched below the incumbent.

    Each component's incumbent is the shorter of its coordinator plan and
    its relay plan.  When its count meets ``demand._flight_bound`` it is
    optimal and no model is solved.  Otherwise the model has ``count - 1``
    slots, so HiGHS either finds a plan with fewer flights or proves, by
    infeasibility, that none exists.
    """
    return _search_below_coordinator(g, "twohop", "ilp", limits, partial(_solve_below, "twohop"))


def optimal_multihop_ilp(g: DemandGraph, limits: SearchLimits = SearchLimits()) -> PlannerResult:
    """Multihop optimum: one walk model per weakly connected component.

    Each component's incumbent is the shorter of its coordinator plan and
    its greedy-DFVS walk.  An incumbent that meets
    ``demand._flight_bound`` is optimal and no model is solved.
    Otherwise the walk model keeps as many positions as the incumbent has
    flights, so a solution is a walk with fewer flights, and
    infeasibility proves the incumbent optimal.
    """
    return _search_below_coordinator(
        g, "multihop", "ilp", limits, partial(_solve_below, "multihop")
    )
