"""0/1 integer models for the 2-hop and multihop problems.

Two model constructors, a small exact solver, plan extraction, and LP
text export.

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

Solving goes through ``solve_binary_model``, which prefers scipy's HiGHS
backend when available and otherwise falls back to a native depth-first
0/1 branch and bound with unit propagation over the rows and objective
bounding.  Both constructors attach their slot structure as ordered
variable blocks; since only the relative order of slots matters in
either model, the native solver restricts itself to solutions whose
used slots form a prefix, and branches slot by slot.

The constructors and ``export_lp`` give the paper formulation as it
stands.  The planners ``optimal_*_ilp`` solve a tighter version of it
with the same integer optima (``_tighten``): only the slots up to a
known upper bound on the optimum are kept (the coordinator count for
2-hop, ``min(2m - 1, hub count + 1)`` walk positions for multihop), the
multihop pairwise linking rows are replaced by aggregated ones, and the
2-hop used slots are forced to form a prefix.  The solution, extended
with zeros, is checked against every row of the paper model before a
plan is extracted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .demand import DemandGraph, weakly_connected_components
from .exact import SearchLimits, _BudgetExhausted, _Effort
from .flightplan import Flight, FlightPlan
from .planners import PlannerResult, cycle_walk, make_result, plan_coordinator


class ModelError(ValueError):
    """Raised for invalid model construction or extraction input."""


@dataclass(frozen=True)
class ModelVariable:
    name: str
    kind: str  # "x" or "y"
    index: tuple[int, ...]


@dataclass(frozen=True)
class LinearConstraint:
    name: str
    terms: tuple[tuple[int, int], ...]  # (integer coefficient, variable id)
    relation: str  # "<=", ">=", "="
    constant: int


@dataclass
class BinaryModel:
    """A 0/1 linear minimization program.

    ``slot_blocks`` is an ordered partition of interchangeable time-slot
    variable groups (at most one active variable per block); solvers may
    use it as a branching hint and assume used blocks can be compacted
    to a prefix.
    """

    variables: list[ModelVariable]
    constraints: list[LinearConstraint]
    objective: tuple[tuple[int, int], ...]
    slot_blocks: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        for row in self.constraints:
            for _coeff, var in row.terms:
                if not 0 <= var < len(self.variables):
                    raise ModelError(f"constraint {row.name} references unknown variable")


def _ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(n) if u != v]


def build_twohop_model(g: DemandGraph) -> BinaryModel:
    """Flight-slot model; optimum equals the minimal 2-hop pigeon count."""
    n = g.n
    demands = g.sorted_demands()
    if demands and n < 2:
        raise ModelError("a graph with demands needs at least two nodes")
    if n < 2:
        return BinaryModel([], [], ())

    slots = 2 * n - 2
    pairs = _ordered_pairs(n)

    variables: list[ModelVariable] = []
    x_id: dict[tuple[int, int, int], int] = {}
    blocks: list[tuple[int, ...]] = []
    for i in range(1, slots + 1):
        block = []
        for u, v in pairs:
            x_id[(u, v, i)] = len(variables)
            variables.append(ModelVariable(f"x_{u}_{v}_{i}", "x", (u, v, i)))
            block.append(x_id[(u, v, i)])
        blocks.append(tuple(block))

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
    return BinaryModel(variables, constraints, objective, tuple(blocks))


def build_multihop_model(g: DemandGraph) -> BinaryModel:
    """Walk-position model for one weakly connected demand set.

    The optimum counts walk positions: pigeons used is the objective
    minus one.  Demand graphs with several components must be split by
    the caller (see ``optimal_multihop_ilp``).
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
    m = len(nodes)
    slots = 2 * m

    variables: list[ModelVariable] = []
    x_id: dict[tuple[int, int], int] = {}
    blocks: list[tuple[int, ...]] = []
    for i in range(1, slots + 1):
        block = []
        for v in nodes:
            x_id[(v, i)] = len(variables)
            variables.append(ModelVariable(f"x_{v}_{i}", "x", (v, i)))
            block.append(x_id[(v, i)])
        blocks.append(tuple(block))

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
    return BinaryModel(variables, constraints, objective, tuple(blocks))


@dataclass
class Assignment:
    """Solver outcome; ``values`` satisfies all constraints when feasible.

    ``status`` is one of ``optimal`` (proven), ``feasible`` (budget ran
    out with an incumbent), ``infeasible`` (proven empty, within the
    given upper bound), or ``unknown`` (budget ran out, no incumbent).
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


class _BranchAndBound:
    def __init__(self, model: BinaryModel, effort: _Effort, upper_bound: int | None):
        self.model = model
        self.effort = effort
        nvars = len(model.variables)
        self.value = [-1] * nvars
        self.cost = [0] * nvars
        for coeff, var in model.objective:
            self.cost[var] += coeff

        self.rows = model.constraints
        self.row_lo = []
        self.row_hi = []
        self.row_maxpos = []
        self.row_minneg = []
        for row in self.rows:
            lo = sum(min(c, 0) for c, _ in row.terms)
            hi = sum(max(c, 0) for c, _ in row.terms)
            self.row_lo.append(lo)
            self.row_hi.append(hi)
            self.row_maxpos.append(max((c for c, _ in row.terms if c > 0), default=0))
            self.row_minneg.append(min((c for c, _ in row.terms if c < 0), default=0))
        self.var_rows: list[list[tuple[int, int]]] = [[] for _ in range(nvars)]
        for r, row in enumerate(self.rows):
            for coeff, var in row.terms:
                self.var_rows[var].append((r, coeff))

        self.obj_fixed = 0
        self.neg_free = sum(c for c in self.cost if c < 0)
        self.trail: list[int] = []
        self.best_value = float("inf") if upper_bound is None else upper_bound + 1
        self.best: dict[str, int] | None = None
        self.budget_hit = False

    # -- assignment bookkeeping -------------------------------------------

    def _fix(self, var: int, val: int, dirty: set[int]) -> bool:
        current = self.value[var]
        if current != -1:
            return current == val
        self.value[var] = val
        self.trail.append(var)
        cost = self.cost[var]
        if cost < 0:
            self.neg_free -= cost
        if val == 1:
            self.obj_fixed += cost
        for r, coeff in self.var_rows[var]:
            self.row_lo[r] += coeff * val - min(coeff, 0)
            self.row_hi[r] += coeff * val - max(coeff, 0)
            dirty.add(r)
        return True

    def _undo_to(self, mark: int) -> None:
        while len(self.trail) > mark:
            var = self.trail.pop()
            val = self.value[var]
            self.value[var] = -1
            cost = self.cost[var]
            if cost < 0:
                self.neg_free += cost
            if val == 1:
                self.obj_fixed -= cost
            for r, coeff in self.var_rows[var]:
                self.row_lo[r] -= coeff * val - min(coeff, 0)
                self.row_hi[r] -= coeff * val - max(coeff, 0)

    def _propagate(self, dirty: set[int]) -> bool:
        """Bound propagation to fixpoint; False on conflict."""
        while dirty:
            r = dirty.pop()
            row = self.rows[r]
            c = row.constant
            lo, hi = self.row_lo[r], self.row_hi[r]
            if row.relation in ("<=", "=") and lo > c:
                return False
            if row.relation in (">=", "=") and hi < c:
                return False
            # Skip the per-variable scan when no fixing can be forced.
            maxpos, minneg = self.row_maxpos[r], self.row_minneg[r]
            can_force = False
            if row.relation in ("<=", "="):
                can_force |= lo + maxpos > c or lo - minneg > c
            if row.relation in (">=", "="):
                can_force |= hi + minneg < c or hi - maxpos < c
            if not can_force:
                continue
            for coeff, var in row.terms:
                if self.value[var] != -1:
                    continue
                lo_rest = self.row_lo[r] - min(coeff, 0)
                hi_rest = self.row_hi[r] - max(coeff, 0)
                cannot_one = False
                cannot_zero = False
                if row.relation in ("<=", "="):
                    cannot_one |= lo_rest + coeff > c
                    cannot_zero |= lo_rest > c
                if row.relation in (">=", "="):
                    cannot_one |= hi_rest + coeff < c
                    cannot_zero |= hi_rest < c
                if cannot_one and cannot_zero:
                    return False
                if cannot_one or cannot_zero:
                    if not self._fix(var, 0 if cannot_one else 1, dirty):
                        return False
        return True

    # -- search ------------------------------------------------------------

    def _objective_floor(self) -> int:
        return self.obj_fixed + self.neg_free

    def _unresolved_row(self) -> int | None:
        for r, row in enumerate(self.rows):
            lo, hi = self.row_lo[r], self.row_hi[r]
            c = row.constant
            if row.relation == "<=" and hi > c:
                return r
            if row.relation == ">=" and lo < c:
                return r
            if row.relation == "=" and (lo < c or hi > c):
                return r
        return None

    def _record_solution(self) -> None:
        values = {}
        for var, meta in enumerate(self.model.variables):
            val = self.value[var]
            if val == -1:
                val = 1 if self.cost[var] < 0 else 0
            values[meta.name] = val
        objective = sum(c * values[self.model.variables[v].name] for c, v in self.model.objective)
        if objective < self.best_value:
            self.best_value = objective
            self.best = values

    def _branch(self, var: int, val: int, block_cursor: int) -> None:
        mark = len(self.trail)
        dirty: set[int] = set()
        if self._fix(var, val, dirty) and self._propagate(dirty):
            self._search(block_cursor)
        self._undo_to(mark)

    def _close_blocks(self, block_cursor: int) -> None:
        mark = len(self.trail)
        dirty: set[int] = set()
        ok = True
        for idx in range(block_cursor, len(self.model.slot_blocks)):
            for var in self.model.slot_blocks[idx]:
                if self.value[var] == -1 and not self._fix(var, 0, dirty):
                    ok = False
                    break
            if not ok:
                break
        if ok and self._propagate(dirty):
            self._search(len(self.model.slot_blocks))
        self._undo_to(mark)

    def _search(self, block_cursor: int) -> None:
        try:
            self.effort.spend()
        except _BudgetExhausted:
            self.budget_hit = True
            raise
        if self._objective_floor() >= self.best_value:
            return

        blocks = self.model.slot_blocks
        cursor = block_cursor
        while cursor < len(blocks) and all(
            self.value[v] != -1 for v in blocks[cursor]
        ):
            cursor += 1
        if cursor < len(blocks):
            # Slots are order-interchangeable: try an empty tail first
            # (cheapest completions early), then each candidate flight.
            self._close_blocks(cursor)
            for var in blocks[cursor]:
                if self.value[var] == -1:
                    self._branch(var, 1, cursor + 1)
            return

        r = self._unresolved_row()
        if r is None:
            self._record_solution()
            return
        row = self.rows[r]
        branch_var = next(var for _c, var in row.terms if self.value[var] == -1)
        prefer = 1 if row.relation in (">=", "=") else 0
        self._branch(branch_var, prefer, block_cursor)
        self._branch(branch_var, 1 - prefer, block_cursor)


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


def _solve_native(
    model: BinaryModel, limits: SearchLimits, upper_bound: int | None
) -> Assignment:
    effort = _Effort(limits)
    solver = _BranchAndBound(model, effort, upper_bound)
    dirty = set(range(len(model.constraints)))
    feasible_root = solver._propagate(dirty)
    if feasible_root:
        try:
            solver._search(0)
        except _BudgetExhausted:
            pass

    if solver.best is not None:
        status = "feasible" if solver.budget_hit else "optimal"
        return Assignment(status, solver.best, int(solver.best_value))
    if solver.budget_hit:
        return Assignment("unknown", {}, None)
    return Assignment("infeasible", {}, None)


def _solve_highs(
    model: BinaryModel, limits: SearchLimits, upper_bound: int | None
) -> Assignment:
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
    if upper_bound is not None and model.objective:
        for coeff, var in model.objective:
            rows.append(nrows)
            cols.append(var)
            data.append(coeff)
        lower.append(-np.inf)
        upper.append(upper_bound)
        nrows += 1

    constraints = None
    if nrows:
        matrix = sparse.csr_matrix((data, (rows, cols)), shape=(nrows, nvars))
        constraints = LinearConstraint(matrix, np.array(lower), np.array(upper))
    options: dict = {"node_limit": limits.expansion_budget}
    if limits.time_budget is not None:
        options["time_limit"] = limits.time_budget
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
    if upper_bound is not None and objective > upper_bound:
        return Assignment("unknown", {}, None)
    status = "optimal" if result.status == 0 else "feasible"
    return Assignment(status, values, objective)


def solve_binary_model(
    model: BinaryModel,
    limits: SearchLimits = SearchLimits(),
    upper_bound: int | None = None,
    engine: str = "auto",
) -> Assignment:
    """Exact 0/1 minimization; ``upper_bound`` is an inclusive cap.

    With a cap, "infeasible" means no solution with objective at or
    below the cap exists.  ``engine`` is ``auto`` (HiGHS via scipy when
    importable, else the native branch and bound), ``highs``, or
    ``native``.
    """
    if not model.variables:
        return Assignment("optimal", {}, 0)
    if engine == "auto":
        try:
            import scipy.optimize  # noqa: F401

            engine = "highs"
        except ImportError:
            engine = "native"
    if engine == "highs":
        return _solve_highs(model, limits, upper_bound)
    if engine == "native":
        return _solve_native(model, limits, upper_bound)
    raise ValueError(f"unknown engine {engine!r}")


def extract_plan(kind: str, g: DemandGraph, model: BinaryModel, assignment: Assignment) -> FlightPlan:
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


def _wrap(prefix: str, chunks: list[str], width: int = 72) -> list[str]:
    lines = [prefix]
    for chunk in chunks:
        candidate = f"{lines[-1]} {chunk}"
        if len(candidate) > width and lines[-1] != prefix and lines[-1].strip():
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


def _restrict_slots(model: BinaryModel, slots: int) -> BinaryModel:
    """``model`` with every variable of a slot after ``slots`` fixed to 0 and dropped.

    A variable's last index is its latest slot in both models.  Rows
    lose the dropped terms, and a row left empty goes when 0 satisfies it.
    """
    new_id: dict[int, int] = {}
    variables: list[ModelVariable] = []
    for var_id, var in enumerate(model.variables):
        if var.index[-1] <= slots:
            new_id[var_id] = len(variables)
            variables.append(var)
    constraints = []
    for row in model.constraints:
        terms = tuple((coeff, new_id[var]) for coeff, var in row.terms if var in new_id)
        if terms or not _row_holds(row, 0):
            constraints.append(LinearConstraint(row.name, terms, row.relation, row.constant))
    objective = tuple((coeff, new_id[var]) for coeff, var in model.objective if var in new_id)
    blocks = tuple(
        tuple(new_id[var] for var in block) for block in model.slot_blocks[:slots]
    )
    return BinaryModel(variables, constraints, objective, blocks)


def _tighten(kind: str, model: BinaryModel, slots: int) -> BinaryModel:
    """The paper model as the solve path hands it to the solver.

    Only slots ``1..slots`` are kept; ``slots`` bounds the optimum, and
    only the relative order of slots matters, so the optimum is kept.
    Variable names and slot blocks carry over.
    """
    model = _restrict_slots(model, slots)
    constraints = list(model.constraints)
    blocks = model.slot_blocks
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
        for i in range(1, len(blocks)):
            terms = tuple((1, var) for var in blocks[i])
            terms += tuple((-1, var) for var in blocks[i - 1])
            constraints.append(LinearConstraint(f"prefix_{i + 1}", terms, "<=", 0))
    return BinaryModel(model.variables, constraints, model.objective, blocks)


def _solve_tightened(
    kind: str, model: BinaryModel, slots: int, limits: SearchLimits
) -> Assignment:
    """Solve ``_tighten(kind, model, slots)``; values come back on ``model``.

    The solution, extended with zeros for the dropped variables, must
    satisfy every row of the paper ``model``, so a transform bug raises
    ``ModelError`` rather than yield a wrong plan.
    """
    result = solve_binary_model(_tighten(kind, model, slots), limits, upper_bound=slots)
    if not result.feasible:
        return result
    values = dict.fromkeys((var.name for var in model.variables), 0)
    values.update(result.values)
    _verify_assignment(model, values)
    return Assignment(result.status, values, result.objective)


def optimal_twohop_ilp(g: DemandGraph, limits: SearchLimits = SearchLimits()) -> PlannerResult:
    """2-hop optimum via the slot model; the coordinator plan's count caps the slots."""
    limits.check_size(g.n, len(g.demands), "graph")
    fallback = plan_coordinator(g)
    if not g.demands:
        return make_result(g, [], "twohop", "ilp", proven_optimal=True)
    model = build_twohop_model(g)
    result = _solve_tightened("twohop", model, fallback.count, limits)
    if result.status == "infeasible":
        raise ModelError("2-hop model infeasible below a feasible plan; model bug")
    if not result.proven_optimal:
        return replace(fallback, algorithm="ilp", proven_optimal=False)
    plan = extract_plan("twohop", g, model, result)
    return make_result(g, list(plan.flights), "twohop", "ilp", proven_optimal=True)


def optimal_multihop_ilp(g: DemandGraph, limits: SearchLimits = SearchLimits()) -> PlannerResult:
    """Multihop optimum: one walk model per weakly connected component."""
    partition = weakly_connected_components(g)
    flights: list[Flight] = []
    proven = True
    for comp in partition.components:
        sub = g.restricted_to(comp)
        m = len(comp)
        limits.check_size(m, len(sub.demands), "component")
        hub_count = plan_coordinator(sub).count
        cap = min(2 * m - 1, hub_count + 1)
        model = build_multihop_model(sub)
        result = _solve_tightened("multihop", model, cap, limits)
        if result.status == "infeasible":
            raise ModelError("multihop model infeasible below a feasible walk; model bug")
        if result.feasible:
            component_plan = extract_plan("multihop", sub, model, result)
            flights.extend(component_plan.flights)
            proven = proven and result.proven_optimal
        else:
            walk = cycle_walk(sorted(comp))
            flights.extend(Flight(a, b) for a, b in zip(walk, walk[1:]))
            proven = False
    return make_result(g, flights, "multihop", "ilp", proven_optimal=proven)
