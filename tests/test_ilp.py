import operator
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from pigeonpost import (
    Assignment,
    BinaryModel,
    DemandGraph,
    FlightPlan,
    ModelError,
    build_multihop_model,
    build_twohop_model,
    export_lp,
    extract_plan,
    optimal_multihop,
    optimal_multihop_ilp,
    optimal_twohop,
    optimal_twohop_ilp,
    plan_coordinator,
    solve_binary_model,
    verify_multihop,
    verify_twohop,
)
from pigeonpost import ilp
from pigeonpost.exact import SearchLimits
from pigeonpost.planners import _BudgetExhausted, _Effort
from pigeonpost.ilp import LinearConstraint, ModelVariable
from pigeonpost.instances import cycle_graph, demo_graph, star_graph

from conftest import TRIANGLE, random_connected_demand_graph, random_demand_graph
from test_acceptance import _all_connected_graphs_n3

DATA = Path(__file__).parent / "data"

PATH3 = DemandGraph.from_pairs(3, [(0, 1), (1, 2)])


def count_kinds(model: BinaryModel):
    xs = sum(1 for v in model.variables if v.kind == "x")
    ys = sum(1 for v in model.variables if v.kind == "y")
    return xs, ys


def test_twohop_model_sizes_n3():
    model = build_twohop_model(PATH3)
    # 6 ordered pairs x 4 slots; 2 demands x 3 relay nodes x 4 slots
    assert count_kinds(model) == (24, 24)


def test_twohop_size_formula():
    for n, d_target in ((2, 1), (3, 3), (4, 5)):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        g = DemandGraph.from_pairs(n, pairs[:d_target])
        model = build_twohop_model(g)
        slots = 2 * n - 2
        d = len(g.demands)
        assert count_kinds(model) == (n * (n - 1) * slots, d * n * slots)
        assert len(model.constraints) == slots + d + 2 * d * n * slots


def test_twohop_empty_demands_optimum_zero():
    model = build_twohop_model(DemandGraph.from_pairs(3, []))
    assert solve_binary_model(model).objective == 0


def test_multihop_model_sizes_n3():
    model = build_multihop_model(PATH3)
    assert count_kinds(model) == (18, 30)
    assert len(model.constraints) == 38  # 6 slot + 2 serve + 30 placement


def test_multihop_model_requires_single_component():
    with pytest.raises(ModelError):
        build_multihop_model(DemandGraph.from_pairs(4, [(0, 1), (2, 3)]))


def test_multihop_single_demand_objective_two():
    g = DemandGraph.from_pairs(2, [(0, 1)])
    assert solve_binary_model(build_multihop_model(g)).objective == 2


def test_multihop_four_cycle_objective_five():
    result = solve_binary_model(build_multihop_model(cycle_graph(4)))
    assert result.objective == 5  # walk nodes; pigeons = 4


def test_twohop_demo_objective_five(demo):
    model = build_twohop_model(demo, plan_coordinator(demo).count)
    result = solve_binary_model(model)
    assert result.objective == 5
    plan = extract_plan("twohop", model, result)
    assert plan.count == 5
    assert verify_twohop(demo, plan).satisfied


def test_vertex_cover_paw_graph_objective_six():
    # paw graph (triangle plus pendant edge), demands both ways
    demands = []
    for u, v in [(0, 1), (1, 2), (0, 2), (0, 3)]:
        demands += [(u, v), (v, u)]
    g = DemandGraph.from_pairs(4, demands)
    result = solve_binary_model(build_multihop_model(g, 7))
    assert result.objective == 6  # 5 pigeons, matching budget n + 2 - 1


def test_extract_multihop_walk():
    model = build_multihop_model(cycle_graph(4), 5)
    result = solve_binary_model(model)
    plan = extract_plan("multihop", model, result)
    assert plan.count == 4
    assert verify_multihop(cycle_graph(4), plan).satisfied


def test_extract_empty_model():
    g = DemandGraph.from_pairs(3, [])
    model = build_multihop_model(g)
    plan = extract_plan("multihop", model, solve_binary_model(model))
    assert plan.count == 0


def test_infeasible_under_cap():
    model = build_multihop_model(DemandGraph.from_pairs(2, [(0, 1)]), 1)
    assert solve_binary_model(model).status == "infeasible"


def test_empty_model_failing_a_row_is_infeasible():
    # A cover row left with no terms, as a model with too few slots can hold.
    model = BinaryModel([], [LinearConstraint("c", (), ">=", 1)], ())
    result = solve_binary_model(model)
    assert result.status == "infeasible"
    assert not result.feasible


def test_highs_point_breaking_a_row_is_refused(monkeypatch):
    # The rows are checked on the point HiGHS returns, not taken on trust.
    np = pytest.importorskip("numpy")
    scipy_optimize = pytest.importorskip("scipy.optimize")

    def breaking_point(**kwargs):
        return SimpleNamespace(status=0, x=np.zeros(1))

    monkeypatch.setattr(scipy_optimize, "milp", breaking_point)
    model = BinaryModel([ModelVariable("x", (0,))], [LinearConstraint("c", ((1, 0),), ">=", 1)], ())
    with pytest.raises(ModelError, match="violating c"):
        solve_binary_model(model)


def test_row_naming_an_unknown_variable_is_refused():
    with pytest.raises(ModelError, match="constraint c references unknown variable"):
        BinaryModel([ModelVariable("x", (0,))], [LinearConstraint("c", ((1, 1),), "<=", 1)], ())


def test_variable_name_is_its_kind_and_index():
    assert ModelVariable._fields == ("kind", "index")
    assert ModelVariable("y", (0, 2, 1, 3)).name == "y_0_2_1_3"


PATH3_ONE_SLOT = build_twohop_model(PATH3, 1)  # 6 flight and 6 relay variables
X01, X12 = ModelVariable("x", (0, 1, 1)), ModelVariable("x", (1, 2, 1))


def _values(*active: ModelVariable) -> tuple[int, ...]:
    return tuple(int(var in active) for var in PATH3_ONE_SLOT.variables)


@pytest.mark.parametrize(
    "kind, assignment, message",
    [
        ("twohop", Assignment("infeasible", (), None), "infeasible assignment"),
        ("singlehop", Assignment("optimal", _values(X01), 1), "unknown model kind"),
        ("twohop", Assignment("optimal", _values(X01, X12), 2), "two flights active in slot 1"),
        ("twohop", Assignment("optimal", (1,), 1), "1 values for 12 variables"),
    ],
    ids=["infeasible", "unknown-kind", "two-flights-in-a-slot", "values-short"],
)
def test_extract_plan_refuses(kind, assignment, message):
    with pytest.raises(ModelError, match=message):
        extract_plan(kind, PATH3_ONE_SLOT, assignment)


def test_export_lp_empty_model():
    assert export_lp(BinaryModel([], [], ())) == "Minimize\n obj:\nSubject To\nBinary\nEnd\n"


def test_export_lp_single_demand_golden():
    g = DemandGraph.from_pairs(2, [(0, 1)])
    expected = (DATA / "single_demand_multihop.lp").read_text()
    assert export_lp(build_multihop_model(g)) == expected


def test_export_lp_binary_count_n3():
    text = export_lp(build_twohop_model(PATH3))
    binary_section = text.split("Binary\n")[1]
    names = [line.strip() for line in binary_section.splitlines() if line.strip() != "End"]
    assert len(names) == 48


def test_ilp_planners_match_exact(demo):
    limits = SearchLimits()
    assert optimal_twohop_ilp(PATH3, limits).count == optimal_twohop(PATH3).count
    multi = optimal_multihop_ilp(demo, limits)
    assert multi.count == optimal_multihop(demo).count == 5
    assert multi.proven_optimal
    assert verify_multihop(demo, multi.plan).satisfied


def test_ilp_multihop_handles_components():
    g = DemandGraph.from_pairs(5, [(0, 1), (2, 3), (3, 4)])
    result = optimal_multihop_ilp(g)
    assert result.count == optimal_multihop(g).count == 1 + 2


@pytest.mark.parametrize("seed", range(8))
def test_cross_solver_agreement_n4(seed):
    rng = random.Random(seed)
    g = random_connected_demand_graph(rng, 4)
    model = build_twohop_model(g, plan_coordinator(g).count)
    assignment = solve_binary_model(model)
    assert assignment.objective == optimal_twohop(g).count
    plan = extract_plan("twohop", model, assignment)
    assert verify_twohop(g, plan).satisfied
    assert optimal_multihop_ilp(g).count == optimal_multihop(g).count


@pytest.fixture
def solved(monkeypatch):
    """Record every (model, assignment) the ILP planners hand to the solver."""
    calls = []

    def recording(model, *args, **kwargs):
        assignment = solve_binary_model(model, *args, **kwargs)
        calls.append((model, assignment))
        return assignment

    monkeypatch.setattr(ilp, "solve_binary_model", recording)
    return calls


# Two bidirected triangles: each part's incumbent has 4 flights against a
# bound of 3 in both regimes, so each part reaches HiGHS.
TWO_TRIANGLES = DemandGraph.from_pairs(
    6, [*TRIANGLE.demands, *((u + 3, v + 3) for u, v in TRIANGLE.demands)]
)


def test_highs_calls_share_the_solve_deadline(monkeypatch):
    # Two bidirected triangles: each component's incumbent (4 flights, the
    # coordinator plan and the DFVS walk alike) is above its bound (3), so
    # HiGHS runs once per component, each time with what is left of the
    # solve's one time budget.
    budgets = []

    def recording(model, limits):
        budgets.append(limits.time_budget)
        return solve_binary_model(model, limits)

    monkeypatch.setattr(ilp, "solve_binary_model", recording)
    result = optimal_multihop_ilp(TWO_TRIANGLES, SearchLimits(time_budget=30))
    assert (result.count, result.proven_optimal) == (8, True)
    assert len(budgets) == 2
    assert 30 >= budgets[0] > budgets[1]


@pytest.mark.parametrize(
    "limits, calls, proven, basis",
    [(SearchLimits(time_budget=1e-9), 0, False, "budget"), (SearchLimits(), 2, True, "highs")],
    ids=["deadline-passed", "default"],
)
def test_a_passed_deadline_skips_highs(monkeypatch, limits, calls, proven, basis):
    budgets = []

    def recording(model, limits):
        budgets.append(limits.time_budget)
        return solve_binary_model(model, limits)

    monkeypatch.setattr(ilp, "solve_binary_model", recording)
    result = optimal_twohop_ilp(TWO_TRIANGLES, limits)
    assert len(budgets) == calls
    assert (result.count, result.proven_optimal) == (8, proven)
    assert result.proof == ((basis, 3), (basis, 3))
    assert verify_twohop(TWO_TRIANGLES, result.plan).satisfied


def _violated_rows(model: BinaryModel, values: tuple[int, ...]) -> list[str]:
    holds = {"<=": operator.le, ">=": operator.ge, "=": operator.eq}
    return [
        row.name
        for row in model.constraints
        if not holds[row.relation](
            sum(coeff * values[var] for coeff, var in row.terms), row.constant
        )
    ]


# A 4-node graph whose greedy-DFVS walk (5 flights) is above its multihop
# optimum (4), and so is its coordinator plan (6); in 2-hop the relay plan
# finds the optimum.
WALK5 = DemandGraph.from_pairs(4, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 0), (3, 1)])

TIGHTENED_CASES = [(f"n3-{i}", g) for i, g in enumerate(_all_connected_graphs_n3())]
TIGHTENED_CASES += [("demo", demo_graph()), ("cycle4", cycle_graph(4)), ("walk5", WALK5)]


def _coordinator_and_bound(g: DemandGraph) -> tuple[int, int]:
    """The coordinator count of a connected ``g`` and the bound
    ``max(m - 1, |S|, |D|)`` the planner holds it to in either regime."""
    hub = plan_coordinator(g)
    return hub.count, max(g.n - 1, hub.lower_bound)


@pytest.mark.parametrize(
    "planner, exact, build, slack",
    [
        (optimal_twohop_ilp, optimal_twohop, build_twohop_model, 1),
        (optimal_multihop_ilp, optimal_multihop, build_multihop_model, 0),
    ],
    ids=["twohop", "multihop"],
)
def test_tightened_solve_keeps_optimum_and_paper_rows(solved, planner, exact, build, slack):
    # All 54 connected 3-node graphs, the demo, the 4-cycle and WALK5.
    assert len(TIGHTENED_CASES) == 57
    paths = set()
    for label, g in TIGHTENED_CASES:
        solved.clear()
        result = planner(g)
        assert result.proven_optimal, label
        assert result.count == exact(g).count, label
        coordinator, bound = _coordinator_and_bound(g)
        if not solved:
            # Decided by the bound, without a solver call: the incumbent,
            # the coordinator plan or a shorter one, met it.
            assert bound == result.count <= coordinator, label
            paths.add("bound")
            continue
        ((model, assignment),) = solved
        # The model holds the plans below the incumbent: one flight slot
        # fewer than its flights (2-hop), or one walk position per flight.
        incumbent = max(v.index[-1] for v in model.variables) + slack
        assert bound < incumbent <= coordinator, label
        if assignment.status == "infeasible":
            # Nothing beats the incumbent, which is returned as proven.
            assert result.count == incumbent, label
            paths.add("infeasible")
            continue
        assert assignment.proven_optimal, label
        assert result.count < incumbent, label
        paper = build(g)
        assert set(model.variables) <= set(paper.variables), label
        # The solution on the paper model: the variables of its later slots are 0.
        solution = dict(zip(model.variables, assignment.values))
        values = tuple(solution.get(var, 0) for var in paper.variables)
        assert _violated_rows(paper, values) == [], label
        paths.add("solved")
    assert paths == {"bound", "infeasible", "solved"}


def test_solved_multihop_model_is_the_tightened_one(solved):
    # The 4-cycle below its coordinator plan (6 flights, cap 5): the policy
    # now proves it by the DFVS walk, so the search is called directly.
    g = cycle_graph(4)
    assert plan_coordinator(g).count == 6
    flights = ilp._solve_below("multihop", g, 4, 5, _Effort(SearchLimits()))
    assert len(flights) == 4
    assert verify_multihop(g, FlightPlan(flights)).satisfied
    ((model, assignment),) = solved
    assert assignment.proven_optimal
    # 6 walk positions (the cap's flights plus one) x 4 nodes; 4 demands x C(6, 2) pairs
    assert len(model.variables) == 24 + 60
    # 6 slot + 4 serve + 4 demands x (5 out + 5 in) linking rows
    assert len(model.constraints) == 6 + 4 + 40
    assert not any(row.name.startswith("place_") for row in model.constraints)


def test_count_at_the_bound_calls_no_solver(solved):
    g = star_graph(5)
    result = optimal_twohop_ilp(g)
    assert solved == []
    assert result.proven_optimal
    assert result.count == plan_coordinator(g).count == result.lower_bound


def test_infeasible_model_proves_the_incumbent(solved):
    # The bidirected triangle: coordinator = optimum = 4, above the bound 3.
    g = TRIANGLE
    hub = plan_coordinator(g)
    result = optimal_twohop_ilp(g)
    ((model, assignment),) = solved
    assert max(v.index[-1] for v in model.variables) == hub.count - 1 == 3
    assert assignment.status == "infeasible"
    assert result.proven_optimal
    assert result.plan == hub.plan and result.algorithm == "ilp"


# Graphs whose incumbent is above the optimum 4: in 2-hop the coordinator
# plan (5), which the relay plan does not beat; in multihop the DFVS walk
# (5), under the coordinator plan (6).
RELAY5 = DemandGraph.from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0)])


@pytest.mark.parametrize(
    "planner, g, slack",
    [(optimal_twohop_ilp, RELAY5, 1), (optimal_multihop_ilp, WALK5, 0)],
    ids=["optimal_twohop_ilp", "optimal_multihop_ilp"],
)
def test_solve_finds_a_plan_below_the_incumbent(solved, planner, g, slack):
    result = planner(g)
    ((model, assignment),) = solved
    assert assignment.proven_optimal
    assert result.proven_optimal
    # The model is built at the incumbent's count, as in the test above.
    assert max(v.index[-1] for v in model.variables) + slack == 5
    assert result.count == 4 < 5 <= plan_coordinator(g).count


def test_an_unproven_highs_plan_is_kept_unproven(monkeypatch):
    # HiGHS stops at a limit with a plan in hand: ``_solve_below`` raises
    # the plan out with the budget, and the policy keeps it, unproven,
    # in place of the 5-flight incumbent.
    def stopped_at_a_limit(model, limits):
        return solve_binary_model(model, limits)._replace(status="feasible")

    monkeypatch.setattr(ilp, "solve_binary_model", stopped_at_a_limit)
    result = optimal_twohop_ilp(RELAY5)
    assert (result.count, result.proven_optimal) == (4, False)
    assert result.proof == (("budget", 4),)
    assert verify_twohop(RELAY5, result.plan).satisfied


@pytest.mark.parametrize("kind", ["twohop", "multihop"])
def test_solve_below_builds_no_model_after_the_deadline(monkeypatch, kind):
    def fail(*args):
        raise AssertionError("no model is built after the deadline")

    monkeypatch.setattr(ilp, "build_twohop_model", fail)
    monkeypatch.setattr(ilp, "build_multihop_model", fail)
    effort = _Effort(SearchLimits(time_budget=1e-9))
    with pytest.raises(_BudgetExhausted) as exhausted:
        ilp._solve_below(kind, TRIANGLE, 3, 3, effort)
    assert exhausted.value.plan is None


def test_twohop_count_at_the_component_bound_calls_no_solver(solved):
    # Two components: the coordinator count 4 meets the component-wise
    # bound 2 + 2, not the overall max(|S|, |D|) = 3.
    g = DemandGraph.from_pairs(6, [(0, 1), (0, 2), (3, 5), (4, 5)])
    result = optimal_twohop_ilp(g)
    assert solved == []
    assert result.proven_optimal
    assert result.count == plan_coordinator(g).count == 4
    assert result.lower_bound == 3  # the JSON field stays the overall bound


def test_ilp_planners_match_exact_on_random_graphs():
    # 120 graphs of 2-4 nodes, some with several components; all three
    # paths (bound, infeasible, solved) occur in both regimes.
    rng = random.Random(2024)
    for _ in range(120):
        g = random_demand_graph(rng, rng.randint(2, 4), rng.choice([0.2, 0.3, 0.4, 0.5]))
        for planner, exact, verify in (
            (optimal_twohop_ilp, optimal_twohop, verify_twohop),
            (optimal_multihop_ilp, optimal_multihop, verify_multihop),
        ):
            result = planner(g)
            assert result.proven_optimal, g.demands
            assert result.count == exact(g).count, g.demands
            assert verify(g, result.plan).satisfied, g.demands
