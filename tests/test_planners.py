import math
import random

import pytest

from pigeonpost import (
    DemandGraph,
    FlightPlan,
    SearchLimitError,
    SearchLimits,
    lower_bound,
    optimal_multihop,
    optimal_multihop_ilp,
    optimal_twohop,
    optimal_twohop_ilp,
    plan_coordinator,
    plan_cycle,
    plan_singlehop,
    verify_multihop,
    verify_singlehop,
    verify_twohop,
    weakly_connected_components,
)
from pigeonpost.instances import cycle_graph, demo_graph, star_graph
from pigeonpost.planners import _checked_parts, _RelayAssignment

from conftest import TRIANGLE, random_demand_graph


def test_singlehop_demo(demo):
    result = plan_singlehop(demo)
    assert result.count == 6
    assert result.proven_optimal
    assert verify_singlehop(demo, result.plan).satisfied


def test_singlehop_empty():
    result = plan_singlehop(DemandGraph.from_pairs(3, []))
    assert result.count == 0


def test_singlehop_complete_bidirectional():
    g = DemandGraph.from_pairs(3, [(a, b) for a in range(3) for b in range(3) if a != b])
    assert plan_singlehop(g).count == 6  # n * (n - 1)


def test_coordinator_demo(demo):
    result = plan_coordinator(demo)
    assert result.count == 5
    assert result.coordinators == (0,)
    assert [(f.remote, f.home) for f in result.plan.flights] == [
        (1, 0), (2, 0), (0, 3), (0, 4), (0, 5),
    ]
    assert verify_twohop(demo, result.plan).satisfied


def test_coordinator_six_cycle():
    result = plan_coordinator(cycle_graph(6))
    assert result.count == 2 * 6 - 2


def test_coordinator_star_needs_no_gather():
    result = plan_coordinator(star_graph(4))
    assert result.coordinators == (0,)
    assert result.count == 3
    assert result.count == result.lower_bound


def test_cycle_plan_component_of_four():
    g = DemandGraph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    result = plan_cycle(g)
    assert result.count == 6


def test_cycle_plan_two_node_component():
    g = DemandGraph.from_pairs(2, [(0, 1), (1, 0)])
    result = plan_cycle(g)
    assert [(f.remote, f.home) for f in result.plan.flights] == [(0, 1), (1, 0)]


def test_cycle_plan_demo_verifies_multihop(demo):
    result = plan_cycle(demo)
    assert result.count == 10
    assert verify_multihop(demo, result.plan).satisfied


@pytest.mark.parametrize("seed", range(40))
def test_planner_invariants_on_random_graphs(seed):
    rng = random.Random(seed)
    g = random_demand_graph(rng, rng.randint(0, 7), rng.choice([0.15, 0.3, 0.5]))
    bound = lower_bound(g).overall
    profile_sizes = len({s for s, _ in g.demands}), len({d for _, d in g.demands})

    direct = plan_singlehop(g)
    assert direct.count == len(g.demands)
    assert verify_singlehop(g, direct.plan).satisfied

    hub = plan_coordinator(g)
    assert verify_twohop(g, hub.plan).satisfied
    assert verify_multihop(g, hub.plan).satisfied
    assert hub.count <= sum(profile_sizes)
    assert hub.count >= bound
    if g.demands:
        assert hub.count <= 2 * bound

    ring = plan_cycle(g)
    assert verify_multihop(g, ring.plan).satisfied
    comps = weakly_connected_components(g).components
    assert ring.count == sum(2 * len(c) - 2 for c in comps)


def test_plans_are_deterministic(demo):
    assert plan_coordinator(demo).to_json() == plan_coordinator(demo).to_json()
    assert plan_cycle(demo).to_json() == plan_cycle(demo).to_json()
    assert plan_singlehop(demo).to_json() == plan_singlehop(demo).to_json()


def test_default_time_budget_is_finite():
    assert SearchLimits().time_budget == 60


def test_time_budget_none_is_refused():
    with pytest.raises(TypeError):
        SearchLimits(time_budget=None)


# The demo's coordinator plan meets its bound in both modes, and the
# 4-cycle's relay plan and DFVS walk meet it; the bidirected triangle's
# incumbent does not, so the exact search and HiGHS run.
@pytest.mark.parametrize("graph, optimum", [(demo_graph(), 5), (cycle_graph(4), 4), (TRIANGLE, 4)],
                         ids=["demo", "cycle4", "triangle"])
@pytest.mark.parametrize(
    "solve",
    [optimal_twohop, optimal_multihop, optimal_twohop_ilp, optimal_multihop_ilp],
    ids=["exact-twohop", "exact-multihop", "ilp-twohop", "ilp-multihop"],
)
def test_unbounded_time_budget_proves_the_optimum(graph, optimum, solve):
    if solve.__name__.endswith("_ilp"):
        pytest.importorskip("scipy")
    result = solve(graph, SearchLimits(time_budget=math.inf))
    assert (result.count, result.proven_optimal) == (optimum, True)


def test_parts_are_the_components_in_local_ids():
    # Nodes 1, 4 and 6 carry no demand and belong to no part.
    g = DemandGraph.from_pairs(8, [(7, 0), (0, 3), (5, 2)])
    assert _checked_parts(g, SearchLimits()) == [
        ([0, 3, 7], DemandGraph(3, frozenset({(2, 0), (0, 1)})), 2),
        ([2, 5], DemandGraph(2, frozenset({(1, 0)})), 1),
    ]


@pytest.mark.parametrize(
    "solve",
    [optimal_twohop, optimal_multihop, optimal_twohop_ilp, optimal_multihop_ilp],
    ids=["exact-twohop", "exact-multihop", "ilp-twohop", "ilp-multihop"],
)
def test_size_limits_apply_to_each_component(solve):
    # Two 3-cycles, 6 nodes and 6 demands in all; each is a part of 3
    # nodes and 3 demands and needs 3 flights.
    if solve.__name__.endswith("_ilp"):
        pytest.importorskip("scipy")
    g = DemandGraph.from_pairs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    result = solve(g, SearchLimits(max_nodes=3, max_demands=3))
    assert (result.count, result.proven_optimal) == (6, True)
    for limits in (SearchLimits(max_nodes=2), SearchLimits(max_demands=2)):
        with pytest.raises(SearchLimitError):
            solve(g, limits)


def test_relay_plan_flies_a_feedback_set_of_its_links_twice():
    # The 3-cycle 0 -> 2 -> 1 -> 0, each demand relayed around the other
    # way: the links (0, 1) -> (1, 2) -> (2, 0) -> (0, 1) form a cycle, so
    # one of the 3 arcs flies before and after the others.
    g = DemandGraph.from_pairs(3, [(0, 2), (1, 0), (2, 1)])
    state = _RelayAssignment(3, g.sorted_demands(), [1, 2, 0])
    assert (len(state.users), state.score()) == (3, 4)
    flights = state.flights()
    assert flights == [(0, 1), (1, 2), (2, 0), (0, 1)]
    assert verify_twohop(g, FlightPlan(flights)).satisfied
    # A local optimum: serving one demand directly breaks the cycle but
    # adds an arc.  Each demand's one other option is tried once.
    spent = []
    assert state.climb(3, lambda: spent.append(1)) == 4
    assert len(spent) == 3
    assert state.flights() == flights
