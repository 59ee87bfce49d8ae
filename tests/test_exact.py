import dataclasses
import random
from itertools import permutations

import pytest

from pigeonpost import (
    DemandGraph,
    FlightPlan,
    SearchLimitError,
    SearchLimits,
    certify,
    lower_bound,
    optimal_multihop,
    optimal_twohop,
    plan_coordinator,
    plan_cycle,
    verify_multihop,
    verify_twohop,
)
from pigeonpost import exact
from pigeonpost.instances import cycle_graph, demo_graph, random_graph

from conftest import random_demand_graph


def test_multihop_four_cycle_needs_n_pigeons():
    result = optimal_multihop(cycle_graph(4))
    assert result.count == 4
    assert result.proven_optimal
    assert verify_multihop(cycle_graph(4), result.plan).satisfied


def test_multihop_demo_optimum_is_five(demo):
    result = optimal_multihop(demo)
    assert result.count == 5
    assert result.proven_optimal


def test_multihop_disjoint_components_add_up():
    g = DemandGraph.from_pairs(4, [(0, 1), (2, 3)])
    result = optimal_multihop(g)
    assert result.count == 2


def test_multihop_rejects_oversized_component():
    g = cycle_graph(6)
    with pytest.raises(SearchLimitError):
        optimal_multihop(g, SearchLimits(max_nodes=4))


def test_multihop_budget_falls_back_to_cycle_plan():
    g = cycle_graph(6)
    result = optimal_multihop(g, SearchLimits(expansion_budget=2))
    assert not result.proven_optimal
    assert result.count == 2 * 6 - 2
    assert verify_multihop(g, result.plan).satisfied


def multihop_optima_by_bfs(n: int) -> dict[int, int]:
    """Oracle: fewest flights serving each set of ordered pairs on ``n`` nodes.

    Breadth-first search over information states, one ``carried`` mask per
    node (whose data the node holds); flight ``a -> b`` merges ``a``'s mask
    into ``b``'s.  Any flight sequence is explored, so nothing here assumes
    the walk normal form the solver relies on.  Keys are masks over
    ``permutations(range(n), 2)``; a pair set's optimum is the best depth
    of any state serving a superset of it.
    """
    pairs = list(permutations(range(n), 2))
    start = tuple(1 << v for v in range(n))
    depth = {start: 0}
    frontier = [start]
    while frontier:
        following = []
        for state in frontier:
            for a, b in pairs:
                merged = state[b] | state[a]
                if merged == state[b]:
                    continue
                child = state[:b] + (merged,) + state[b + 1:]
                if child not in depth:
                    depth[child] = depth[state] + 1
                    following.append(child)
        frontier = following

    unreachable = 2 * n * n
    best = [unreachable] * (1 << len(pairs))
    for state, d in depth.items():
        served = 0
        for i, (u, x) in enumerate(pairs):
            if (state[x] >> u) & 1:
                served |= 1 << i
        best[served] = min(best[served], d)
    for i in range(len(pairs)):  # superset minimum
        bit = 1 << i
        for mask in range(len(best)):
            if not mask & bit:
                best[mask] = min(best[mask], best[mask | bit])
    return {mask: best[mask] for mask in range(1, len(best))}


def test_multihop_matches_bfs_oracle_on_every_four_node_graph():
    pairs = list(permutations(range(4), 2))
    optima = multihop_optima_by_bfs(4)
    assert len(optima) == 4095
    for mask, expected in optima.items():
        g = DemandGraph.from_pairs(4, [p for i, p in enumerate(pairs) if (mask >> i) & 1])
        result = optimal_multihop(g)
        assert result.proven_optimal
        assert result.count == expected, g.sorted_demands()
        assert verify_multihop(g, result.plan).satisfied


# Smallest expansion budget that proves each instance.  The counts were
# measured on the tuple-keyed search that preceded the packed-int state;
# a change in them means the search expands other states, not just that
# it got faster or slower.
@pytest.mark.parametrize(
    ("g", "budget"),
    [
        (demo_graph(), 30),
        (cycle_graph(6), 36),
        (random_graph(7, 0.6, seed=1), 4163),
    ],
    ids=["demo", "cycle6", "dense7"],
)
def test_multihop_expansion_count_is_pinned(g, budget):
    proven = optimal_multihop(g, SearchLimits(expansion_budget=budget))
    assert proven.proven_optimal
    fallback = optimal_multihop(g, SearchLimits(expansion_budget=budget - 1))
    assert not fallback.proven_optimal
    assert fallback.count == 2 * g.n - 2
    assert fallback.plan == plan_cycle(g).plan


def test_twohop_path_demands_direct_is_optimal():
    g = DemandGraph.from_pairs(3, [(0, 1), (1, 2)])
    result = optimal_twohop(g)
    assert result.count == 2
    assert result.proven_optimal


def test_twohop_four_cycle():
    result = optimal_twohop(cycle_graph(4))
    assert result.count == 4
    assert verify_twohop(cycle_graph(4), result.plan).satisfied


def test_twohop_demo_matches_published_plan(demo):
    result = optimal_twohop(demo)
    assert result.count == 5
    assert result.proven_optimal
    assert verify_twohop(demo, result.plan).satisfied


def test_twohop_search_starts_at_the_component_bound(monkeypatch):
    # Two components: the component-wise bound 2 + 2 = 4 equals the
    # coordinator count, so no depth below it is searched.
    g = DemandGraph.from_pairs(6, [(0, 1), (0, 2), (3, 5), (4, 5)])
    depths = []
    find_plan = exact._TwoHopSearch.find_plan

    def recording(self, k):
        depths.append(k)
        return find_plan(self, k)

    monkeypatch.setattr(exact._TwoHopSearch, "find_plan", recording)
    result = optimal_twohop(g)
    assert depths == []
    assert result.proven_optimal
    assert result.count == lower_bound(g).component_total == 4


def test_twohop_budget_falls_back_to_coordinator(demo):
    result = optimal_twohop(demo, SearchLimits(expansion_budget=3))
    assert not result.proven_optimal
    assert result.count == plan_coordinator(demo).count
    assert verify_twohop(demo, result.plan).satisfied


def test_certify_tight_bound():
    g = cycle_graph(4)
    cert = certify(g, optimal_multihop(g))
    assert (cert.count, cert.lower_bound, cert.tight, cert.valid) == (4, 4, True, True)


def test_certify_demo_not_tight(demo):
    cert = certify(demo, optimal_multihop(demo))
    assert (cert.count, cert.lower_bound, cert.tight) == (5, 3, False)
    assert cert.valid


def test_certify_detects_tampered_plan(demo):
    result = optimal_multihop(demo)
    tampered = dataclasses.replace(
        result,
        plan=FlightPlan(result.plan.flights[:-1]),
        count=result.count - 1,
    )
    assert not certify(demo, tampered).valid


def test_certify_requires_proven_result(demo):
    unproven = dataclasses.replace(plan_coordinator(demo), proven_optimal=False)
    with pytest.raises(ValueError):
        certify(demo, unproven)


@pytest.mark.parametrize("seed", range(30))
def test_sandwich_bounds(seed):
    rng = random.Random(seed)
    g = random_demand_graph(rng, rng.randint(2, 7), rng.choice([0.2, 0.35, 0.5]))
    bound = lower_bound(g).overall
    multi = optimal_multihop(g)
    hub = plan_coordinator(g)
    ring = plan_cycle(g)
    assert bound <= multi.count <= hub.count <= ring.count or not g.demands
    if g.n <= 4:
        two = optimal_twohop(g)
        assert multi.count <= two.count <= hub.count


@pytest.mark.parametrize("seed", range(12))
def test_component_additivity(seed):
    rng = random.Random(seed)
    left = random_demand_graph(rng, 3, 0.5)
    right = random_demand_graph(rng, 3, 0.5)
    shifted = [(a + 3, b + 3) for a, b in right.demands]
    union = DemandGraph.from_pairs(6, list(left.demands) + shifted)
    expected = optimal_multihop(left).count + optimal_multihop(right).count
    assert optimal_multihop(union).count == expected
