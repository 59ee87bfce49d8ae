import heapq
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
from pigeonpost import exact, ilp, weakly_connected_components
from pigeonpost.demand import _endpoint_bound, _flight_bound
from pigeonpost.instances import cycle_graph, demo_graph, random_graph, star_graph

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


def test_multihop_budget_falls_back_to_coordinator_plan():
    g = cycle_graph(6)
    result = optimal_multihop(g, SearchLimits(expansion_budget=2))
    assert not result.proven_optimal
    assert result.plan == plan_coordinator(g).plan
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

    served_depths = []
    for state, d in depth.items():
        served = 0
        for i, (u, x) in enumerate(pairs):
            if (state[x] >> u) & 1:
                served |= 1 << i
        served_depths.append((served, d))
    return superset_minimum(len(pairs), served_depths)


def superset_minimum(npairs: int, served_depths) -> dict[int, int]:
    """Per nonempty pair mask, the least depth of a state serving a superset."""
    best = [2 * npairs] * (1 << npairs)  # above any optimum: one flight per pair
    for served, d in served_depths:
        best[served] = min(best[served], d)
    for i in range(npairs):
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


def multihop_optimum_by_astar(g: DemandGraph) -> int:
    """Oracle: fewest flights serving ``g``'s demands under multihop routing.

    A* over knowledge states, one mask per node of the origins whose data
    it carries; flight ``a -> b`` ORs ``a``'s mask into ``b``'s.  Any
    flight sequence is explored, so, like the BFS oracle above, nothing
    here assumes the walk normal form that ``optimal_multihop`` and the
    ILP rely on.  The heuristic counts the destinations still missing an
    origin: a flight changes one node's mask, so it is consistent, and
    the first goal state popped is at the optimal depth.  Ties go to the
    deeper state, which reaches a goal sooner.
    """
    n = g.n
    wanted = [0] * n
    for u, v in g.demands:
        wanted[v] |= 1 << u

    def missing(state: tuple[int, ...]) -> int:
        return sum(1 for v in range(n) if wanted[v] & ~state[v])

    start = tuple(1 << v for v in range(n))
    depth = {start: 0}
    heap = [(missing(start), 0, start)]
    while heap:
        estimate, minus_d, state = heapq.heappop(heap)
        d = -minus_d
        if estimate == d:  # nothing missing
            return d
        if d > depth[state]:
            continue
        for a, b in permutations(range(n), 2):
            merged = state[b] | state[a]
            if merged == state[b]:
                continue
            child = state[:b] + (merged,) + state[b + 1:]
            if d + 1 < depth.get(child, d + 2):
                depth[child] = d + 1
                heapq.heappush(heap, (d + 1 + missing(child), -d - 1, child))
    raise AssertionError("every demand set is servable")


def test_multihop_matches_astar_oracle_on_random_five_node_graphs():
    for seed in range(200):
        rng = random.Random(seed)
        g = random_demand_graph(rng, 5, rng.choice([0.2, 0.3, 0.4, 0.5, 0.7]))
        result = optimal_multihop(g)
        assert result.proven_optimal
        assert result.count == multihop_optimum_by_astar(g), (seed, g.sorted_demands())


def twohop_optima_by_bfs(n: int) -> dict[int, int]:
    """Oracle: fewest 2-hop flights serving each set of ordered pairs on ``n`` nodes.

    Breadth-first search over states (arcs flown, pairs served), both masks
    over ``permutations(range(n), 2)``.  Flight ``a -> b`` serves
    ``(a, b)`` and every ``(u, b)`` whose pickup ``(u, a)`` flew earlier.
    Any flight order is explored and no relay form is assumed.
    """
    pairs = list(permutations(range(n), 2))
    bit = {pair: 1 << i for i, pair in enumerate(pairs)}
    # Per flight (a, b): its own bit, and (pickup (u, a), relayed (u, b)).
    flights = [
        (bit[(a, b)], [(bit[(u, a)], bit[(u, b)]) for u in range(n) if u not in (a, b)])
        for a, b in pairs
    ]
    depth = {(0, 0): 0}
    frontier = [(0, 0)]
    while frontier:
        following = []
        for state in frontier:
            flown, served = state
            for arc, relays in flights:
                gained = arc
                for pickup, relayed in relays:
                    if flown & pickup:
                        gained |= relayed
                child = (flown | arc, served | gained)
                if child not in depth:
                    depth[child] = depth[state] + 1
                    following.append(child)
        frontier = following
    return superset_minimum(len(pairs), ((served, d) for (_, served), d in depth.items()))


def test_twohop_matches_bfs_oracle_on_every_four_node_graph():
    pairs = list(permutations(range(4), 2))
    optima = twohop_optima_by_bfs(4)
    assert len(optima) == 4095
    for mask, expected in optima.items():
        g = DemandGraph.from_pairs(4, [p for i, p in enumerate(pairs) if (mask >> i) & 1])
        result = optimal_twohop(g)
        assert result.proven_optimal
        assert result.count == expected, g.sorted_demands()
        assert verify_twohop(g, result.plan).satisfied


def twohop_optimum_by_astar(g: DemandGraph) -> int:
    """Oracle: fewest flights serving ``g``'s demands under 2-hop routing.

    A* over (arcs flown, demands served), the per-graph form of
    ``twohop_optima_by_bfs``.  Arc ``u -> w`` is bit ``w*n + u`` of the
    first mask and demand ``(u, v)`` is bit ``v*n + u`` of the second, so
    flight ``a -> b`` serves, by one shift, ``(a, b)`` and every
    ``(u, b)`` whose pickup ``u -> a`` flew earlier.  Any flight order is
    explored and no relay form is assumed.  The heuristic counts the
    destinations still missing a demand: a flight lands at one node, so
    it is consistent, and the first goal state popped is at the optimal
    depth.  Ties go to the deeper state, which reaches a goal sooner.
    """
    n = g.n
    row = (1 << n) - 1
    wanted = 0
    for u, v in g.demands:
        wanted |= 1 << (v * n + u)
    into = [wanted & row << (v * n) for v in range(n)]

    def missing(served: int) -> int:
        return sum(1 for mask in into if mask & ~served)

    start = (0, 0)
    depth = {start: 0}
    heap = [(missing(0), 0, start)]
    while heap:
        estimate, minus_d, state = heapq.heappop(heap)
        d = -minus_d
        if estimate == d:  # nothing missing
            return d
        if d > depth[state]:
            continue
        flown, served = state
        for a, b in permutations(range(n), 2):
            held = (flown >> (a * n)) & row | 1 << a  # a's own data and its pickups'
            child = (flown | 1 << (b * n + a), served | (held << (b * n)) & wanted)
            if child != state and d + 1 < depth.get(child, d + 2):
                depth[child] = d + 1
                heapq.heappush(heap, (d + 1 + missing(child[1]), -d - 1, child))
    raise AssertionError("every demand set is servable")


def one_bound(g: DemandGraph) -> int:
    return _flight_bound(*weakly_connected_components(g))


def component_above_endpoints(rng: random.Random, nodes: list[int]) -> list[tuple[int, int]]:
    """Demands of one weakly connected component on ``nodes`` whose
    ``m - 1`` exceeds ``max(|S|, |D|)``, so the bound rests on ``m - 1``."""
    while True:
        pairs = [(a, b) for a in nodes for b in nodes if a != b and rng.random() < 0.3]
        g = DemandGraph.from_pairs(max(nodes) + 1, pairs)
        if (weakly_connected_components(g).components == (frozenset(nodes),)
                and len(nodes) - 1 > _endpoint_bound(pairs)):
            return pairs


def oracle_sample(n: int, seed: int) -> DemandGraph:
    """Seeded ``n``-node graph; every fifth holds a 4-node component above
    its endpoints and nothing else."""
    rng = random.Random(seed)
    if seed % 5:
        return random_demand_graph(rng, n, rng.choice([0.2, 0.3, 0.4, 0.5, 0.7]))
    return DemandGraph.from_pairs(n, component_above_endpoints(rng, sorted(rng.sample(range(n), 4))))


def two_component_graph(seed: int) -> DemandGraph:
    """Seeded 6-node graph: a 4-node component above its endpoints and a 2-node one."""
    rng = random.Random(seed)
    nodes = list(range(6))
    rng.shuffle(nodes)
    a, b = nodes[4:]
    pair = [(a, b), (b, a)][: rng.randint(1, 2)]
    return DemandGraph.from_pairs(6, component_above_endpoints(rng, sorted(nodes[:4])) + pair)


@pytest.mark.parametrize(
    "n, seeds", [(5, range(100)), pytest.param(6, range(30), marks=pytest.mark.slow)], ids=["n5", "n6"]
)
def test_twohop_matches_astar_oracle(n, seeds):
    for seed in seeds:
        g = oracle_sample(n, seed)
        expected = twohop_optimum_by_astar(g)
        assert one_bound(g) <= expected, (seed, g.sorted_demands())
        result = optimal_twohop(g)
        assert result.proven_optimal
        assert result.count == expected, (seed, g.sorted_demands())


@pytest.mark.slow
@pytest.mark.parametrize("n, count", [(6, 100), (7, 40)], ids=["n6", "n7"])
def test_multihop_matches_astar_oracle_on_larger_graphs(n, count):
    for seed in range(count):
        g = random_demand_graph(random.Random(seed), n, 0.5)
        expected = multihop_optimum_by_astar(g)
        assert one_bound(g) <= expected, (seed, g.sorted_demands())
        result = optimal_multihop(g)
        assert result.proven_optimal
        assert result.count == expected, (seed, g.sorted_demands())


@pytest.mark.parametrize(
    "seeds", [range(5), pytest.param(range(5, 35), marks=pytest.mark.slow)], ids=["5", "30"]
)
@pytest.mark.parametrize(
    "planner, oracle",
    [(optimal_twohop, twohop_optimum_by_astar), (optimal_multihop, multihop_optimum_by_astar)],
    ids=["twohop", "multihop"],
)
def test_one_bound_holds_on_two_component_graphs(planner, oracle, seeds):
    for seed in seeds:
        g = two_component_graph(seed)
        expected = oracle(g)
        assert one_bound(g) <= expected, (seed, g.sorted_demands())
        result = planner(g)
        assert result.proven_optimal
        assert result.count == expected, (seed, g.sorted_demands())


def record_walk_searches(monkeypatch) -> list[int]:
    """Record the ``max_flights`` of every multihop A* call."""
    caps = []
    search = exact._min_covering_walk

    def recording(nodes, demands, effort, max_flights):
        caps.append(max_flights)
        return search(nodes, demands, effort, max_flights)

    monkeypatch.setattr(exact, "_min_covering_walk", recording)
    return caps


@pytest.mark.parametrize("g", [demo_graph(), star_graph(7)], ids=["demo", "star7"])
def test_multihop_component_at_the_bound_is_not_searched(monkeypatch, g):
    caps = record_walk_searches(monkeypatch)
    result = optimal_multihop(g)
    assert caps == []
    assert result.proven_optimal
    assert result.plan == plan_coordinator(g).plan


def test_multihop_incumbent_is_proven_when_no_shorter_walk_exists(monkeypatch):
    # Coordinator plan 1->0, 2->0, 0->1, 0->3: 4 flights, the optimum,
    # above the bound max(m - 1, |S|, |D|) = 3.
    g = DemandGraph.from_pairs(4, [(0, 1), (1, 0), (2, 0), (2, 3)])
    caps = record_walk_searches(monkeypatch)
    result = optimal_multihop(g)
    assert caps == [3]
    assert result.proven_optimal
    assert result.plan == plan_coordinator(g).plan
    assert result.count == 4


def test_multihop_oversized_component_is_refused_before_any_search(monkeypatch):
    # The 4-cycle alone would be searched (incumbent 6 over bound 4); the
    # 11-node cycle after it is over max_nodes=10.
    cycle4 = [(i, (i + 1) % 4) for i in range(4)]
    cycle11 = [(4 + i, 4 + (i + 1) % 11) for i in range(11)]
    caps = record_walk_searches(monkeypatch)
    with pytest.raises(SearchLimitError):
        optimal_multihop(DemandGraph.from_pairs(15, cycle4 + cycle11))
    assert caps == []


# Smallest expansion budget that proves each instance.  The counts were
# measured on the tuple-keyed search that preceded the packed-int state;
# a change in them means the search expands other states, not just that
# it got faster or slower.  None: the coordinator plan meets the bound,
# so the instance is decided with nothing searched.
@pytest.mark.parametrize(
    ("g", "budget"),
    [
        (demo_graph(), None),
        (cycle_graph(6), 36),
        (random_graph(7, 0.6, seed=1), 4163),
    ],
    ids=["demo", "cycle6", "dense7"],
)
def test_multihop_expansion_count_is_pinned(g, budget):
    coordinator = plan_coordinator(g).plan
    if budget is None:
        decided = optimal_multihop(g, SearchLimits(expansion_budget=1))
        assert decided.proven_optimal
        assert decided.plan == coordinator
        return
    proven = optimal_multihop(g, SearchLimits(expansion_budget=budget))
    assert proven.proven_optimal
    fallback = optimal_multihop(g, SearchLimits(expansion_budget=budget - 1))
    assert not fallback.proven_optimal
    assert fallback.plan == coordinator


def test_multihop_time_budget_falls_back_to_coordinator_plan():
    # Proving this graph takes 4,163 expansions (pinned above), and the
    # clock is read at least every 1,024, so a deadline already passed
    # stops the search first.
    g = random_graph(7, 0.6, seed=1)
    result = optimal_multihop(g, SearchLimits(time_budget=1e-9))
    assert not result.proven_optimal
    assert result.plan == plan_coordinator(g).plan


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


def test_twohop_budget_falls_back_to_coordinator():
    # The 4-cycle's coordinator plan has 6 flights against a bound of 4.
    g = cycle_graph(4)
    result = optimal_twohop(g, SearchLimits(expansion_budget=3))
    assert not result.proven_optimal
    assert result.count == plan_coordinator(g).count == 6
    assert verify_twohop(g, result.plan).satisfied


def test_demo_is_decided_by_the_bound_in_both_solvers(monkeypatch, demo):
    # The demo's coordinator plan has m - 1 = 5 flights on 6 nodes.
    def fail(*args):
        raise AssertionError("the bound decides the demo")

    monkeypatch.setattr(exact._TwoHopSearch, "find_plan", fail)
    monkeypatch.setattr(ilp, "build_twohop_model", fail)
    for planner in (optimal_twohop, ilp.optimal_twohop_ilp):
        result = planner(demo)
        assert (result.count, result.proven_optimal) == (5, True)
        assert result.plan == plan_coordinator(demo).plan


def test_certify_tight_bound():
    g = cycle_graph(4)
    cert = certify(g, optimal_multihop(g))
    assert (cert.count, cert.lower_bound, cert.tight, cert.valid) == (4, 4, True, True)


def test_certify_demo_is_tight(demo):
    cert = certify(demo, optimal_multihop(demo))
    assert (cert.count, cert.lower_bound, cert.tight, cert.valid) == (5, 5, True, True)


@pytest.mark.parametrize("planner", [optimal_twohop, optimal_multihop], ids=["twohop", "multihop"])
def test_certify_triangle_not_tight(planner):
    # The bidirected triangle: the optimum 4 is the coordinator plan's
    # count, above the bound max(m - 1, |S|, |D|) = 3.
    g = DemandGraph.from_pairs(3, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
    cert = certify(g, planner(g))
    assert (cert.count, cert.lower_bound, cert.tight, cert.valid) == (4, 3, False, True)


def test_certify_detects_tampered_plan(demo):
    result = optimal_multihop(demo)
    tampered = result._replace(plan=FlightPlan(result.plan.flights[:-1]))
    assert not certify(demo, tampered).valid


def test_certify_requires_proven_result(demo):
    unproven = plan_coordinator(demo)._replace(proven_optimal=False)
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
