import heapq
import math
import random
import time
from collections import Counter
from functools import cache
from graphlib import CycleError, TopologicalSorter
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pigeonpost import (
    DemandGraph,
    FlightPlan,
    SearchLimitError,
    SearchLimits,
    UndirectedGraph,
    certify,
    lower_bound,
    optimal_multihop,
    optimal_twohop,
    plan_coordinator,
    plan_cycle,
    plan_singlehop,
    reduce_vertex_cover_to_multihop,
    verify_multihop,
    verify_twohop,
)
from pigeonpost import exact, ilp, weakly_connected_components
from pigeonpost.demand import _endpoint_bound, _flight_bound
from pigeonpost.fvs import cycle_packing
from pigeonpost.planners import _BudgetExhausted, _checked_parts, _Effort, _search_below_coordinator
from pigeonpost.instances import cycle_graph, demo_graph, random_graph, star_graph

from conftest import TRIANGLE, random_demand_graph, spans_all_nodes


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


# Coordinator plan 12 flights; greedy DFVS {0, 1, 2, 3, 6} (5 picks and
# 5 redundancy checks) and its walk of 11; packing bound 6 + 3 = 9 (3
# searches); optimum 10, which the A* takes 3,291 expansions to find.
FALLBACK_GRAPH = random_graph(7, 0.6, seed=35)
FALLBACK_WALK = FlightPlan.from_pairs(
    zip([0, 1, 2, 3, 6, 4, 5, 0, 1, 2, 3, 6], [1, 2, 3, 6, 4, 5, 0, 1, 2, 3, 6])
)


def test_multihop_budget_falls_back_to_the_incumbent():
    g = FALLBACK_GRAPH
    result = optimal_multihop(g, SearchLimits(expansion_budget=100))
    assert not result.proven_optimal
    assert result.plan == FALLBACK_WALK
    assert plan_coordinator(g).count == 12
    assert verify_multihop(g, result.plan).satisfied


@pytest.mark.parametrize(
    "budget, walk", [(9, False), (10, True)], ids=["in-greedy", "in-packing"]
)
def test_multihop_budget_run_out_in_the_dfvs_core_keeps_the_best_plan_so_far(budget, walk):
    # The greedy DFVS spends 10; a budget that ends during the packing
    # keeps the walk the greedy DFVS gave.
    g = FALLBACK_GRAPH
    result = optimal_multihop(g, SearchLimits(expansion_budget=budget))
    assert not result.proven_optimal
    assert result.plan == (FALLBACK_WALK if walk else plan_coordinator(g).plan)


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


flight_sequences = st.integers(2, 9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda f: f[0] != f[1]),
            max_size=20,
        ),
    )
)


@given(flight_sequences)
def test_cycle_flight_homes_are_a_dfvs_of_the_pairs_any_plan_serves(case):
    # The multihop lower bound of the ``exact`` docstring, on any flights:
    # a flight that joins two union-find sets is a tree flight, any other
    # a cycle flight, and the homes ``X`` of the cycle flights leave the
    # served pairs acyclic.  No solver and no oracle is involved.
    n, flights = case
    carried = [{v} for v in range(n)]  # whose data each node holds
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    homes = set()
    for remote, home in flights:
        carried[home] |= carried[remote]
        a, b = find(remote), find(home)
        if a == b:
            homes.add(home)
        else:
            parent[a] = b
    rest = {v: carried[v] - homes - {v} for v in range(n) if v not in homes}
    TopologicalSorter(rest).prepare()  # raises CycleError on a cycle
    components = len({find(v) for v in range(n)})
    assert len(flights) >= n - components + len(homes)


@cache
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


@given(flight_sequences)
# ``P(R)`` is the cycle 01 -> 12 -> 20 -> 01, broken only by 01 flying twice.
@example((3, [(0, 1), (1, 2), (2, 0), (0, 1)]))
def test_once_flown_arcs_leave_the_pickup_delivery_links_acyclic(case):
    # The 2-hop lower bound of the ``exact`` docstring, on any flights:
    # ``R`` serves each pair the flights serve under 2-hop by its first
    # serving path, one arc or a pickup and a delivery.  The arcs of ``R``
    # flown once leave ``P(R)`` acyclic, so those flown twice or more are
    # a DFVS of it.  No solver and no oracle is involved.
    n, flights = case
    path: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    earlier: set[tuple[int, int]] = set()
    for a, b in flights:
        path.setdefault((a, b), ((a, b),))
        for u in range(n):
            if (u, a) in earlier and u != b:
                path.setdefault((u, b), ((u, a), (a, b)))
        earlier.add((a, b))
    flown = Counter(flights)
    arcs = {arc for arcs_of_pair in path.values() for arc in arcs_of_pair}
    once = {arc for arc in arcs if flown[arc] == 1}
    links: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for arcs_of_pair in path.values():
        if len(arcs_of_pair) == 2 and set(arcs_of_pair) <= once:
            pickup, delivery = arcs_of_pair
            links.setdefault(delivery, set()).add(pickup)
    TopologicalSorter(links).prepare()  # raises CycleError on a cycle
    assert len(flights) >= len(arcs) + len(arcs - once)


def relay_assignment_optimum(n: int, demands) -> int:
    """``min_R |arcs(R)| + tau(P(R))`` over every relay assignment ``R`` on
    the nodes ``0..n-1``, with ``tau`` by subset enumeration."""

    def acyclic(links, dropped) -> bool:
        graph: dict[tuple[int, int], set[tuple[int, int]]] = {}
        for pickup, delivery in links:
            if pickup not in dropped and delivery not in dropped:
                graph.setdefault(delivery, set()).add(pickup)
        try:
            TopologicalSorter(graph).prepare()
        except CycleError:
            return False
        return True

    options = [
        [((u, v),)] + [((u, w), (w, v)) for w in range(n) if w not in (u, v)]
        for u, v in demands
    ]
    best = 2 * len(demands)
    for paths in product(*options):
        arcs = sorted({arc for arcs_of_pair in paths for arc in arcs_of_pair})
        links = [arcs_of_pair for arcs_of_pair in paths if len(arcs_of_pair) == 2]
        tau = next(
            size
            for size in range(len(arcs) + 1)
            if any(acyclic(links, set(dfvs)) for dfvs in combinations(arcs, size))
        )
        best = min(best, len(arcs) + tau)
    return best


def test_twohop_optimum_is_the_relay_assignment_minimum_on_every_three_node_graph():
    # The 2-hop identity of the ``exact`` docstring against the oracle
    # that assumes no relay form, on all 63 demand sets of 3 nodes.
    pairs = list(permutations(range(3), 2))
    optima = twohop_optima_by_bfs(3)
    assert len(optima) == 63
    for mask, expected in optima.items():
        demands = [p for i, p in enumerate(pairs) if (mask >> i) & 1]
        assert relay_assignment_optimum(3, demands) == expected, demands


def twohop_incumbent(g: DemandGraph) -> FlightPlan:
    """The plan a 2-hop solve, exact or ILP, starts from: the solve policy
    with a search that never finds a shorter plan."""
    return _search_below_coordinator(g, "twohop", "exact", SearchLimits(), lambda *args: None).plan


def check_twohop_incumbent(g: DemandGraph, optimum: int) -> bool:
    """The incumbent is a 2-hop plan between the optimum and the
    coordinator plan; returns whether it is under the coordinator plan."""
    plan = twohop_incumbent(g)
    assert verify_twohop(g, plan).satisfied, g.sorted_demands()
    coordinator = plan_coordinator(g).count
    assert optimum <= plan.count <= coordinator, g.sorted_demands()
    return plan.count < coordinator


def test_twohop_incumbent_on_every_four_node_graph():
    pairs = list(permutations(range(4), 2))
    shorter = 0
    for mask, optimum in twohop_optima_by_bfs(4).items():
        g = DemandGraph.from_pairs(4, [p for i, p in enumerate(pairs) if (mask >> i) & 1])
        shorter += check_twohop_incumbent(g, optimum)
    assert shorter >= 2000, shorter  # 2,135 when written


@pytest.mark.parametrize(
    "n, seeds", [(5, range(100)), (6, range(20)), (7, range(15))], ids=["n5", "n6", "n7"]
)
def test_twohop_incumbent_on_seeded_graphs(n, seeds):
    for seed in seeds:
        # Sparse at 7 nodes: the oracle takes up to a second at p = 0.25.
        g = oracle_sample(n, seed) if n < 7 else random_demand_graph(random.Random(seed), 7, 0.2)
        check_twohop_incumbent(g, twohop_optimum_by_astar(g))


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


def packing_bound(g: DemandGraph) -> int:
    """The bound exact multihop proves against: over the components,
    ``max(m - 1 + packing, |S|, |D|)`` with ``packing`` the number of
    vertex-disjoint cycles ``fvs.cycle_packing`` finds."""
    total = 0
    for comp, demands in zip(*weakly_connected_components(g)):
        local = {v: i for i, v in enumerate(sorted(comp))}
        succ, pred = [0] * len(comp), [0] * len(comp)
        for u, v in demands:
            succ[local[u]] |= 1 << local[v]
            pred[local[v]] |= 1 << local[u]
        cycles = cycle_packing(succ, pred, lambda: None)
        total += max(len(comp) - 1 + len(cycles), _endpoint_bound(demands))
    return total


@pytest.mark.parametrize("n", [5, 6])
def test_packing_bound_holds_against_the_astar_oracle(n):
    for seed in range(100):
        g = oracle_sample(n, seed)
        assert packing_bound(g) <= multihop_optimum_by_astar(g), (seed, g.sorted_demands())


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

    def recording(m, demands, effort, max_flights):
        caps.append(max_flights)
        return search(m, demands, effort, max_flights)

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
    # The bidirected triangle {0, 2, 3} plus 0 -> 1 -> 3: every DFVS holds
    # two triangle nodes, but any two cycles share a node.  The greedy
    # DFVS {0, 2} gives the walk 0 2 1 3 0 2 of 5 flights, the optimum,
    # under the coordinator's 6 and above the packing bound 3 + 1 = 4.
    g = DemandGraph.from_pairs(4, [(0, 2), (2, 0), (0, 3), (3, 0), (2, 3), (3, 2), (0, 1), (1, 3)])
    caps = record_walk_searches(monkeypatch)
    result = optimal_multihop(g)
    assert caps == [4]
    assert result.proven_optimal
    assert result.plan == FlightPlan.from_pairs([(0, 2), (2, 1), (1, 3), (3, 0), (0, 2)])
    assert plan_coordinator(g).count == 6


def test_multihop_oversized_component_is_refused_before_any_search(monkeypatch):
    # The bidirected triangle alone would be searched (incumbent 4 over
    # bound 3); the 11-node cycle after it is over max_nodes=10.
    cycle11 = [(3 + i, 3 + (i + 1) % 11) for i in range(11)]
    caps = record_walk_searches(monkeypatch)
    assert optimal_multihop(TRIANGLE).proof == (("search", 3),) and caps == [3]
    caps.clear()
    with pytest.raises(SearchLimitError):
        optimal_multihop(DemandGraph.from_pairs(14, list(TRIANGLE.demands) + cycle11))
    assert caps == []


def walk_search(g: DemandGraph, cap: int) -> tuple[list[int] | None, int]:
    """The A*'s walk of ``g`` within ``cap`` flights, and the expansions
    it took; ``g`` is one component spanning all its nodes."""
    limits = SearchLimits()
    effort = _Effort(limits)
    walk = exact._min_covering_walk(g.n, g.demands, effort, cap)
    return walk, limits.expansion_budget - effort.remaining


# Expansions of the A* at the coordinator's cap.  The counts were measured
# on the tuple-keyed search that preceded the packed-int state; a change in
# them means the search expands other states, not just that it got faster
# or slower.  The demo's coordinator plan meets the bound, so the search
# below it stops before its first expansion.
@pytest.mark.parametrize(
    ("g", "expansions"),
    [
        (demo_graph(), 0),
        (cycle_graph(6), 36),
        (random_graph(7, 0.6, seed=1), 4163),
    ],
    ids=["demo", "cycle6", "dense7"],
)
def test_multihop_expansion_count_is_pinned(g, expansions):
    walk, spent = walk_search(g, plan_coordinator(g).count - 1)
    assert spent == expansions
    if walk is None:
        assert optimal_multihop(g).count == plan_coordinator(g).count
    else:
        assert len(walk) - 1 == optimal_multihop(g).count


@pytest.mark.parametrize(
    ("g", "cap", "expansions"),
    [(cycle_graph(6), 5, 0), (random_graph(7, 0.6, seed=1), 9, 343)],
    ids=["cycle6", "dense7"],
)
def test_multihop_search_below_the_optimum_stops_at_its_cap(g, cap, expansions):
    # A cap one below the optimum (6 and 10): the search only proves that
    # no walk fits, and stops at the first state whose bound is over the
    # cap.  Expanding every state below the cap took 642 and 434,190.
    assert walk_search(g, cap) == (None, expansions)


def test_multihop_time_budget_falls_back_to_the_incumbent():
    # Every expansion reads the clock, so a deadline already passed stops
    # the greedy DFVS at its first pick, and the coordinator plan is kept.
    g = FALLBACK_GRAPH
    result = optimal_multihop(g, SearchLimits(time_budget=1e-9))
    assert not result.proven_optimal
    assert result.proof == (("budget", 7),)  # the flight bound, not yet raised
    assert result.plan == plan_coordinator(g).plan


def vertex_cover_reduction(n: int) -> DemandGraph:
    """The vertex-cover reduction of a connected graph on ``n`` nodes: a
    random tree, node ``i`` joined to an earlier one, plus each other
    pair with probability ``2 / n``.  At 600 nodes it has 2,366 demands."""
    rng = random.Random(n)
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 2 / n}
    return reduce_vertex_cover_to_multihop(UndirectedGraph(n, edges), 1).graph


@pytest.mark.parametrize(
    "n, seconds",
    [(600, 1.0), pytest.param(2000, 2.0, marks=pytest.mark.slow)],
)
@pytest.mark.parametrize(
    "solve, verifier",
    [(optimal_multihop, verify_multihop), (optimal_twohop, verify_twohop)],
    ids=["multihop", "twohop"],
)
def test_deadline_holds_past_the_default_limits(n, seconds, solve, verifier):
    # Every step of the incumbents, the bounds and the searches reads the
    # clock, and no step takes more than milliseconds at these sizes, so
    # a solve ends within half a second of its deadline.
    g = vertex_cover_reduction(n)
    limits = SearchLimits(max_nodes=n, max_demands=len(g.demands), time_budget=seconds)
    start = time.monotonic()
    result = solve(g, limits)
    assert time.monotonic() - start < seconds + 0.5
    assert not result.proven_optimal
    assert verifier(g, result.plan).satisfied


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


def test_twohop_solves_each_component_on_its_own():
    # Ten nodes in two 5-node components, whose incumbents (6 and 8, the
    # coordinator plans; the relay plans tie them) are above their packing
    # bounds (5 and 6); each search proves its own count, 5 and 7, in
    # milliseconds.
    left, right = random_graph(5, 0.4, 1), random_graph(5, 0.4, 4)
    g = DemandGraph.from_pairs(10, list(left.demands) + [(u + 5, v + 5) for u, v in right.demands])
    assert (plan_coordinator(left).count, plan_coordinator(right).count) == (6, 8)
    result = optimal_twohop(g)
    assert (result.count, result.proven_optimal) == (12, True)
    assert result.proof == (("search", 5), ("search", 6))
    assert verify_twohop(g, result.plan).satisfied


def test_twohop_budget_falls_back_to_coordinator():
    # The bidirected triangle's coordinator plan (4 flights) is its
    # optimum, above the bound 3; the relay climb cannot beat it, and the
    # budget runs out before the search proves it.
    g = TRIANGLE
    result = optimal_twohop(g, SearchLimits(expansion_budget=3))
    assert not result.proven_optimal
    assert result.plan == plan_coordinator(g).plan
    assert verify_twohop(g, result.plan).satisfied


def test_twohop_budget_run_out_in_the_relay_climb_keeps_the_best_plan_so_far():
    # Coordinator plan 10 flights, bound 6; the climb from the all-direct
    # assignment reaches 9 within 5 moves tried and 8 within 54, the
    # optimum.
    g = random_graph(6, 0.4, seed=10)
    assert plan_coordinator(g).count == 10
    result = optimal_twohop(g, SearchLimits(expansion_budget=5))
    assert (result.count, result.proven_optimal, result.proof) == (9, False, (("budget", 6),))
    assert verify_twohop(g, result.plan).satisfied
    assert optimal_twohop(g).count == 8


def twohop_search(g: DemandGraph, bound: int, cap: int) -> tuple[list | None, int]:
    """The 2-hop deepening's plan of ``g``'s one part from ``bound`` to
    ``cap`` flights, and the expansions it took."""
    ((_, part, _),) = _checked_parts(g, SearchLimits())
    limits = SearchLimits()
    effort = _Effort(limits)
    plan = exact._search_twohop(part, bound, cap, effort)
    return plan, limits.expansion_budget - effort.remaining


# Expansions of the 2-hop deepening, measured on the search that rescanned
# every demand for its distance bound.  The bound, the memo keys and the
# order of the children decide which prefixes are expanded; a change in
# these counts means the search expands other prefixes.
@pytest.mark.parametrize(
    ("g", "bound", "cap", "expansions", "flights"),
    [
        (random_graph(5, 0.4, seed=7), 6, 7, 2169, 7),
        (random_graph(7, 0.3, seed=3), 6, 7, 11244, None),
        (random_graph(6, 0.4, seed=4), 6, 8, 122827, None),
    ],
    ids=["found5", "none7", "none6"],
)
def test_twohop_expansion_count_is_pinned(g, bound, cap, expansions, flights):
    plan, spent = twohop_search(g, bound, cap)
    assert spent == expansions
    if flights is None:
        assert plan is None
    else:
        assert len(plan) == flights
        assert verify_twohop(g, FlightPlan.from_pairs(plan)).satisfied


def rescanned_distance_bound(demands, satisfied: int, pending: list[int]) -> int:
    """The 2-hop distance bound from a pass over every demand: the
    destinations of the unserved demands, or the sources of those whose
    data no relay holds, whichever are more."""
    arrivals = departures = 0
    for i, (u, v) in enumerate(demands):
        if not (satisfied >> i) & 1:
            arrivals |= 1 << v
            if pending[i] == 0:
                departures |= 1 << u
    return max(arrivals.bit_count(), departures.bit_count())


def relays_per_demand(demands, held: tuple[int, ...]) -> list[int]:
    """The 2-hop search's ``held`` (per relay, a demand mask) transposed:
    per demand, the mask of the relays holding its data."""
    return [
        sum(1 << w for w, mask in enumerate(held) if (mask >> i) & 1)
        for i in range(len(demands))
    ]


def demands_per_relay(n: int, pending: list[int]) -> tuple[int, ...]:
    """``relays_per_demand`` inverted: per relay, the demands it holds."""
    return tuple(
        sum(1 << i for i, relays in enumerate(pending) if (relays >> w) & 1)
        for w in range(n)
    )


def oracle_twohop_children(n, demands, satisfied, pending) -> list[tuple]:
    """The children of a node of the 2-hop search, by per-demand serve and
    open loops over a state kept per demand: in ascending ``(a, b)``, each
    flight that serves or opens a demand with the child's ``satisfied``
    and per-demand relay masks."""
    demand_index = {d: i for i, d in enumerate(demands)}
    by_src: dict[int, list[tuple[int, int]]] = {}
    by_dst: dict[int, list[tuple[int, int]]] = {}
    for i, (u, v) in enumerate(demands):
        by_src.setdefault(u, []).append((i, v))
        by_dst.setdefault(v, []).append((i, u))
    children = []
    for a, b in product(range(n), repeat=2):
        if a == b:
            continue
        served = 0
        direct = demand_index.get((a, b))
        if direct is not None and not (satisfied >> direct) & 1:
            served |= 1 << direct
        for i, _u in by_dst.get(b, ()):
            if not ((satisfied | served) >> i) & 1 and (pending[i] >> a) & 1:
                served |= 1 << i
        new_satisfied = satisfied | served
        new_pending = list(pending)
        for i, v in by_src.get(a, ()):
            if v != b and not (new_satisfied >> i) & 1 and not (pending[i] >> b) & 1:
                new_pending[i] |= 1 << b
        if not served and new_pending == pending:
            continue
        for i in range(len(demands)):
            if (served >> i) & 1:
                new_pending[i] = 0
        children.append(((a, b), new_satisfied, new_pending))
    return children


def run_twohop_searches(monkeypatch, search_class) -> None:
    """Deepen from the bound to the bound + 2 with ``search_class`` on
    every part of 200 seeded random graphs of 3-7 nodes, each search
    stopping after 2,000 expansions."""
    monkeypatch.setattr(exact, "_TwoHopSearch", search_class)
    rng = random.Random(1)
    for _ in range(200):
        g = random_demand_graph(rng, rng.randint(3, 7), rng.choice([0.2, 0.3, 0.4, 0.5]))
        for _, part, bound in _checked_parts(g, SearchLimits()):
            effort = _Effort(SearchLimits(expansion_budget=2000))
            try:
                exact._search_twohop(part, bound, bound + 2, effort)
            except _BudgetExhausted:
                pass


def expands(search, depth: int, k: int, satisfied: int, held: tuple[int, ...]) -> bool:
    """Whether ``search._dfs`` should expand this node, by the rescanned
    bound and the memo as it stands before the call."""
    seen = search.memo.get((satisfied, held))
    pending = relays_per_demand(search.demands, held)
    return (
        satisfied != search.full
        and depth + rescanned_distance_bound(search.demands, satisfied, pending) <= k
        and (seen is None or seen > depth)
    )


def test_twohop_distance_bound_equals_the_demand_rescan(monkeypatch):
    # At every node of the deepening, ``_dfs`` must put the node in the
    # memo exactly when the rescanned bound and the memo let it through:
    # a node the bound cuts leaves the memo as it found it.
    nodes = {"all": 0, "held": 0}

    class CheckedSearch(exact._TwoHopSearch):
        def _dfs(self, depth, k, satisfied, held):
            key = (satisfied, held)
            seen = self.memo.get(key)
            stored = expands(self, depth, k, satisfied, held)
            nodes["all"] += 1
            nodes["held"] += any(held)
            try:
                return super()._dfs(depth, k, satisfied, held)
            finally:
                # The memo entry is written before any spend can raise.
                assert self.memo.get(key) == (depth if stored else seen)

    run_twohop_searches(monkeypatch, CheckedSearch)
    assert nodes["all"] > 100_000
    assert nodes["held"] > nodes["all"] // 2


def test_twohop_children_equal_the_per_demand_oracle(monkeypatch):
    # At every node the search expands, its children, in order, must be
    # the flights the per-demand loops find, with the same state.  A node
    # cut short by success or the budget must have a prefix of them.
    checked = {"nodes": 0, "children": 0}
    stack: list[list[tuple]] = []

    class TracedSearch(exact._TwoHopSearch):
        def _dfs(self, depth, k, satisfied, held):
            if stack:
                stack[-1].append((self.prefix[-1], satisfied, held))
            expanded = expands(self, depth, k, satisfied, held)
            children: list[tuple] = []
            stack.append(children)
            try:
                found = super()._dfs(depth, k, satisfied, held)
            except _BudgetExhausted:
                found = None
            stack.pop()
            expected = []
            if expanded:
                pending = relays_per_demand(self.demands, held)
                n = len(held)
                expected = [
                    (flight, sat, demands_per_relay(n, relays))
                    for flight, sat, relays in oracle_twohop_children(
                        n, self.demands, satisfied, pending
                    )
                ]
            assert children == expected[: len(children)]
            if found is False:
                assert len(children) == len(expected)
            checked["nodes"] += expanded
            checked["children"] += len(children)
            if found is None:
                raise _BudgetExhausted
            return found

    run_twohop_searches(monkeypatch, TracedSearch)
    assert checked["nodes"] > 5_000
    assert checked["children"] > 100_000


@pytest.mark.slow
def test_twohop_search_holds_its_deadline_at_scale():
    # ``test_deadline_holds_past_the_default_limits`` never reaches the
    # 2-hop search at 2,000 nodes: its relay climb uses up the time.  Run
    # alone, the search's set-up and each of its steps must end within
    # half a second of the deadline.
    g = vertex_cover_reduction(2000)
    limits = SearchLimits(max_nodes=2000, max_demands=len(g.demands), time_budget=2)
    ((_, part, bound),) = _checked_parts(g, limits)
    cap = plan_coordinator(part).count - 1
    start = time.monotonic()
    with pytest.raises(_BudgetExhausted):
        exact._search_twohop(part, bound, cap, _Effort(limits))
    assert time.monotonic() - start < 2.5


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


def cert_fields(cert):
    return cert.count, cert.lower_bound, cert.basis, cert.tight, cert.valid


def test_certify_tight_bound():
    g = cycle_graph(4)
    cert = certify(g, optimal_multihop(g))
    assert cert_fields(cert) == (4, 4, ("flight_bound",), True, True)


def test_certify_demo_is_tight(demo):
    cert = certify(demo, optimal_multihop(demo))
    assert cert_fields(cert) == (5, 5, ("flight_bound",), True, True)
    assert cert.to_json() == (
        '{\n  "basis": [\n    "flight_bound"\n  ],\n  "count": 5,\n  "lower_bound": 5,\n'
        '  "mode": "multihop",\n  "tight": true,\n  "valid": true\n}\n'
    )


@pytest.mark.parametrize("planner", [optimal_twohop, optimal_multihop], ids=["twohop", "multihop"])
def test_certify_triangle_not_tight(planner):
    # The bidirected triangle: the optimum 4 is the coordinator plan's
    # count, above the bound max(m - 1, |S|, |D|) = 3, which the packing
    # bound 2 + 1 does not raise.
    g = DemandGraph.from_pairs(3, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
    cert = certify(g, planner(g))
    assert cert_fields(cert) == (4, 3, ("search",), False, True)


def test_certify_detects_tampered_plan(demo):
    result = optimal_multihop(demo)
    tampered = result._replace(plan=FlightPlan(result.plan.flights[:-1]))
    assert not certify(demo, tampered).valid


def test_certify_requires_proven_result(demo):
    unproven = plan_coordinator(demo)._replace(proven_optimal=False)
    with pytest.raises(ValueError):
        certify(demo, unproven)


def test_result_without_a_proof_does_not_certify_itself(demo):
    # The recomputed flight bound is a floor the proof's bound must reach.
    claimed = plan_coordinator(demo)._replace(proven_optimal=True)
    assert cert_fields(certify(demo, claimed)) == (5, 0, (), False, False)


# The seed-35 graph is one component of 7 nodes with 25 demands, flight
# bound 7.  Exact multihop raises it to 9 by a cycle packing and proves
# 10 by search; HiGHS proves 10 against the flight bound.
SEED_35 = random_graph(7, 0.6, seed=35)


def test_certify_reports_the_bound_the_exact_search_proved_against():
    cert = certify(SEED_35, optimal_multihop(SEED_35))
    assert cert_fields(cert) == (10, 9, ("search",), False, True)


@pytest.mark.slow
def test_certify_reports_the_bound_highs_proved_against():
    # HiGHS takes about 40 s to prove it, so the deadline is lifted.
    pytest.importorskip("scipy")
    cert = certify(SEED_35, ilp.optimal_multihop_ilp(SEED_35, SearchLimits(time_budget=math.inf)))
    assert cert_fields(cert) == (10, 7, ("highs",), False, True)


def test_singlehop_certificate_is_tight():
    # One flight per demand is the singlehop optimum.
    cert = certify(SEED_35, plan_singlehop(SEED_35))
    assert cert_fields(cert) == (25, 25, ("demands",), True, True)


def assert_proof_bounds(g, result):
    """The proof's bound lies between the flight bound and the count."""
    bound = sum(part_bound for _, part_bound in result.proof)
    assert _flight_bound(*weakly_connected_components(g)) <= bound <= result.count
    bases = {basis for basis, _ in result.proof}
    assert result.proven_optimal == ("budget" not in bases)
    assert bases <= {"flight_bound", "packing", "search", "highs", "budget"}
    if result.proven_optimal:
        cert = certify(g, result)
        assert cert.valid and cert.lower_bound == bound
        assert cert.basis == tuple(basis for basis, _ in result.proof)


def certificate_sample(seed: int) -> DemandGraph:
    rng = random.Random(seed)
    return random_demand_graph(rng, rng.randint(2, 7), rng.choice([0.2, 0.35, 0.5]))


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize(
    "planner",
    [optimal_multihop, optimal_twohop, ilp.optimal_multihop_ilp, ilp.optimal_twohop_ilp],
    ids=["exact-multihop", "exact-twohop", "ilp-multihop", "ilp-twohop"],
)
def test_certificate_bound_is_the_proof_bound(planner, seed):
    # HiGHS takes seconds on some dense 7-node graphs; those parts stop at
    # the deadline and are checked as budget parts.
    if planner.__name__.endswith("_ilp"):
        pytest.importorskip("scipy")
    g = certificate_sample(seed)
    assert_proof_bounds(g, planner(g, SearchLimits(time_budget=0.5)))


def test_budget_parts_keep_a_valid_bound():
    unproven = 0
    for seed in range(20):
        g = certificate_sample(seed)
        for planner in (optimal_multihop, optimal_twohop):
            result = planner(g, SearchLimits(expansion_budget=3))
            assert_proof_bounds(g, result)
            unproven += not result.proven_optimal
    assert unproven >= 10


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


@cache
def demand_classes(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """One demand set on nodes ``0..k-1`` per isomorphism class of weakly
    connected demand digraphs spanning them: 2 for k = 2, 13 for k = 3,
    199 for k = 4."""
    arcs = list(permutations(range(k), 2))
    classes = set()
    for mask in range(1, 1 << len(arcs)):
        pairs = [arc for i, arc in enumerate(arcs) if mask >> i & 1]
        if spans_all_nodes(DemandGraph.from_pairs(k, pairs)):
            labelled = (tuple(sorted((p[u], p[v]) for u, v in pairs)) for p in permutations(range(k)))
            classes.add(min(labelled))
    return tuple(sorted(classes))


@cache
def class_optimum(oracle, demands: tuple[tuple[int, int], ...]) -> int:
    return oracle(DemandGraph.from_pairs(1 + max(max(d) for d in demands), demands))


def class_pairs(sizes: str) -> list[tuple[tuple, tuple, int]]:
    """``(left, right, isolated)``: every unordered pair of 2- and 3-node
    classes with no or one extra node, or every (3, 4) pair with none."""
    if sizes == "2-3":
        small = demand_classes(2) + demand_classes(3)
        pairs = combinations_with_replacement(small, 2)
        return [(a, b, isolated) for a, b in pairs for isolated in (0, 1)]
    return [(a, b, 0) for a, b in product(demand_classes(3), demand_classes(4))]


def side_by_side(left, right, isolated: int) -> DemandGraph:
    """``left`` on the first nodes, then ``isolated`` nodes without
    demands, then ``right``: the right component's ids do not start at 0."""
    shift = 1 + max(max(d) for d in left) + isolated
    n = shift + 1 + max(max(d) for d in right)
    return DemandGraph.from_pairs(n, list(left) + [(u + shift, v + shift) for u, v in right])


@pytest.mark.parametrize("sizes", ["2-3", pytest.param("3x4", marks=pytest.mark.slow)])
@pytest.mark.parametrize(
    "planner, oracle, verifier",
    [
        (optimal_twohop, twohop_optimum_by_astar, verify_twohop),
        (optimal_multihop, multihop_optimum_by_astar, verify_multihop),
    ],
    ids=["twohop", "multihop"],
)
def test_components_add_up_against_the_oracle(planner, oracle, verifier, sizes):
    # The oracles fly any flights between any nodes, so the whole graph's
    # optimum may use the other component and the extra node as relays.
    cases = class_pairs(sizes)
    assert len(cases) == {"2-3": 240, "3x4": 13 * 199}[sizes]
    for left, right, isolated in cases:
        g = side_by_side(left, right, isolated)
        expected = class_optimum(oracle, left) + class_optimum(oracle, right)
        assert oracle(g) == expected, g.sorted_demands()
        result = planner(g)
        assert (result.count, result.proven_optimal) == (expected, True), g.sorted_demands()
        assert verifier(g, result.plan).satisfied
