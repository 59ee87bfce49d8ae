"""The component split against oracles that share none of its code.

``weakly_connected_components`` labels the components and groups the
demands by component in one pass; ``lower_bound`` and ``plan_coordinator``
read the per-component sources, destinations and degrees from those
groups.  Here a union-find partition, a brute-force bound and a copy of
the coordinator as it was before, which counted degrees over all ``n``
nodes and intersected global source and destination sets with each
component, check them on small random graphs.
"""

import random
import time
from fractions import Fraction

from pigeonpost import (
    DemandGraph,
    Flight,
    FlightPlan,
    lower_bound,
    optimal_multihop,
    plan_coordinator,
    weakly_connected_components,
)
from pigeonpost.jsonutil import canonical_dumps

SEEDS = range(600)


def sparse_graph(seed: int) -> DemandGraph:
    """2-9 nodes, each put in one of up to four groups that share no
    demand, so many graphs split or leave a node without demands."""
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    groups = rng.randint(1, 4)
    group = [rng.randrange(groups) for _ in range(n)]
    p = rng.choice([0.3, 0.5, 0.7])
    return DemandGraph.from_pairs(n, [
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b and group[a] == group[b] and rng.random() < p
    ])


def union_find_partition(g: DemandGraph):
    parent = {v: v for demand in g.demands for v in demand}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for src, dst in g.demands:
        parent[find(src)] = find(dst)
    members: dict[int, set[int]] = {}
    for v in parent:
        members.setdefault(find(v), set()).add(v)
    demands: dict[int, set[tuple[int, int]]] = {root: set() for root in members}
    for src, dst in g.demands:
        demands[find(src)].add((src, dst))
    roots = sorted(members, key=lambda root: min(members[root]))
    return [frozenset(members[r]) for r in roots], [frozenset(demands[r]) for r in roots]


def brute_force_bound(g: DemandGraph, nodes) -> int:
    """``max(|S|, |D|)`` over ``nodes``, node by node."""
    sources = sum(1 for v in nodes if any(src == v for src, _ in g.demands))
    destinations = sum(1 for v in nodes if any(dst == v for _, dst in g.demands))
    return max(sources, destinations)


def degree_profile_coordinator_json(g: DemandGraph) -> str:
    """``plan_coordinator(g).to_json()`` as computed before the split
    carried its demands: a degree list over all nodes, global source and
    destination sets, and a ``Fraction`` for the ratio."""
    degree = [0] * g.n
    sources, destinations = set(), set()
    for src, dst in g.demands:
        sources.add(src)
        destinations.add(dst)
        degree[src] += 1
        degree[dst] += 1
    components, _ = union_find_partition(g)
    coordinators, gather, scatter = [], [], []
    for comp in components:
        hub = min(comp, key=lambda v: (-degree[v], v))
        coordinators.append(hub)
        for node in sorted(comp):
            if node != hub and node in sources:
                gather.append(Flight(node, hub))
        for node in sorted(comp):
            if node != hub and node in destinations:
                scatter.append(Flight(hub, node))
    count = len(gather) + len(scatter)
    bound = max(len(sources), len(destinations))
    ratio = Fraction(count, max(bound, 1))
    doc = {
        "algorithm": "coordinator",
        "mode": "twohop",
        "count": count,
        "lower_bound": bound,
        "ratio": f"{ratio.numerator}/{ratio.denominator}",
        "proven_optimal": False,
        "plan": FlightPlan(tuple(gather + scatter)).to_json_dict(),
    }
    if coordinators:
        doc["coordinators"] = coordinators
    return canonical_dumps(doc)


def test_sample_has_split_graphs_and_isolated_nodes():
    graphs = [sparse_graph(seed) for seed in SEEDS]
    split = [g for g in graphs if len(weakly_connected_components(g).components) >= 2]
    isolated = [g for g in graphs if len({v for d in g.demands for v in d}) < g.n]
    assert len(split) >= 150
    assert len(isolated) >= 250


def test_partition_matches_union_find():
    for seed in SEEDS:
        g = sparse_graph(seed)
        components, demands = union_find_partition(g)
        partition = weakly_connected_components(g)
        assert partition.components == tuple(components), seed
        assert partition.demands == tuple(demands), seed


def test_lower_bound_matches_brute_force():
    for seed in SEEDS:
        g = sparse_graph(seed)
        components, _ = union_find_partition(g)
        per_component = tuple(brute_force_bound(g, comp) for comp in components)
        bound = lower_bound(g)
        assert bound.overall == brute_force_bound(g, range(g.n)), seed
        assert bound.per_component == per_component, seed
        assert bound.component_total == sum(per_component), seed


def test_coordinator_matches_degree_profile_coordinator():
    for seed in SEEDS:
        g = sparse_graph(seed)
        assert plan_coordinator(g).to_json() == degree_profile_coordinator_json(g), seed


def best_multihop_seconds(k: int) -> float:
    g = DemandGraph.from_pairs(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        result = optimal_multihop(g)
        best = min(best, time.perf_counter() - started)
    assert result.count == k and result.proven_optimal
    return best


def test_multihop_setup_is_linear_in_the_component_count():
    # 8x the components; each is decided by its bound, so the time is the
    # per-component set-up.  Linear reads about 8-9x, a set-up that scans
    # every demand or node per component about 50x.
    assert best_multihop_seconds(4000) < 20 * best_multihop_seconds(500)
