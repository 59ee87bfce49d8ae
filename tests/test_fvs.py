"""The DFVS bounds of ``fvs`` against a minimum DFVS found by subset enumeration."""

import random
from itertools import combinations, permutations

import pytest

from pigeonpost import DemandGraph, FlightPlan, verify_multihop
from pigeonpost import fvs
from pigeonpost.fvs import cycle_packing, dfvs_walk, digraph, greedy_dfvs


def acyclic(nodes: set[int], arcs) -> bool:
    """Kahn's algorithm on the digraph that ``arcs`` induce on ``nodes``."""
    inner = [(u, v) for u, v in arcs if u in nodes and v in nodes]
    indegree = {v: 0 for v in nodes}
    for _, v in inner:
        indegree[v] += 1
    ready = [v for v in nodes if not indegree[v]]
    removed = 0
    while ready:
        u = ready.pop()
        removed += 1
        for a, v in inner:
            if a == u:
                indegree[v] -= 1
                if not indegree[v]:
                    ready.append(v)
    return removed == len(nodes)


def min_dfvs_size(n: int, arcs) -> int:
    for size in range(n + 1):
        for picked in combinations(range(n), size):
            if acyclic(set(range(n)) - set(picked), arcs):
                return size
    raise AssertionError("removing every node leaves no cycle")


def members(mask: int) -> set[int]:
    return {v for v in range(mask.bit_length()) if (mask >> v) & 1}


def never_spends():
    raise AssertionError("an acyclic digraph needs no pick and no search")


def check_bounds(n: int, arcs) -> None:
    """``packing <= tau <= |greedy|`` on one digraph, and the greedy walk
    serves every arc in ``n - 1 + |greedy|`` flights."""
    arcs = sorted(set(arcs))
    succ, pred = digraph(n, arcs)
    spent = []
    dfvs = greedy_dfvs(succ, pred, lambda: spent.append(1))
    cycles = cycle_packing(succ, pred, lambda: spent.append(1))
    tau = min_dfvs_size(n, arcs)
    assert len(cycles) <= tau <= dfvs.bit_count(), arcs
    assert acyclic(set(range(n)) - members(dfvs), arcs), arcs
    packed = 0
    for cycle in cycles:
        assert not cycle & packed, arcs  # vertex-disjoint
        assert not acyclic(members(cycle), arcs), arcs  # holds a cycle
        packed |= cycle
    assert bool(spent) == bool(tau), arcs

    walk = dfvs_walk(succ, pred, dfvs)
    assert sorted(walk) == sorted(list(range(n)) + sorted(members(dfvs)))
    plan = FlightPlan.from_pairs(zip(walk, walk[1:]))
    assert plan.count == n - 1 + dfvs.bit_count()
    assert verify_multihop(DemandGraph.from_pairs(n, arcs), plan).satisfied, arcs


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bounds_on_every_digraph_of_at_most_four_nodes(n):
    pairs = list(permutations(range(n), 2))
    for mask in range(1 << len(pairs)):
        check_bounds(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


def seeded_arcs(n: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    p = rng.choice([0.2, 0.3, 0.4, 0.5, 0.7])
    return [(a, b) for a, b in permutations(range(n), 2) if rng.random() < p]


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_bounds_on_seeded_digraphs(n):
    for seed in range(60):
        check_bounds(n, seeded_arcs(n, seed))


def rescan_walk(succ: list[int], pred: list[int], dfvs: int) -> list[int]:
    """``dfvs_walk`` by its definition: after ``dfvs``, the smallest node
    left with no predecessor left, found by a scan of every node left."""
    rest = [v for v in range(len(succ)) if not (dfvs >> v) & 1]
    walk = sorted(members(dfvs))
    while rest:
        v = next(v for v in rest if not any((pred[v] >> u) & 1 for u in rest))
        walk.append(v)
        rest.remove(v)
    return walk + sorted(members(dfvs))


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_walk_is_the_smallest_ready_node_first(n):
    # Kahn's heap of ready ids picks what a rescan picks, for the greedy
    # DFVS and for every DFVS holding it and one more node.
    for seed in range(60):
        succ, pred = digraph(n, seeded_arcs(n, seed))
        greedy = greedy_dfvs(succ, pred, lambda: None)
        for dfvs in [greedy] + [greedy | 1 << v for v in range(n) if not (greedy >> v) & 1]:
            assert dfvs_walk(succ, pred, dfvs) == rescan_walk(succ, pred, dfvs), (seed, dfvs)


def test_greedy_drops_the_picks_the_others_make_redundant():
    # Every node has in-degree x out-degree 2, so node 0 is picked first;
    # the cycle 1 -> 2 -> 3 -> 1 left then gets node 1, which lies on
    # every cycle, so node 0 is dropped again.
    arcs = [(0, 1), (0, 3), (1, 2), (2, 0), (2, 3), (3, 1)]
    succ, pred = digraph(4, arcs)
    spent = []
    assert greedy_dfvs(succ, pred, lambda: spent.append(1)) == 1 << 1
    assert len(spent) == 4  # two picks, two redundancy checks


def test_acyclic_digraph_spends_nothing():
    succ, pred = digraph(4, [(0, 1), (1, 2), (0, 3), (3, 2)])
    assert greedy_dfvs(succ, pred, never_spends) == 0
    assert cycle_packing(succ, pred, never_spends) == []
    assert dfvs_walk(succ, pred, 0) == [0, 1, 3, 2]


def test_a_search_that_dies_out_stops(monkeypatch):
    # Two 2-cycles, {k, k + 1} and {k + 2, k + 3}, and k nodes on paths
    # ``k + 2 -> i -> k`` from the second into the first.  Each node
    # ``i < k`` lies on no cycle, so its breadth-first search dies out
    # after three layers, before any cycle is found; it must stop there,
    # not run on in empty layers to the longest cycle possible.
    k = 50
    arcs = [(k, k + 1), (k + 1, k), (k + 2, k + 3), (k + 3, k + 2)]
    arcs += [arc for i in range(k) for arc in ((k + 2, i), (i, k))]
    succ, pred = digraph(k + 4, arcs)
    calls = []

    def counted(mask: int) -> list[int]:
        calls.append(mask)
        return nodes(mask)

    nodes = fvs._nodes
    monkeypatch.setattr(fvs, "_nodes", counted)
    assert cycle_packing(succ, pred, lambda: None) == [3 << k, 3 << k + 2]
    assert len(calls) < 5 * k  # 158 calls; about 2,750 without the stop
