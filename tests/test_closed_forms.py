"""Exact multihop counts on families whose optimum is known in closed form.

* The complete digraph ``K_m`` needs ``2m - 2`` flights: the one-way
  gossip bound for arbitrary call sequences (Harary & Schwenk, "The
  communication problem on graphs and digraphs", J. Franklin Inst. 297,
  1974).
* One directed cycle on ``m`` nodes needs ``m`` flights and acyclic
  demands ``m - 1``, by the walk argument of ``exact``.
* The vertex-cover reduction of a connected ``n``-node graph needs
  ``n - 1 + VC`` flights, the paper's hardness reduction.

Each check asserts the count and the ``(basis, bound)`` the solve proved
it against, under the default limits unless marked slow.
"""

import random

import pytest

from pigeonpost import (
    DemandGraph,
    SearchLimitError,
    SearchLimits,
    min_vertex_cover_bruteforce,
    optimal_multihop,
    reduce_vertex_cover_to_multihop,
)
from pigeonpost.instances import cycle_graph

from conftest import random_connected_undirected


def complete_digraph(m: int) -> DemandGraph:
    return DemandGraph.from_pairs(m, [(a, b) for a in range(m) for b in range(m) if a != b])


def transitive_tournament(m: int) -> DemandGraph:
    return DemandGraph.from_pairs(m, [(a, b) for a in range(m) for b in range(a + 1, m)])


def assert_complete_digraph_optimum(m: int, limits: SearchLimits) -> None:
    # The packing of floor(m/2) 2-cycles raises the bound to m - 1 + m//2,
    # which for m >= 3 is below the optimum, so the search decides it.
    result = optimal_multihop(complete_digraph(m), limits)
    basis = "flight_bound" if m == 2 else "search"
    assert (result.count, result.proof) == (2 * m - 2, ((basis, m - 1 + m // 2),))


@pytest.mark.parametrize("m", range(2, 7))
def test_complete_digraph_needs_2m_minus_2(m):
    assert_complete_digraph_optimum(m, SearchLimits())


def test_complete_digraph_on_7_nodes_is_over_the_default_demand_limit():
    with pytest.raises(SearchLimitError, match="42 demands exceeds max_demands=40"):
        optimal_multihop(complete_digraph(7))


@pytest.mark.slow
@pytest.mark.parametrize("m", [7, 8])
def test_complete_digraph_needs_2m_minus_2_past_the_default_limits(m):
    assert_complete_digraph_optimum(m, SearchLimits(max_demands=m * (m - 1)))


@pytest.mark.parametrize("m", range(2, 11))
def test_cycle_needs_m(m):
    result = optimal_multihop(cycle_graph(m))
    assert (result.count, result.proof) == (m, (("flight_bound", m),))


@pytest.mark.parametrize("m", range(2, 10))
def test_transitive_tournament_needs_m_minus_1(m):
    result = optimal_multihop(transitive_tournament(m))
    assert (result.count, result.proof) == (m - 1, (("flight_bound", m - 1),))


@pytest.mark.parametrize(
    "n, seed, basis",
    [
        (8, 0, "search"), (8, 1, "search"), (8, 2, "packing"), (8, 3, "search"),
        (10, 0, "search"), (10, 1, "search"), (10, 2, "search"), (10, 3, "search"),
    ],
)
def test_vertex_cover_reduction_needs_n_minus_1_plus_the_cover(n, seed, basis):
    g = random_connected_undirected(random.Random(seed), n, 0.2)
    result = optimal_multihop(reduce_vertex_cover_to_multihop(g, 1).graph)
    assert result.count == n - 1 + min_vertex_cover_bruteforce(g)
    assert [part_basis for part_basis, _ in result.proof] == [basis]
