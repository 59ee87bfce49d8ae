import random
from itertools import combinations, product

import pytest

from pigeonpost import (
    CnfError,
    CnfFormula,
    ReductionError,
    UndirectedGraph,
    min_vertex_cover_bruteforce,
    optimal_multihop,
    parse_dimacs_cnf,
    parse_undirected_graph,
    reduce_3sat_to_twohop,
    reduce_vertex_cover_to_multihop,
    sat_bruteforce,
    satisfying_assignment_plan,
    verify_twohop,
)

from pigeonpost import reductions
from pigeonpost.demand import DemandGraphSizeError

from conftest import random_connected_undirected

EXAMPLE_CNF = "p cnf 5 2\n1 -3 2 0\n3 4 5 0\n"

# Paw graph: triangle 0-1-2 plus the pendant edge 0-3; min cover {0, 1}.
PAW_GRAPH = UndirectedGraph.from_pairs(4, [(0, 1), (1, 2), (0, 2), (0, 3)])


def expected_node_count(n, m):
    return m + 2 * n + 1 + (6 * n + 12) * (2 * n + 3 * m)


def expected_budget(n, m):
    return 12 * n * n + 18 * n * m + 27 * n + 39 * m


def expected_demand_count(n, m):
    return (2 * n + 3 * m) + (m + 2 * n) + 6 * (2 * n + 4) * (2 * n + 3 * m)


def test_parse_simple_clause():
    f = parse_dimacs_cnf("p cnf 3 1\n1 -3 2 0\n")
    assert f.num_vars == 3
    assert f.clauses == ((1, -3, 2),)


def test_parse_example_formula():
    f = parse_dimacs_cnf(EXAMPLE_CNF)
    assert (f.num_vars, len(f.clauses)) == (5, 2)


@pytest.mark.parametrize(
    "text",
    [
        "p cnf 3 1\n1 2 0\n",  # two-literal clause
        "p cnf 3 1\n1 2 3 4 0\n",  # four-literal clause
        "1 2 3 0\n",  # missing header
        "p cnf 3 1\n1 2 3\n",  # unterminated clause
        "p cnf 2 1\n1 2 3 0\n",  # literal out of range
        "p cnf 3 1\np cnf 3 1\n1 2 3 0\n",  # two problem lines
        "p cnf 3\n1 2 3 0\n",  # problem line with three fields
        "p cnf 3 x\n1 2 3 0\n",  # non-integer clause count
        "p cnf 3 1\n1 2 x 0\n",  # non-integer clause token
        "c comments only\n",  # missing problem line
        "p cnf 3 2\n1 2 3 0\n",  # header announces the wrong clause count
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(CnfError):
        parse_dimacs_cnf(text)


def test_3sat_reduction_small_formula_counts():
    red = reduce_3sat_to_twohop(parse_dimacs_cnf("p cnf 3 1\n1 2 3 0\n"))
    assert red.graph.n == expected_node_count(3, 1) == 278
    assert red.budget == expected_budget(3, 1) == 282


def test_3sat_reduction_example_formula_counts():
    red = reduce_3sat_to_twohop(parse_dimacs_cnf(EXAMPLE_CNF))
    assert len(red.forced_edges) == 16
    assert red.budget == 693
    assert red.graph.n == expected_node_count(5, 2)
    assert len(red.graph.demands) == expected_demand_count(5, 2)


def test_3sat_node_count_with_repeated_literals():
    # The node count is computed before the graph is built; repeated
    # literals collapse forced edges, so it must count distinct ones.
    red = reduce_3sat_to_twohop(parse_dimacs_cnf("p cnf 3 2\n1 1 2 0\n-1 -1 -1 0\n"))
    assert len(red.forced_edges) == 3 + 2 * 3
    assert red.graph.n == len(red.roles) < expected_node_count(3, 2)
    assert [r["node"] for r in red.roles] == list(range(red.graph.n))
    assert max(v for d in red.graph.demands for v in d) == red.graph.n - 1


@pytest.mark.parametrize("offset, accepted", [(0, True), (-1, False)], ids=["at-cap", "over-cap"])
def test_3sat_node_cap_counts_distinct_forced_edges(monkeypatch, offset, accepted):
    formula = parse_dimacs_cnf("p cnf 3 2\n1 1 2 0\n-1 -1 -1 0\n")
    # 2 clauses, 6 literals and the star, then 3 nodes per arm and 2n + 4 = 10
    # arms on each of the 2 + 1 clause edges and 2n = 6 literal swaps.
    nodes = 2 + 6 + 1 + (2 + 1 + 6) * 10 * 3
    monkeypatch.setattr(reductions, "MAX_PARSED_NODES", nodes + offset)
    if accepted:
        assert reduce_3sat_to_twohop(formula).graph.n == nodes
    else:
        with pytest.raises(DemandGraphSizeError):
            reduce_3sat_to_twohop(formula)


def test_cnf_formula_is_where_the_clause_width_is_checked():
    with pytest.raises(CnfError, match="exactly three literals"):
        CnfFormula(3, ((1, 2),))
    with pytest.raises(CnfError, match="exactly three literals"):
        parse_dimacs_cnf("p cnf 4 2\n1 2 3 0\n1 2 3 4 0\n")


@pytest.mark.parametrize("n,m", [(3, 1), (4, 2), (5, 2), (6, 4)])
def test_3sat_placement_identity(n, m):
    # pigeons placed by the constructive schedule match the emitted budget
    assert 3 * m + 3 * n + (2 * n + 3 * m) * (6 * n + 12) == expected_budget(n, m)


def test_3sat_structural_recount():
    """Independent recount of the generated graph's demand edges by role."""
    f = parse_dimacs_cnf(EXAMPLE_CNF)
    red = reduce_3sat_to_twohop(f)
    roles = {r["node"]: r for r in red.roles}
    star = next(r["node"] for r in red.roles if r["role"] == "star")
    by_kind = {"forced": 0, "to_star": 0, "gadget": 0}
    for src, dst in red.graph.demands:
        if roles[src]["role"] == "gadget":
            by_kind["gadget"] += 1
        elif dst == star:
            by_kind["to_star"] += 1
        else:
            by_kind["forced"] += 1
    n, m = 5, 2
    assert by_kind["forced"] == 2 * n + 3 * m
    assert by_kind["to_star"] == m + 2 * n
    assert by_kind["gadget"] == 6 * (2 * n + 4) * (2 * n + 3 * m)


def test_3sat_gadget_arm_addressable():
    red = reduce_3sat_to_twohop(parse_dimacs_cnf("p cnf 3 1\n1 2 3 0\n"))
    first_edge = red.forced_edges[0]
    arm_roles = [
        r
        for r in red.roles
        if r["role"] == "gadget" and r["edge"] == list(first_edge) and r["arm"] == 1
    ]
    assert [r["pos"] for r in arm_roles] == [1, 2, 3]
    u1, u2, u3 = (r["node"] for r in arm_roles)
    demands = red.graph.demands
    a, b = first_edge
    assert {(u1, u2), (u1, u3), (u2, u3), (u2, a), (u3, a), (u3, b)} <= demands


def test_witness_plan_verifies_for_satisfying_assignment():
    f = parse_dimacs_cnf(EXAMPLE_CNF)
    red = reduce_3sat_to_twohop(f)
    assignment = (True, False, True, False, False)
    assert f.evaluate(assignment)
    plan = satisfying_assignment_plan(f, red, assignment)
    assert plan.count == red.budget == 693
    assert verify_twohop(red.graph, plan).satisfied


def test_witness_plan_fails_for_falsifying_assignment():
    f = parse_dimacs_cnf(EXAMPLE_CNF)
    red = reduce_3sat_to_twohop(f)
    assignment = (False, False, False, False, False)  # first clause unsatisfied
    assert not f.evaluate(assignment)
    plan = satisfying_assignment_plan(f, red, assignment)
    assert not verify_twohop(red.graph, plan).satisfied


def test_witness_plan_is_only_for_the_3cnf_reduction():
    f = parse_dimacs_cnf(EXAMPLE_CNF)
    red = reduce_vertex_cover_to_multihop(PAW_GRAPH, 2)
    with pytest.raises(ReductionError, match="only for the 3-CNF reduction"):
        satisfying_assignment_plan(f, red, (True,) * 5)


def test_witness_plan_needs_one_value_per_variable():
    f = parse_dimacs_cnf(EXAMPLE_CNF)
    with pytest.raises(ReductionError, match="must cover 5 variables"):
        satisfying_assignment_plan(f, reduce_3sat_to_twohop(f), (True,) * 4)


# Unsatisfiable, and each clause repeats one literal: two forced edges, not six.
REPEATED_LITERALS = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))


def _formulas_with_repeated_literals(count: int, seed: int) -> list[CnfFormula]:
    rng = random.Random(seed)
    formulas = []
    for _ in range(count):
        n = rng.randint(1, 3)
        clauses = [
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
            for _ in range(rng.randint(1, 3))
        ]
        formulas.append(CnfFormula(n, clauses))
    return formulas


def test_budget_counts_the_witness_when_clauses_repeat_literals():
    # One forced edge per distinct literal of each clause, two per
    # variable: (3 * 6 + 1) * (1 + 1 + 2) + 1.
    assert reduce_3sat_to_twohop(REPEATED_LITERALS).budget == 77
    formulas = [REPEATED_LITERALS, *_formulas_with_repeated_literals(40, seed=3)]
    assert sum(any(len(set(c)) < 3 for c in f.clauses) for f in formulas) == 36
    for f in formulas:
        red = reduce_3sat_to_twohop(f)
        for assignment in product((False, True), repeat=f.num_vars):
            plan = satisfying_assignment_plan(f, red, assignment)
            assert plan.count == red.budget, f
            assert verify_twohop(red.graph, plan).satisfied == f.evaluate(assignment), f


def test_vc_reduction_paw_graph():
    red = reduce_vertex_cover_to_multihop(PAW_GRAPH, 2)
    assert len(red.graph.demands) == 8
    assert red.budget == 5


def test_vc_reduction_single_edge():
    red = reduce_vertex_cover_to_multihop(UndirectedGraph.from_pairs(2, [(0, 1)]), 1)
    assert red.graph.demands == {(0, 1), (1, 0)}
    assert red.budget == 2


def test_vc_reduction_triangle():
    triangle = UndirectedGraph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
    red = reduce_vertex_cover_to_multihop(triangle, 2)
    assert len(red.graph.demands) == 6
    assert red.budget == 4


def test_vc_reduction_rejects_disconnected():
    g = UndirectedGraph.from_pairs(4, [(0, 1)])
    with pytest.raises(ReductionError):
        reduce_vertex_cover_to_multihop(g, 1)


def test_vc_reduction_rejects_empty():
    with pytest.raises(ReductionError):
        reduce_vertex_cover_to_multihop(UndirectedGraph.from_pairs(1, []), 1)


def test_parse_undirected_graph_round_trip():
    g = parse_undirected_graph('{"n": 3, "edges": [[2, 0], [0, 1]]}')
    assert g.edges == {(0, 2), (0, 1)}


def test_sat_bruteforce_example():
    result = sat_bruteforce(parse_dimacs_cnf(EXAMPLE_CNF))
    assert result.satisfiable
    f = parse_dimacs_cnf(EXAMPLE_CNF)
    assert f.evaluate(result.witness)
    assert f.evaluate((True, False, True, False, False))


def test_sat_bruteforce_unsatisfiable():
    f = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))
    assert not sat_bruteforce(f).satisfiable


def test_sat_bruteforce_empty_formula():
    assert sat_bruteforce(CnfFormula(0, ())).satisfiable


def test_sat_bruteforce_size_guard():
    with pytest.raises(ValueError):
        sat_bruteforce(CnfFormula(25, ()), max_vars=20)


def test_min_vertex_cover_paw_graph():
    assert min_vertex_cover_bruteforce(PAW_GRAPH) == 2


def test_min_vertex_cover_single_edge():
    assert min_vertex_cover_bruteforce(UndirectedGraph.from_pairs(2, [(0, 1)])) == 1


def test_min_vertex_cover_of_no_nodes_is_zero():
    assert min_vertex_cover_bruteforce(UndirectedGraph(0, [])) == 0


def test_single_node_is_connected():
    assert UndirectedGraph(1, []).is_connected()


def test_min_vertex_cover_five_cycle():
    ring = UndirectedGraph.from_pairs(5, [(i, (i + 1) % 5) for i in range(5)])
    assert min_vertex_cover_bruteforce(ring) == 3


def test_vc_equivalence_all_small_graphs():
    """Optimal multihop count equals n + minVC - 1 on every connected
    graph with up to 4 nodes."""
    for n in (2, 3, 4):
        all_edges = list(combinations(range(n), 2))
        for bits in range(1, 1 << len(all_edges)):
            edges = [all_edges[i] for i in range(len(all_edges)) if (bits >> i) & 1]
            g = UndirectedGraph.from_pairs(n, edges)
            if not g.is_connected():
                continue
            red = reduce_vertex_cover_to_multihop(g, 1)
            opt = optimal_multihop(red.graph).count
            assert opt == n + min_vertex_cover_bruteforce(g) - 1


@pytest.mark.parametrize("seed", range(10))
def test_vc_equivalence_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.choice([5, 6])
    g = random_connected_undirected(rng, n, rng.choice([0.2, 0.4]))
    red = reduce_vertex_cover_to_multihop(g, 1)
    assert optimal_multihop(red.graph).count == n + min_vertex_cover_bruteforce(g) - 1
