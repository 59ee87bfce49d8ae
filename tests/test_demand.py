import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pigeonpost import (
    DemandGraph,
    DemandGraphError,
    lower_bound,
    parse_demand_graph,
    weakly_connected_components,
)
from pigeonpost.demand import DemandGraphSizeError
from pigeonpost.instances import demo_graph


def test_parse_smallest_instance():
    g = parse_demand_graph('{"n": 2, "demands": [[0, 1]]}')
    assert g.n == 2
    assert g.demands == {(0, 1)}


def test_parse_demo_instance():
    text = '{"n": 6, "demands": [[0,3],[0,4],[0,5],[1,4],[1,5],[2,3]]}'
    assert parse_demand_graph(text) == demo_graph()


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3, "demands": [[0, 0]]}',  # self-demand
        '{"n": 2, "demands": [[0, 2]]}',  # endpoint out of range
        '{"n": -1, "demands": []}',  # negative node count
        '{"n": 2}',  # missing demands
        "not json",
        '{"n": 2, "demands": [[0, 1, 2]]}',  # not a pair
        '{"n": 3, "demands": [[true, 2]]}',  # boolean endpoint
        '{"n": 3, "demands": [[0, false]]}',  # boolean endpoint
        '{"n": 3, "demands": {}}',  # demands not a list
    ],
)
def test_parse_rejects_invalid(text):
    with pytest.raises(DemandGraphError) as refused:
        parse_demand_graph(text)
    # Unparseable input exits 3; only the node cap's subclass exits 2.
    assert not isinstance(refused.value, DemandGraphSizeError)


def test_duplicates_are_dropped_and_counted():
    g = DemandGraph.from_pairs(3, [(0, 1), (0, 1), (1, 2), (0, 1)])
    assert g.demands == {(0, 1), (1, 2)}


def test_duplicate_pairs_give_an_equal_graph_and_hash():
    g = DemandGraph.from_pairs(3, [(0, 1), (0, 1)])
    h = DemandGraph(3, frozenset({(0, 1)}))
    assert g == h and not g != h and hash(g) == hash(h)
    assert g != DemandGraph(3, frozenset({(1, 0)}))


def test_graph_is_immutable_and_replace_validates():
    g = DemandGraph.from_pairs(3, [(0, 1)])
    with pytest.raises(AttributeError):
        g.n = 4
    assert g._replace(n=5) == DemandGraph(5, frozenset({(0, 1)}))
    with pytest.raises(DemandGraphError, match="out of range for n=1"):
        g._replace(n=1)


def test_canonical_json_sorts_demands():
    g = DemandGraph.from_pairs(4, [(2, 3), (0, 1), (0, 2)])
    assert g.to_json() == (
        '{\n  "demands": [\n    [\n      0,\n      1\n    ],\n    [\n      0,\n'
        '      2\n    ],\n    [\n      2,\n      3\n    ]\n  ],\n  "n": 4\n}\n'
    )


def test_json_round_trip(demo):
    assert parse_demand_graph(demo.to_json()) == demo


def test_components_demo_is_single(demo):
    partition = weakly_connected_components(demo)
    assert partition.components == (frozenset(range(6)),)


def test_components_split():
    g = DemandGraph.from_pairs(4, [(0, 1), (2, 3)])
    partition = weakly_connected_components(g)
    assert partition.components == (frozenset({0, 1}), frozenset({2, 3}))


def test_components_isolated_nodes():
    g = DemandGraph.from_pairs(5, [(0, 1)])
    partition = weakly_connected_components(g)
    assert partition.components == (frozenset({0, 1}),)  # 2, 3, 4 are in none


def test_lower_bound_demo(demo):
    bound = lower_bound(demo)
    assert bound.overall == 3
    assert bound.per_component == (3,)
    assert bound.component_total == 3


def test_lower_bound_empty():
    assert lower_bound(DemandGraph.from_pairs(3, [])).overall == 0


def test_lower_bound_star():
    g = DemandGraph.from_pairs(4, [(0, 1), (0, 2), (0, 3)])
    assert lower_bound(g).overall == 3


@st.composite
def demand_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    demands = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    return DemandGraph.from_pairs(n, demands)


@settings(max_examples=80, deadline=None)
@given(demand_graphs())
def test_partition_covers_all_nodes_exactly_once(g):
    partition = weakly_connected_components(g)
    seen: set[int] = set()
    for comp in partition.components:
        assert not comp & seen
        seen |= comp
    assert seen == {node for demand in g.demands for node in demand}
    for src, dst in g.demands:
        owners = [c for c in partition.components if src in c or dst in c]
        assert len(owners) == 1 and src in owners[0] and dst in owners[0]


@settings(max_examples=80, deadline=None)
@given(demand_graphs())
def test_lower_bound_never_exceeds_demand_count(g):
    bound = lower_bound(g)
    assert bound.overall <= len(g.demands)
    assert bound.component_total >= bound.overall
