"""Each validating record has one check, its constructor.

Every way to build a ``DemandGraph``, ``UndirectedGraph``, ``Flight`` or
``FlightPlan`` (the constructor, ``from_pairs``, ``_replace`` and the JSON
parser) must either raise the module's error or return the same record,
with the same canonical bytes.  The other validating records refuse bools
and floats where they take counts, and malformed containers.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pigeonpost import (
    CnfError,
    CnfFormula,
    DemandGraph,
    DemandGraphError,
    Flight,
    FlightPlan,
    FlightPlanError,
    ReductionError,
    SearchLimits,
    UndirectedGraph,
    optimal_multihop,
    parse_demand_graph,
    parse_flight_plan,
    parse_undirected_graph,
    verify_twohop,
)

scalar = st.one_of(st.integers(-1, 9), st.booleans(), st.floats(), st.text(max_size=2))
item = st.one_of(
    scalar,
    st.lists(scalar, max_size=3),
    st.lists(scalar, max_size=3).map(tuple),
)


@st.composite
def graph_args(draw):
    """``(n, pairs)``: about one count in four is negative or not an int,
    and the pairs are integer pairs in range, integer pairs near the
    range, or any items."""
    if draw(st.integers(0, 3)):
        n = draw(st.integers(0, 8))
    else:
        n = draw(st.sampled_from([-1, False, True, 0.0, 2.5, math.nan]))
    top = n if type(n) is int and n > 1 else 8
    in_range = st.tuples(st.integers(0, top - 1), st.integers(0, top - 1))
    near_range = st.tuples(st.integers(-1, top), st.integers(-1, top))
    pairs = draw(st.one_of(
        st.lists(st.one_of(in_range, in_range.map(list)), max_size=6),
        st.lists(st.one_of(near_range, near_range.map(list)), max_size=3),
        st.lists(item, max_size=6),
    ))
    return n, pairs


def _outcomes(error, *builds):
    """What each build returns, or None where it raises ``error``."""
    results = []
    for build in builds:
        try:
            results.append(build())
        except error:
            results.append(None)
    return results


def _assert_all_refused_or_equal(results, canonical):
    if None in results:
        assert results == [None] * len(results)
    else:
        assert all(record == results[0] for record in results)
        assert len({canonical(record) for record in results}) == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(args=graph_args())
@example(args=(3, [(True, 2)]))
@example(args=(3, [(0.0, 1.5)]))
@example(args=(3, [(0, 2.0)]))
@example(args=(2.5, []))
@example(args=(3, [(0, 1), [1, 2], (0, 1)]))
def test_every_way_to_build_a_demand_graph_agrees(args):
    n, pairs = args
    results = _outcomes(
        DemandGraphError,
        lambda: DemandGraph(n, pairs),
        lambda: DemandGraph.from_pairs(n, pairs),
        lambda: DemandGraph.from_pairs(n, [])._replace(demands=pairs),
        lambda: parse_demand_graph(json.dumps({"n": n, "demands": pairs})),
    )
    _assert_all_refused_or_equal(results, DemandGraph.to_json)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(args=graph_args())
@example(args=(3, [(0.5, 1)]))
@example(args=(3, [(2, 1), (1, 2)]))
@example(args=(True, []))
def test_every_way_to_build_an_undirected_graph_agrees(args):
    n, pairs = args
    results = _outcomes(
        ReductionError,
        lambda: UndirectedGraph(n, pairs),
        lambda: UndirectedGraph.from_pairs(n, pairs),
        lambda: UndirectedGraph.from_pairs(n, [])._replace(edges=pairs),
        lambda: parse_undirected_graph(json.dumps({"n": n, "edges": pairs})),
    )
    _assert_all_refused_or_equal(results, lambda g: DemandGraph(g.n, g.edges).to_json())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(remote=item, home=item)
@example(remote=True, home=2)
@example(remote=1.0, home=2)
@example(remote=0, home=3)
def test_every_way_to_build_a_flight_agrees(remote, home):
    results = _outcomes(
        FlightPlanError,
        lambda: Flight(remote, home),
        lambda: Flight(0, 1)._replace(remote=remote, home=home),
        lambda: FlightPlan.from_pairs([(remote, home)]).flights[0],
        lambda: parse_flight_plan(
            json.dumps({"flights": [{"remote": remote, "home": home}]})
        ).flights[0],
    )
    _assert_all_refused_or_equal(results, lambda flight: FlightPlan((flight,)).to_json())


def _plan_entry(flight):
    """The parser's entry for one ``FlightPlan`` entry: a pair becomes an
    object, anything else stays as it is and is refused."""
    if isinstance(flight, (tuple, list)) and len(flight) == 2:
        return {"remote": flight[0], "home": flight[1]}
    return flight


endpoint_pair = st.tuples(st.integers(-1, 4), st.integers(-1, 4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(flights=st.lists(st.one_of(endpoint_pair, endpoint_pair.map(list), item), max_size=5))
@example(flights=[(0, 0)])
@example(flights=[(True, 1)])
@example(flights=[(1, 2, 3)])
@example(flights=[5])
@example(flights=[Flight(0, 1), [1, 2], (0, 1)])
def test_every_way_to_build_a_flight_plan_agrees(flights):
    results = _outcomes(
        FlightPlanError,
        lambda: FlightPlan(flights),
        lambda: FlightPlan.from_pairs(flights),
        lambda: FlightPlan(())._replace(flights=flights),
        lambda: parse_flight_plan(json.dumps({"flights": [_plan_entry(f) for f in flights]})),
    )
    _assert_all_refused_or_equal(results, FlightPlan.to_json)
    if results[0] is not None:
        assert all(type(flight) is Flight for flight in results[0].flights)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: DemandGraph(3, frozenset({(True, 2)})), DemandGraphError),
        (lambda: optimal_multihop(DemandGraph(3, frozenset({(0.0, 1.5)}))), DemandGraphError),
        (lambda: FlightPlan((Flight(True, 2),)).to_json(), FlightPlanError),
        (lambda: FlightPlan([(True, 1)]), FlightPlanError),
        (lambda: UndirectedGraph(3, frozenset({(0.5, 1)})), ReductionError),
        (lambda: DemandGraph(3, ())._replace(demands=frozenset({(0, 2.0)})), DemandGraphError),
        (lambda: DemandGraph(2.5, ()), DemandGraphError),
        (lambda: SearchLimits(max_nodes=2.5), ValueError),
        (lambda: SearchLimits(max_demands=40.0), ValueError),
        (lambda: SearchLimits(expansion_budget=True), ValueError),
        (lambda: CnfFormula(2, ((1, True, -2),)), CnfError),
        (lambda: CnfFormula(2.0, ()), CnfError),
        (lambda: CnfFormula(True, ((1, 1, 1),)), CnfError),
    ],
    ids=[
        "demand-bool-endpoint", "multihop-float-endpoints", "flight-bool-remote",
        "plan-bool-remote", "undirected-float-endpoint", "replace-float-endpoint", "float-node-count",
        "limits-float-max-nodes", "limits-float-max-demands", "limits-bool-budget",
        "cnf-bool-literal", "cnf-float-vars", "cnf-bool-vars",
    ],
)
def test_records_refuse_bools_and_floats(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: FlightPlan([(0, 0)]), FlightPlanError),
        (lambda: FlightPlan.from_pairs([(1, 2, 3)]), FlightPlanError),
        (lambda: FlightPlan([(0, 1)])._replace(flights=[5]), FlightPlanError),
        (lambda: CnfFormula(3, (5,)), CnfError),
        (lambda: FlightPlan(5), FlightPlanError),
        (lambda: DemandGraph(3, 5), DemandGraphError),
        (lambda: UndirectedGraph(3, 5), ReductionError),
        (lambda: CnfFormula(3, 5), CnfError),
    ],
    ids=[
        "plan-self-flight", "plan-triple", "plan-replace-int-entry", "cnf-int-clause",
        "plan-int-flights", "demand-int-demands", "undirected-int-edges", "cnf-int-clauses",
    ],
)
def test_records_refuse_malformed_entries(build, error):
    with pytest.raises(error):
        build()


def test_checked_plan_verifies():
    # A plan built from pairs holds flights, so the verifiers can read it.
    plan = FlightPlan([(0, 1)])
    assert verify_twohop(DemandGraph(2, [(0, 1)]), plan).satisfied


def test_cnf_formula_stores_clauses_as_int_tuples():
    from_lists = CnfFormula(3, [[1, 2, 3]])
    assert from_lists == CnfFormula(3, ((1, 2, 3),))
    assert hash(from_lists) == hash(CnfFormula(3, ((1, 2, 3),)))
    assert from_lists.clauses == ((1, 2, 3),)


def test_time_budget_stays_any_positive_real():
    assert SearchLimits(time_budget=math.inf).time_budget == math.inf
    assert SearchLimits(time_budget=1).time_budget == 1


def test_undirected_graph_normalises_its_edges():
    g = UndirectedGraph(3, {(2, 1), (1, 2), (0, 2)})
    assert g.edges == {(1, 2), (0, 2)}
    assert g == UndirectedGraph.from_pairs(3, [[1, 2], [2, 0]])
