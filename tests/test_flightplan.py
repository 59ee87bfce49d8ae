import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pigeonpost import (
    DemandGraph,
    Flight,
    FlightPlan,
    FlightPlanError,
    parse_flight_plan,
    plan_stats,
    verify_multihop,
    verify_singlehop,
    verify_twohop,
)
from pigeonpost.flightplan import DirectWitness, PathWitness, RelayWitness
from pigeonpost.planners import plan_cycle

DEMO_TWOHOP_PLAN = FlightPlan.from_pairs([(2, 0), (1, 0), (0, 3), (0, 4), (0, 5)])


def multihop_bruteforce(g: DemandGraph, plan: FlightPlan) -> dict:
    """Oracle: a demand is served iff some strictly ascending subsequence
    of flights chains head-to-tail from its source to its destination."""
    served = {}
    flights = plan.flights
    for src, dst in g.demands:
        found = False
        for size in range(1, len(flights) + 1):
            for picked in combinations(range(len(flights)), size):
                chain = [flights[i] for i in picked]
                if (
                    chain[0].remote == src
                    and chain[-1].home == dst
                    and all(a.home == b.remote for a, b in zip(chain, chain[1:]))
                ):
                    found = True
                    break
            if found:
                break
        served[(src, dst)] = found
    return served


def test_flight_rejects_self_loop():
    with pytest.raises(FlightPlanError):
        Flight(2, 2)


@pytest.mark.parametrize(
    "text",
    ['{"flights": [{"remote": true, "home": 2}]}', '{"flights": [{"remote": 2, "home": false}]}'],
)
def test_parse_flight_plan_rejects_boolean_endpoints(text):
    with pytest.raises(FlightPlanError):
        parse_flight_plan(text)


def test_plan_json_round_trip():
    plan = DEMO_TWOHOP_PLAN
    assert parse_flight_plan(plan.to_json()) == plan


def test_singlehop_direct_plan_satisfies(demo):
    plan = FlightPlan.from_pairs(sorted(demo.demands))
    report = verify_singlehop(demo, plan)
    assert report.satisfied
    assert report.pigeon_count == 6


def test_singlehop_rejects_relayed_plan(demo):
    report = verify_singlehop(demo, DEMO_TWOHOP_PLAN)
    assert not report.satisfied
    assert (1, 4) in report.failures()


def test_singlehop_empty():
    report = verify_singlehop(DemandGraph.from_pairs(0, []), FlightPlan(()))
    assert report.satisfied
    assert report.pigeon_count == 0


def test_twohop_demo_plan_with_witness(demo):
    report = verify_twohop(demo, DEMO_TWOHOP_PLAN)
    assert report.satisfied
    witness = report.witnesses[(1, 4)]
    assert witness == RelayWitness(via=0, pickup_slot=1, delivery_slot=3)


def test_twohop_order_matters(demo):
    scattered_first = FlightPlan.from_pairs([(0, 3), (0, 4), (0, 5), (2, 0), (1, 0)])
    report = verify_twohop(demo, scattered_first)
    assert not report.satisfied
    assert report.failures() == [(1, 4), (1, 5), (2, 3)]


def test_twohop_direct_only():
    g = DemandGraph.from_pairs(2, [(0, 1)])
    report = verify_twohop(g, FlightPlan.from_pairs([(0, 1)]))
    assert report.satisfied
    assert report.witnesses[(0, 1)] == DirectWitness(0)


def test_multihop_two_pigeon_relay():
    g = DemandGraph.from_pairs(3, [(0, 2)])
    report = verify_multihop(g, FlightPlan.from_pairs([(0, 1), (1, 2)]))
    assert report.satisfied
    assert report.witnesses[(0, 2)] == PathWitness(slots=(0, 1), nodes=(0, 1, 2))


def test_multihop_time_reversal_fails():
    g = DemandGraph.from_pairs(3, [(0, 2)])
    report = verify_multihop(g, FlightPlan.from_pairs([(1, 2), (0, 1)]))
    assert not report.satisfied


def test_multihop_cycle_plan_on_cycle_demands():
    g = DemandGraph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    result = plan_cycle(g)
    assert result.count == 6
    assert verify_multihop(g, result.plan).satisfied


def test_verifier_rejects_out_of_range_plan():
    g = DemandGraph.from_pairs(2, [(0, 1)])
    with pytest.raises(FlightPlanError):
        verify_singlehop(g, FlightPlan.from_pairs([(0, 5)]))


def test_plan_stats_demo_plan():
    stats = plan_stats(DEMO_TWOHOP_PLAN)
    assert stats.pigeon_count == 5
    assert stats.bred_at(0) == 2
    assert stats.released_at(0) == 3


def test_plan_stats_empty():
    stats = plan_stats(FlightPlan(()))
    assert stats.pigeon_count == 0
    assert stats.breeding_counts == ()


def test_plan_stats_parallel_pigeons():
    stats = plan_stats(FlightPlan.from_pairs([(0, 1), (0, 1)]))
    assert stats.pigeon_count == 2
    assert stats.released_at(0) == 2


def _random_case(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    demands = rng.sample(pairs, min(len(pairs), rng.randint(1, 4)))
    flights = [rng.choice(pairs) for _ in range(rng.randint(0, 6))]
    return DemandGraph.from_pairs(n, demands), FlightPlan.from_pairs(flights)


@pytest.mark.parametrize("seed", range(60))
def test_multihop_matches_subsequence_bruteforce(seed):
    g, plan = _random_case(seed)
    report = verify_multihop(g, plan)
    oracle = multihop_bruteforce(g, plan)
    assert {d: w is not None for d, w in report.witnesses.items()} == oracle


@pytest.mark.parametrize("seed", range(40))
def test_witness_hierarchy(seed):
    g, plan = _random_case(seed)
    single = verify_singlehop(g, plan)
    two = verify_twohop(g, plan)
    multi = verify_multihop(g, plan)
    for demand in g.demands:
        if single.witnesses[demand] is not None:
            assert two.witnesses[demand] is not None
        if two.witnesses[demand] is not None:
            assert multi.witnesses[demand] is not None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.permutations(list(range(6))))
def test_singlehop_is_permutation_invariant(seed, order):
    g, plan = _random_case(seed)
    flights = list(plan.flights)
    shuffled = FlightPlan(tuple(flights[i] for i in order if i < len(flights)))
    if len(shuffled.flights) != len(flights):
        return  # permutation longer than plan; skip mismatched sizes
    assert (
        verify_singlehop(g, shuffled).satisfied
        == verify_singlehop(g, plan).satisfied
    )


@pytest.mark.parametrize("seed", range(30))
def test_multihop_monotonic_under_insertion(seed):
    g, plan = _random_case(seed)
    if not verify_multihop(g, plan).satisfied:
        return
    rng = random.Random(seed + 999)
    pairs = [(a, b) for a in range(g.n) for b in range(g.n) if a != b]
    flights = list(plan.flights)
    for _ in range(3):
        flights.insert(rng.randint(0, len(flights)), Flight(*rng.choice(pairs)))
    assert verify_multihop(g, FlightPlan(tuple(flights))).satisfied


def test_walk_semantics_equivalence():
    """Walks serve (u, v) exactly when u occurs strictly before a later v.

    Brute force over every walk of up to 4 nodes on a 4-node universe,
    checked against the verifier for every possible demand pair.
    """
    nodes = range(4)
    pairs = [(a, b) for a in nodes for b in nodes if a != b]

    def walks(length):
        if length == 1:
            for v in nodes:
                yield [v]
            return
        for prefix in walks(length - 1):
            for v in nodes:
                if v != prefix[-1]:
                    yield prefix + [v]

    for length in range(1, 5):
        for walk in walks(length):
            plan = FlightPlan.from_pairs(list(zip(walk, walk[1:])))
            for src, dst in pairs:
                expected = any(
                    walk[p] == src and dst in walk[p + 1 :]
                    for p in range(len(walk))
                )
                g = DemandGraph.from_pairs(4, [(src, dst)])
                assert verify_multihop(g, plan).satisfied == expected
