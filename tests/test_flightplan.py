import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pigeonpost import (
    DemandGraph,
    Flight,
    FlightPlan,
    FlightPlanError,
    VerificationReport,
    parse_flight_plan,
    plan_stats,
    verify,
    verify_multihop,
    verify_singlehop,
    verify_twohop,
)
from pigeonpost.demand import MAX_PARSED_NODES
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


def test_flights_order_by_remote_then_home_and_replace_validates():
    assert sorted([Flight(2, 0), Flight(1, 3), Flight(1, 2)]) == [
        Flight(1, 2), Flight(1, 3), Flight(2, 0),
    ]
    with pytest.raises(FlightPlanError, match=r"non-negative: Flight\(remote=-1, home=2\)"):
        Flight(remote=-1, home=2)
    with pytest.raises(FlightPlanError, match="home node 1"):
        Flight(0, 1)._replace(remote=1)


@pytest.mark.parametrize(
    "text",
    [
        '{"flights": [{"remote": true, "home": 2}]}',
        '{"flights": [{"remote": 2, "home": false}]}',
        '{"flights": [{"remote": 1}]}',  # no home
    ],
)
def test_parse_flight_plan_rejects_boolean_endpoints(text):
    with pytest.raises(FlightPlanError):
        parse_flight_plan(text)


def test_verify_refuses_an_unknown_mode(demo):
    with pytest.raises(ValueError, match="unknown mode 'nohop'"):
        verify("nohop", demo, DEMO_TWOHOP_PLAN)


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


def twohop_oracle(g: DemandGraph, plan: FlightPlan) -> VerificationReport:
    """Earliest direct flight, else the minimum (delivery, pickup, via)
    over every pair of flight slots that relays the demand."""
    flights = plan.flights
    witnesses = {}
    for src, dst in g.demands:
        direct = [slot for slot, f in enumerate(flights) if (f.remote, f.home) == (src, dst)]
        relays = [
            (delivery, pickup, flights[pickup].home)
            for pickup in range(len(flights))
            for delivery in range(pickup + 1, len(flights))
            if flights[pickup].remote == src
            and flights[pickup].home == flights[delivery].remote
            and flights[delivery].home == dst
        ]
        if direct:
            witnesses[(src, dst)] = DirectWitness(direct[0])
        elif relays:
            delivery, pickup, via = min(relays)
            witnesses[(src, dst)] = RelayWitness(via, pickup, delivery)
        else:
            witnesses[(src, dst)] = None
    return VerificationReport("twohop", len(flights), witnesses)


def multihop_oracle(g: DemandGraph, plan: FlightPlan) -> VerificationReport:
    """Per origin, a forward sweep that records where and from whom its
    information first lands at each node; the path is rebuilt from that."""
    first = {}  # origin -> node -> (slot, predecessor)
    for origin in {src for src, _ in g.demands}:
        landed = {origin: None}
        for slot, flight in enumerate(plan.flights):
            if flight.remote in landed and flight.home not in landed:
                landed[flight.home] = (slot, flight.remote)
        first[origin] = landed
    witnesses = {}
    for src, dst in g.demands:
        landed = first[src]
        if dst not in landed:
            witnesses[(src, dst)] = None
            continue
        slots, nodes = [], [dst]
        while nodes[-1] != src:
            slot, predecessor = landed[nodes[-1]]
            slots.append(slot)
            nodes.append(predecessor)
        witnesses[(src, dst)] = PathWitness(tuple(reversed(slots)), tuple(reversed(nodes)))
    return VerificationReport("multihop", len(plan.flights), witnesses)


def _oracle_case(seed):
    """Up to 8 nodes; flights drawn from a few hubs so relays and chains occur."""
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    demands = rng.sample(pairs, rng.randint(1, min(len(pairs), 8)))
    hubs = rng.sample(range(n), rng.randint(1, n))
    flights = []
    for _ in range(rng.randint(0, 14)):
        a, b = rng.choice(pairs)
        if rng.random() < 0.5:
            a = rng.choice([v for v in hubs if v != b] or [a])
        flights.append((a, b))
    return DemandGraph.from_pairs(n, demands), FlightPlan.from_pairs(flights)


@pytest.mark.parametrize(
    "verifier, oracle",
    [(verify_twohop, twohop_oracle), (verify_multihop, multihop_oracle)],
    ids=["twohop", "multihop"],
)
def test_verifier_matches_its_oracle(verifier, oracle):
    relayed = 0
    for seed in range(600):
        g, plan = _oracle_case(seed)
        report = verifier(g, plan)
        assert report.to_json() == oracle(g, plan).to_json(), seed
        relayed += sum(
            isinstance(w, RelayWitness) or (isinstance(w, PathWitness) and len(w.slots) > 1)
            for w in report.witnesses.values()
        )
    assert relayed >= 100  # the cases exercise relays, not only direct flights


def test_multihop_memory_is_linear_at_the_parse_cap():
    n = MAX_PARSED_NODES
    g = DemandGraph.from_pairs(n, [(0, n - 1)])
    plan = FlightPlan.from_pairs([(0, 1), (1, n - 1)])
    tracemalloc.start()
    try:
        report = verify_multihop(g, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.satisfied
    assert report.witnesses[(0, n - 1)] == PathWitness(slots=(0, 1), nodes=(0, 1, n - 1))
    assert peak < 16 * 2**20, peak


def multihop_per_pair(g: DemandGraph, plan: FlightPlan) -> VerificationReport:
    """The multihop verifier as it was: one forward sweep over origin sets,
    recording a first arrival for every (node, origin) pair the plan
    reaches, whether or not a demand asks for it."""
    carried: dict[int, set[int]] = {}
    arrival: dict[tuple[int, int], tuple[int, int]] = {}
    for slot, (remote, home) in enumerate(plan.flights):
        have = carried.setdefault(home, {home})
        new = carried.get(remote, {remote}) - have
        have |= new
        for origin in new:
            arrival[(home, origin)] = (slot, remote)
    witnesses = {}
    for src, dst in g.demands:
        if src not in carried.get(dst, ()):
            witnesses[(src, dst)] = None
            continue
        slots, nodes = [], [dst]
        while nodes[-1] != src:
            slot, predecessor = arrival[(nodes[-1], src)]
            slots.append(slot)
            nodes.append(predecessor)
        witnesses[(src, dst)] = PathWitness(tuple(reversed(slots)), tuple(reversed(nodes)))
    return VerificationReport("multihop", plan.count, witnesses)


def test_multihop_matches_the_per_pair_version_on_seeded_plans():
    chains = 0
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        g = DemandGraph.from_pairs(n, rng.sample(pairs, rng.randint(1, len(pairs))))
        plan = FlightPlan.from_pairs(rng.choice(pairs) for _ in range(rng.randint(0, 4 * n)))
        report = verify_multihop(g, plan)
        assert report.to_json() == multihop_per_pair(g, plan).to_json(), seed
        chains += sum(w is not None and len(w.slots) > 2 for w in report.witnesses.values())
    assert chains >= 300  # the plans relay over several hops, not only one or two


def test_multihop_memory_of_a_gather_and_scatter_plan():
    # k sources fly to hub 0, which then flies to k destinations: the plan
    # reaches k * k (node, origin) pairs, of which k are on a witness chain.
    k = 3000
    g = DemandGraph.from_pairs(2 * k + 1, [(i, k + i) for i in range(1, k + 1)])
    plan = FlightPlan.from_pairs(
        [(i, 0) for i in range(1, k + 1)] + [(0, k + i) for i in range(1, k + 1)]
    )
    tracemalloc.start()
    try:
        report = verify_multihop(g, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.satisfied
    assert report.witnesses[(1, k + 1)] == PathWitness(slots=(0, k), nodes=(1, 0, k + 1))
    assert peak < 16 * 2**20, peak
