"""Constructive planners: direct, coordinator, and cycle.

* ``plan_singlehop`` breeds one pigeon per demand edge, which is optimal
  when no relaying is allowed.
* ``plan_coordinator`` picks, per weakly connected component, the node of
  highest total degree as a hub: every other source first ships its whole
  outgoing demand to the hub, then the hub fans the accumulated demand
  out to every destination.  The result is a valid 2-hop plan with at
  most ``|S| + |D|`` pigeons, i.e. within a factor 2 of the lower bound.
* ``plan_cycle`` ignores the demand pattern entirely and pushes all
  information one and three quarter times around an ordered cycle of the
  component's nodes, using ``2m - 2`` pigeons per component of size
  ``m``.  It is valid under multihop routing for any demand set.

``SearchLimits`` holds the size and effort caps shared by the exact and
ILP solvers, which both import this module.  Both also share one solve
policy, ``_search_below_coordinator``, and one part rule, in every
regime: a solve treats each weakly connected component of the demand
graph as one part, relabelled onto ``0..m-1`` in ascending node order
(``_checked_parts``), and the size limits apply to each part.  Only the
policy maps a part's flights back to the graph's node ids.  Per part,
``demand._flight_bound`` is the bound, which the exact solvers raise by a
cycle packing, and the policy picks the incumbent once per regime, for
both algorithms: the coordinator plan, or when it is above the bound the
shorter of it and a plan built for the regime.
* 2-hop: the relay plan.  Each demand ``(u, v)`` is served directly or
  through one relay ``w``; the flights are the arcs this relay assignment
  ``R`` needs, and a greedy DFVS ``F`` of the digraph ``P(R)`` linking
  each pickup ``(u, w)`` to its delivery ``(w, v)`` orders them: ``F``,
  the other arcs in topological order, ``F`` again, ``|arcs(R)| + |F|``
  flights.  A local search moves one demand at a time from the
  all-direct assignment and from the hub's (``_RelayAssignment``).
* Multihop: the greedy-DFVS walk of the demand digraph (``fvs``).
A count at the bound is returned as proven optimal with nothing
searched, and otherwise the solver searches only for plans with fewer
flights, keeping the incumbent when it finds none.  The incumbent only
saves searching: the exact and ILP solvers keep their own bounds, so the
ILP stays an independent check of the exact solvers' counts.
The policy records, per part, the bound it proved against and what
decided the count; the result carries that as ``PlannerResult.proof``,
which ``exact.certify`` reads.  The policy holds the solve's one budget,
``_Effort``: an expansion count and a deadline
``SearchLimits.time_budget`` seconds away, 60 by default and never absent
(``math.inf`` for none).  Every spend reads the clock, so a solve
overruns its deadline by at most the step that was running, except for
the multihop A* (``exact._min_covering_walk``): it stops at the
deadline, but freeing its state table, which grows with the time it is
given, comes on top.  With the size limits raised, ``random_graph(16,
0.3, seed=1)`` under a 5 s budget returns at 5.3 s, at a peak RSS near
0.5 GB (2-core VM).  The policy is the only place that handles the
budget running out.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from itertools import chain, pairwise
from math import gcd
from typing import NamedTuple

from .demand import (
    DemandGraph,
    _Checked,
    _endpoint_bound,
    _flight_bound,
    weakly_connected_components,
)
from .flightplan import FlightPlan
from .jsonutil import canonical_dumps

_Pairs = Sequence[tuple[int, int]]  # a plan's flights as (remote, home) pairs


class SearchLimitError(ValueError):
    """Instance exceeds the structural limits of the exact and ILP solvers."""


class _SearchLimitsFields(NamedTuple):
    max_nodes: int
    max_demands: int
    expansion_budget: int
    time_budget: float


class SearchLimits(_Checked, _SearchLimitsFields):
    """Structural and effort caps for the exact and ILP solvers.

    ``max_nodes`` and ``max_demands`` bound each part, that is each weakly
    connected component, in both regimes.  Budgets are soft: exceeding
    them degrades to a feasible but unproven answer instead of failing.
    ``time_budget`` is the seconds one solve may take, 60 by default;
    ``math.inf`` lets it run until the expansion budget runs out.  The
    other three must be exactly ``int``.
    """

    __slots__ = ()

    def __new__(
        cls,
        max_nodes: int = 10,
        max_demands: int = 40,
        expansion_budget: int = 5_000_000,
        time_budget: float = 60.0,
    ) -> SearchLimits:
        # Exact type: bool is an int subclass, so True would pass as 1.
        if any(type(count) is not int for count in (max_nodes, max_demands, expansion_budget)):
            raise ValueError("max_nodes, max_demands and expansion_budget must be integers")
        # Written so that NaN fails too; None raises TypeError.
        if not (max_nodes > 0 and max_demands > 0 and expansion_budget > 0 and time_budget > 0):
            raise ValueError("search limits must be positive")
        return tuple.__new__(cls, (max_nodes, max_demands, expansion_budget, time_budget))

    def check_size(self, nodes: int, demands: int, scope: str) -> None:
        """Raise ``SearchLimitError`` when ``scope`` (a graph or one
        component) has more nodes or demands than the limits allow."""
        if nodes > self.max_nodes:
            raise SearchLimitError(
                f"{scope} with {nodes} nodes exceeds max_nodes={self.max_nodes}"
            )
        if demands > self.max_demands:
            raise SearchLimitError(
                f"{scope} with {demands} demands exceeds max_demands={self.max_demands}"
            )


class PlannerResult(NamedTuple):
    """A plan plus the bookkeeping needed to judge it.

    ``mode`` is the routing regime the plan is valid for.
    ``lower_bound`` is ``max(|S|, |D|)``, the paper's bound for the
    2-approximation, and ``ratio`` in the JSON is the count over it.
    ``coordinators`` lists the per-component hub choices when the
    coordinator algorithm produced the plan.  ``proof`` lists, per part
    an optimal solve treated, its basis and the lower bound the count was
    proven against (see ``_search_below_coordinator``); ``plan_singlehop``
    carries ``(("demands", |demands|),)``.  ``to_json`` does not write it.
    """

    plan: FlightPlan
    mode: str
    algorithm: str
    lower_bound: int
    proven_optimal: bool = False
    coordinators: tuple[int, ...] = ()
    proof: tuple[tuple[str, int], ...] = ()

    @property
    def count(self) -> int:
        return self.plan.count

    def to_json(self) -> str:
        return canonical_dumps(self.to_json_dict())

    def to_json_dict(self) -> dict:
        count, bound = self.count, max(self.lower_bound, 1)
        common = gcd(count, bound)
        doc = {
            "algorithm": self.algorithm,
            "mode": self.mode,
            "count": count,
            "lower_bound": self.lower_bound,
            "ratio": f"{count // common}/{bound // common}",
            "proven_optimal": self.proven_optimal,
            "plan": self.plan.to_json_dict(),
        }
        if self.coordinators:
            doc["coordinators"] = list(self.coordinators)
        return doc


def make_result(
    g: DemandGraph,
    flights: Iterable[tuple[int, int]],
    mode: str,
    algorithm: str,
    proven_optimal: bool = False,
    coordinators: tuple[int, ...] = (),
    proof: tuple[tuple[str, int], ...] = (),
) -> PlannerResult:
    return PlannerResult(
        plan=FlightPlan(flights),
        mode=mode,
        algorithm=algorithm,
        lower_bound=_endpoint_bound(g.demands),  # lower_bound(g).overall
        proven_optimal=proven_optimal,
        coordinators=coordinators,
        proof=proof,
    )


def plan_singlehop(g: DemandGraph) -> PlannerResult:
    """One direct pigeon per demand; exactly ``|demands|`` pigeons.

    This is optimal for singlehop routing: without relaying, every demand
    edge needs its own pigeon.  Flights are emitted in sorted order; they
    are mutually independent, so the order carries no meaning.
    """
    flights = g.sorted_demands()
    proof = (("demands", len(flights)),)
    return make_result(g, flights, "singlehop", "direct", proven_optimal=True, proof=proof)


def _hub_flights(
    nodes: Iterable[int], demands
) -> tuple[int, list[tuple[int, int]], list[tuple[int, int]]]:
    """The hub of one component and its gather and scatter flights.

    The hub is the component's maximum total-degree node, smallest id on
    ties; every other source flies to it, then it flies to every other
    destination."""
    degree = Counter(chain.from_iterable(demands))  # in + out degree
    hub = min(nodes, key=lambda v: (-degree[v], v))
    gather = [(src, hub) for src in sorted({src for src, _ in demands} - {hub})]
    scatter = [(hub, dst) for dst in sorted({dst for _, dst in demands} - {hub})]
    return hub, gather, scatter


def plan_coordinator(g: DemandGraph) -> PlannerResult:
    """Gather-and-scatter through a per-component hub (2-approximation).

    The hub is the component's maximum total-degree node, smallest id on
    ties.  All gather flights (every source to its hub) precede all
    scatter flights (each hub to its destinations) globally, so every
    relay pickup lands before its delivery departs.
    """
    partition = weakly_connected_components(g)
    coordinators: list[int] = []
    gather: list[tuple[int, int]] = []
    scatter: list[tuple[int, int]] = []
    for comp, demands in zip(partition.components, partition.demands):
        hub, inbound, outbound = _hub_flights(comp, demands)
        coordinators.append(hub)
        gather.extend(inbound)
        scatter.extend(outbound)

    return make_result(
        g,
        gather + scatter,
        "twohop",
        "coordinator",
        coordinators=tuple(coordinators),
    )


def plan_cycle(g: DemandGraph) -> PlannerResult:
    """Demand-oblivious cycle plan, ``2m - 2`` pigeons per component.

    Nodes of each component are ordered ascending and information is
    relayed around the cycle once and then again up to the second-to-last
    node, so every node's outgoing demand passes every other node.
    """
    partition = weakly_connected_components(g)
    flights: list[tuple[int, int]] = []
    for comp in partition.components:
        nodes = sorted(comp)
        walk = nodes + nodes[:-1]  # v1..vm, v1..v(m-1)
        flights.extend(pairwise(walk))
    return make_result(g, flights, "multihop", "cycle")


class _BudgetExhausted(Exception):
    """The solve's budget ran out.  ``plan`` holds the flight pairs of the
    best plan of the part found before it did, or None to keep its incumbent."""

    def __init__(self, plan: _Pairs | None = None):
        super().__init__()
        self.plan = plan


class _Effort:
    """The budget of one solve: its limits, expansions left and the deadline."""

    def __init__(self, limits: SearchLimits):
        self.limits = limits
        self.remaining = limits.expansion_budget
        self.deadline = time.monotonic() + limits.time_budget

    def spend(self) -> None:
        """Count one expansion and check the deadline.  A clock read costs
        tens of nanoseconds and a step microseconds or more, so every
        step reads it."""
        self.remaining -= 1
        if self.remaining < 0 or time.monotonic() > self.deadline:
            raise _BudgetExhausted

    def time_left(self) -> float:
        """Seconds to the deadline; raises once it has passed."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise _BudgetExhausted
        return left


def _checked_parts(
    g: DemandGraph, limits: SearchLimits
) -> list[tuple[list[int], DemandGraph, int]]:
    """The parts an optimal solve of ``g`` treats one by one, in every
    regime: each weakly connected component as ``(nodes, part, bound)``.
    ``nodes`` lists its nodes ascending, ``part`` is the component with
    ``nodes[i]`` relabelled to ``i``, and ``bound`` is its
    ``_flight_bound``.  Nodes without demands belong to no part.  Raises
    ``SearchLimitError`` when a component is over ``limits``, before any
    part is searched."""
    parts = []
    for comp, demands in zip(*weakly_connected_components(g)):
        limits.check_size(len(comp), len(demands), "component")
        nodes = sorted(comp)
        local = {v: i for i, v in enumerate(nodes)}
        part = DemandGraph(len(nodes), ((local[u], local[v]) for u, v in demands))
        parts.append((nodes, part, _flight_bound((comp,), (demands,))))
    return parts


class _RelayAssignment:
    """A relay assignment ``R`` of one part: demand ``i = (u, v)`` is
    served through ``via[i]``, a relay ``w`` or, for a direct flight,
    ``v`` itself.  Arc ``(a, b)`` has key ``a * m + b``, and ``users``
    counts the demands flying each flown arc.  ``P(R)`` is the digraph on
    the flown arcs that links each relay's pickup ``(u, w)`` to its
    delivery ``(w, v)``.  A DFVS ``F`` of ``P(R)`` gives a 2-hop plan of
    ``len(users) + |F|`` flights: ``F``, the other arcs in topological
    order of ``P(R)``, ``F`` again, so every pickup flies before its
    delivery."""

    def __init__(self, m: int, demands: _Pairs, via: list[int]):
        self.m, self.demands, self.via = m, demands, via
        self.users: dict[int, int] = {}
        for i, w in enumerate(via):
            self._serve(i, w, 1)

    def _serve(self, i: int, w: int, sign: int) -> None:
        """Add (``sign`` 1) or drop (-1) demand ``i``'s service through ``w``."""
        m, users = self.m, self.users
        u, v = self.demands[i]
        for a in (u * m + v,) if w == v else (u * m + w, w * m + v):
            users[a] = users.get(a, 0) + sign
            if not users[a]:
                del users[a]

    def move(self, i: int, w: int) -> None:
        self._serve(i, self.via[i], -1)
        self.via[i] = w
        self._serve(i, w, 1)

    def _ordered(self) -> tuple[list[int], list[int], list[int], int]:
        """The flown arcs' keys ascending, and ``succ``, ``pred`` and the
        greedy DFVS of ``P(R)`` over positions in that list.  Positions
        keep the keys' order, so the DFVS's tie-breaks and
        ``fvs.dfvs_walk``'s order are those of the keys."""
        from . import fvs

        m, keys = self.m, sorted(self.users)
        index = {a: k for k, a in enumerate(keys)}
        served = zip(self.demands, self.via)
        links = [(index[u * m + w], index[w * m + v]) for (u, v), w in served if w != v]
        succ, pred = fvs.digraph(len(keys), links)
        return keys, succ, pred, fvs.greedy_dfvs(succ, pred, lambda: None)

    def score(self) -> int:
        """The flights of ``flights()``."""
        return len(self.users) + self._ordered()[3].bit_count()

    def climb(self, target: int, spend: Callable[[], None]) -> int:
        """Move one demand at a time, to direct service or to a relay one
        of whose arcs is flown already, while the score falls and is above
        ``target``; returns the score.  ``spend`` runs once per move
        tried, before it is made.  A move onto a relay with neither arc
        flown never beats direct service, so it is not tried."""
        m, users = self.m, self.users
        score = self.score()
        improved = True
        while improved and score > target:
            improved = False
            for i, (u, v) in enumerate(self.demands):
                old = self.via[i]
                for w in range(m):
                    if w == old or w == u or not (
                        w == v or u * m + w in users or w * m + v in users
                    ):
                        continue
                    spend()
                    self.move(i, w)
                    # The DFVS only adds flights, so a move that flies no
                    # fewer arcs than the score is scored no further.
                    if len(users) < score and (moved := self.score()) < score:
                        score, improved = moved, True
                        if score <= target:
                            return score
                        break
                    self.move(i, old)
        return score

    def flights(self) -> list[tuple[int, int]]:
        from . import fvs

        keys, succ, pred, dfvs = self._ordered()
        return [divmod(keys[k], self.m) for k in fvs.dfvs_walk(succ, pred, dfvs)]


def _relay_plan(
    part: DemandGraph, hub: int, bound: int, cap: int, effort: _Effort
) -> _Pairs | None:
    """2-hop incumbent: the shortest plan of ``_RelayAssignment.climb``
    from the all-direct assignment and from the hub's, if it has at most
    ``cap`` flights.  The climbs stop once a score meets ``bound``.
    When the budget runs out, the exception carries the best plan so far
    within ``cap``, if any."""
    demands = part.sorted_demands()
    starts = ([v for _, v in demands], [v if hub in (u, v) else hub for u, v in demands])
    best: _RelayAssignment | None = None
    best_score = cap + 1
    for via in starts:
        state = _RelayAssignment(part.n, demands, via)
        try:
            score = state.climb(bound, effort.spend)
        except _BudgetExhausted:
            if state.score() < best_score:
                best = state
            raise _BudgetExhausted(best and best.flights()) from None
        if score < best_score:
            best, best_score = state, score
        if score <= bound:
            break
    return best and best.flights()


def _walk_plan(
    part: DemandGraph, hub: int, bound: int, cap: int, effort: _Effort
) -> _Pairs | None:
    """Multihop incumbent: the greedy-DFVS walk ``F``, a topological order
    of the other nodes, ``F`` again, ``m - 1 + |F|`` flights, if that is
    at most ``cap``."""
    from . import fvs

    succ, pred = fvs.digraph(part.n, part.demands)
    dfvs = fvs.greedy_dfvs(succ, pred, effort.spend)
    if part.n - 1 + dfvs.bit_count() > cap:
        return None
    return list(pairwise(fvs.dfvs_walk(succ, pred, dfvs)))


_INCUMBENTS = {"twohop": _relay_plan, "multihop": _walk_plan}


def _search_below_coordinator(
    g: DemandGraph,
    mode: str,
    algorithm: str,
    limits: SearchLimits,
    search: Callable[[DemandGraph, int, int, _Effort], _Pairs | None],
    raise_bound: Callable[[DemandGraph, _Effort], int] | None = None,
) -> PlannerResult:
    """The solve policy of the exact and ILP planners.

    The parts come from ``_checked_parts``: one per weakly connected
    component, in both regimes, so a part over the size limits is refused
    before any is searched.  The functions below see a part in its local
    ids ``0..m-1`` and return flights in them as ``(remote, home)``
    pairs; the policy maps the pairs it keeps back through the part's
    ``nodes``, and ``FlightPlan`` builds the flights.

    Each part's bound is ``demand._flight_bound``, the one bound of every
    regime.  Its incumbent is picked once per regime, for both
    algorithms: the coordinator's flights (``_hub_flights``), and, when
    they are above the bound, the shorter of them and ``_relay_plan``
    (2-hop) or ``_walk_plan`` (multihop); the coordinator wins ties.
    When the incumbent is still above the bound and the caller passes
    ``raise_bound`` (exact: ``m - 1`` plus a cycle packing), the bound
    becomes the larger of the two.  When the incumbent meets the bound it
    is optimal and nothing is searched.  Otherwise
    ``search(part, bound, cap, effort)`` returns the flights of a plan
    with at most ``cap = count - 1`` flights, or None when no such plan
    exists.  All of them raise ``_BudgetExhausted`` when the solve's one
    budget ``effort`` runs out.  The part then keeps its incumbent, or the
    shorter plan the exception carries, unproven; later parts are still
    searched with what is left.

    The result's ``proof`` holds one ``(basis, bound)`` per part: the
    bound as ``raise_bound`` left it, and as basis ``flight_bound`` when
    the incumbent met ``demand._flight_bound``, ``packing`` when it met a
    raised bound, ``search`` (exact) or ``highs`` (ILP) when the search
    decided the count, and ``budget`` when the budget ran out first.  A
    ``budget`` part is unproven, but its bound is still a lower bound.
    The result is proven when no part is ``budget``.
    """
    parts = _checked_parts(g, limits)
    effort = _Effort(limits)
    searched = "highs" if algorithm == "ilp" else "search"
    shorter_plan = _INCUMBENTS[mode]
    flights: list[tuple[int, int]] = []
    proof: list[tuple[str, int]] = []
    for nodes, part, bound in parts:
        hub, gather, scatter = _hub_flights(range(part.n), part.demands)
        incumbent: _Pairs = gather + scatter
        found = None
        basis = "flight_bound"
        try:
            if len(incumbent) > bound:
                incumbent = shorter_plan(part, hub, bound, len(incumbent) - 1, effort) or incumbent
            if raise_bound is not None and len(incumbent) > bound:
                raised = raise_bound(part, effort)
                if raised > bound:
                    bound, basis = raised, "packing"
            if len(incumbent) > bound:
                basis = searched
                found = search(part, bound, len(incumbent) - 1, effort)
        except _BudgetExhausted as exhausted:
            found = exhausted.plan
            basis = "budget"
        kept = incumbent if found is None else found
        flights.extend((nodes[a], nodes[b]) for a, b in kept)
        proof.append((basis, bound))
    proven = all(basis != "budget" for basis, _ in proof)
    return make_result(g, flights, mode, algorithm, proven_optimal=proven, proof=tuple(proof))
