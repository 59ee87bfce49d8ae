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
policy, ``_search_below_coordinator``: the coordinator plan is the
incumbent, a count at the bound ``demand._flight_bound`` is returned as
proven optimal with nothing searched, and otherwise the solver searches only
for plans with fewer flights, keeping the incumbent when it finds none.
The policy holds the solve's one budget, ``_Effort``: an expansion count
and a deadline ``SearchLimits.time_budget`` seconds away, 60 by default
and never absent (``math.inf`` for none).  It is the only place that
handles the budget running out.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Callable
from itertools import chain
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from .demand import DemandGraph, _endpoint_bound, _flight_bound, weakly_connected_components
from .flightplan import Flight, FlightPlan
from .jsonutil import canonical_dumps

if TYPE_CHECKING:  # fractions loads decimal and numbers; imported where a ratio is built
    from fractions import Fraction


class SearchLimitError(ValueError):
    """Instance exceeds the structural limits of the exact and ILP solvers."""


class _SearchLimitsFields(NamedTuple):
    max_nodes: int
    max_demands: int
    expansion_budget: int
    time_budget: float


class SearchLimits(_SearchLimitsFields):
    """Structural and effort caps for the exact and ILP solvers.

    ``max_nodes`` bounds the whole graph for 2-hop and each component for
    multihop.  Budgets are soft: exceeding them degrades to a feasible
    but unproven answer instead of failing.  ``time_budget`` is the
    seconds one solve may take, 60 by default; ``math.inf`` lets it run
    until the expansion budget runs out.
    """

    __slots__ = ()

    def __new__(
        cls,
        max_nodes: int = 10,
        max_demands: int = 40,
        expansion_budget: int = 5_000_000,
        time_budget: float = 60.0,
    ) -> SearchLimits:
        # Written so that NaN fails too; None raises TypeError.
        if not (max_nodes > 0 and max_demands > 0 and expansion_budget > 0 and time_budget > 0):
            raise ValueError("search limits must be positive")
        return tuple.__new__(cls, (max_nodes, max_demands, expansion_budget, time_budget))

    @classmethod
    def _make(cls, iterable) -> SearchLimits:
        return cls(*iterable)

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
    ``coordinators`` lists the per-component hub choices when the
    coordinator algorithm produced the plan.
    """

    plan: FlightPlan
    mode: str
    algorithm: str
    lower_bound: int
    proven_optimal: bool = False
    coordinators: tuple[int, ...] = ()

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
    flights: list[Flight],
    mode: str,
    algorithm: str,
    proven_optimal: bool = False,
    coordinators: tuple[int, ...] = (),
) -> PlannerResult:
    return PlannerResult(
        plan=FlightPlan(tuple(flights)),
        mode=mode,
        algorithm=algorithm,
        lower_bound=_endpoint_bound(g.demands),  # lower_bound(g).overall
        proven_optimal=proven_optimal,
        coordinators=coordinators,
    )


def plan_singlehop(g: DemandGraph) -> PlannerResult:
    """One direct pigeon per demand; exactly ``|demands|`` pigeons.

    This is optimal for singlehop routing: without relaying, every demand
    edge needs its own pigeon.  Flights are emitted in sorted order; they
    are mutually independent, so the order carries no meaning.
    """
    flights = [Flight(src, dst) for src, dst in g.sorted_demands()]
    return make_result(g, flights, "singlehop", "direct", proven_optimal=True)


def plan_coordinator(g: DemandGraph) -> PlannerResult:
    """Gather-and-scatter through a per-component hub (2-approximation).

    The hub is the component's maximum total-degree node, smallest id on
    ties.  All gather flights (every source to its hub) precede all
    scatter flights (each hub to its destinations) globally, so every
    relay pickup lands before its delivery departs.
    """
    partition = weakly_connected_components(g)
    coordinators: list[int] = []
    gather: list[Flight] = []
    scatter: list[Flight] = []
    for comp, demands in zip(partition.components, partition.demands):
        degree = Counter(chain.from_iterable(demands))  # in + out degree
        hub = min(comp, key=lambda v: (-degree[v], v))
        coordinators.append(hub)
        gather.extend(Flight(src, hub) for src in sorted({src for src, _ in demands} - {hub}))
        scatter.extend(Flight(hub, dst) for dst in sorted({dst for _, dst in demands} - {hub}))

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
    flights: list[Flight] = []
    for comp in partition.components:
        nodes = sorted(comp)
        walk = nodes + nodes[:-1]  # v1..vm, v1..v(m-1)
        flights.extend(Flight(a, b) for a, b in zip(walk, walk[1:]))
    return make_result(g, flights, "multihop", "cycle")


class _BudgetExhausted(Exception):
    """The solve's budget ran out.  ``plan`` holds the flights of a plan
    below the cap found before it did, or None."""

    def __init__(self, plan: list[Flight] | None = None):
        super().__init__()
        self.plan = plan


class _Effort:
    """The budget of one solve: expansions left and the deadline."""

    def __init__(self, limits: SearchLimits):
        self.remaining = limits.expansion_budget
        self.deadline = time.monotonic() + limits.time_budget

    def spend(self) -> None:
        """Count one expansion; the clock is read every 1,024."""
        self.remaining -= 1
        if self.remaining < 0:
            raise _BudgetExhausted
        if self.remaining % 1024 == 0 and time.monotonic() > self.deadline:
            raise _BudgetExhausted

    def time_left(self) -> float:
        """Seconds to the deadline; raises once it has passed."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise _BudgetExhausted
        return left


def _checked_parts(
    g: DemandGraph, mode: str, limits: SearchLimits
) -> list[tuple[DemandGraph, int]]:
    """The parts an optimal solve of ``g`` treats one by one, each with its
    ``_flight_bound``: the whole graph for 2-hop, each weakly connected
    component for multihop.  Raises ``SearchLimitError`` when a part is
    over ``limits``, before any part is searched."""
    partition = weakly_connected_components(g)
    if mode == "twohop":
        limits.check_size(g.n, len(g.demands), "graph")
        return [(g, _flight_bound(*partition))]
    for comp, demands in zip(*partition):
        limits.check_size(len(comp), len(demands), "component")
    return [(DemandGraph(g.n, d), _flight_bound((c,), (d,))) for c, d in zip(*partition)]


def _search_below_coordinator(
    g: DemandGraph,
    mode: str,
    algorithm: str,
    limits: SearchLimits,
    search: Callable[[DemandGraph, int, int, _Effort], list[Flight] | None],
) -> PlannerResult:
    """The solve policy of the exact and ILP planners.

    A 2-hop plan is solved as one part, the whole graph; a multihop plan
    per weakly connected component.  Each part's bound is
    ``demand._flight_bound``, the one bound of every regime.  The parts
    come from ``_checked_parts``, so a part over the size limits is
    refused before any is searched; ``export-lp`` applies the same check.
    Each part's incumbent is its coordinator plan.  When that meets the
    bound it is optimal and nothing is searched.  Otherwise
    ``search(part, bound, cap, effort)`` returns the flights of a plan
    with at most ``cap = count - 1`` flights, or None when no such plan
    exists, or raises ``_BudgetExhausted`` when the solve's one budget
    ``effort`` runs out.  The part then keeps its incumbent, or the plan
    the exception carries, unproven; later parts are still searched with
    what is left.  The result is proven when every part is.
    """
    parts = _checked_parts(g, mode, limits)
    effort = _Effort(limits)
    flights: list[Flight] = []
    proven = True
    for part, bound in parts:
        incumbent = plan_coordinator(part)
        found = None
        if incumbent.count > bound:
            try:
                found = search(part, bound, incumbent.count - 1, effort)
            except _BudgetExhausted as exhausted:
                found = exhausted.plan
                proven = False
        flights.extend(incumbent.plan.flights if found is None else found)
    return make_result(g, flights, mode, algorithm, proven_optimal=proven)


class ComponentSaving(NamedTuple):
    """Pigeons a plan saved against the per-component ``|S| + |D|`` cap."""

    nodes: tuple[int, ...]
    sources: int
    destinations: int
    pigeons: int
    saving: int


class ApproximationReport(NamedTuple):
    """Actual count against the universal lower bound."""

    count: int
    lower_bound: int
    ratio: Fraction
    per_component: tuple[ComponentSaving, ...]


def approximation_report(g: DemandGraph, result: PlannerResult) -> ApproximationReport:
    """Compare a planner result against the lower bound, per component.

    A flight counts for the component of its ``remote`` node.
    """
    from fractions import Fraction

    partition = weakly_connected_components(g)
    label = {v: index for index, comp in enumerate(partition.components) for v in comp}
    used = Counter(label.get(f.remote) for f in result.plan.flights)
    bound = _endpoint_bound(g.demands)  # lower_bound(g).overall
    per_component: list[ComponentSaving] = []
    for index, (comp, demands) in enumerate(zip(partition.components, partition.demands)):
        sources = len({src for src, _ in demands})
        destinations = len({dst for _, dst in demands})
        per_component.append(
            ComponentSaving(
                nodes=tuple(sorted(comp)),
                sources=sources,
                destinations=destinations,
                pigeons=used[index],
                saving=sources + destinations - used[index],
            )
        )

    return ApproximationReport(
        count=result.count,
        lower_bound=bound,
        ratio=Fraction(result.count, max(bound, 1)),
        per_component=tuple(per_component),
    )
