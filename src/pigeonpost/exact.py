"""Exact optimal solvers at desk scale.

Both solvers treat each weakly connected component as one part, in its
local ids ``0..m-1`` (``planners._checked_parts``), and return the sum
of the parts' optima.  That sum is the optimum of the whole graph when
no plan gains by flying through nodes outside a component.  Part of
this is proven and the rest is checked:

* Nodes with no demands are never needed, under 2-hop.  Let ``w`` have
  no demands.  A flight ``u -> w`` serves no demand; it is only the
  pickup of relays ``u -> w -> v``, which serve demands ``(u, v)`` of
  ``u``'s component.  A flight ``w -> v`` serves only such relays, that
  is demands of ``v``'s component, and carries no data anyone wants as a
  pickup.  Pick one node ``r`` in each component and move each flight
  between ``w`` and that component onto ``r``, in its own slot, dropping
  the flight when it becomes ``r -> r``.  A relay ``u -> w -> v`` becomes
  ``u -> r -> v`` in the same two slots; when ``u`` or ``v`` is ``r``,
  the one flight kept serves ``(u, v)`` directly.  Every other flight
  stays, so the plan serves every demand with no more flights.
* Under 2-hop, nodes of another component are never needed.  This is
  not proven (see the 2-hop identity below): ``tests/test_exact.py``
  checks it in both regimes against oracles that search any flights
  between any nodes, on every pair of weakly connected 2- and 3-node
  demand classes, alone and with an extra node without demands.
* Under multihop, neither kind of node is ever needed: the bound below
  counts the flights of any plan, through any nodes.

Multihop: let component ``i`` have ``m_i`` nodes and let ``tau_i`` be the
size of a minimum directed feedback vertex set (DFVS) of its demand
digraph.  Every plan has at least ``sum(m_i - 1 + tau_i)`` flights.  Run
through its flights in time order with a union-find over all nodes; a
flight is a *tree flight* when it joins two sets and a *cycle flight*
otherwise, and ``X`` is the set of homes of the cycle flights.

1. Data moves only along flights, so once ``u``'s data is at ``v``, the
   two share a set.  When it first reaches ``v`` by a tree flight
   ``a -> v`` at time ``t``, ``u`` shares a set with ``a`` before ``t``
   and ``a`` does not share one with ``v``: ``u`` and ``v`` are joined
   at ``t`` and not before.
2. ``X`` is a DFVS.  Take a demand cycle with no node in ``X``; every
   flight into its nodes is a tree flight, and each demand of the cycle
   is served by a flight into a different node.  Of its demands, take
   ``(u, v)``, served last, at ``t``.  The others, served before ``t``,
   joined ``v`` to ``u`` around the cycle before ``t``, against 1.  So
   ``|X| >= tau``, and ``tau`` is ``sum(tau_i)``, since every cycle lies
   in one component.
3. Each component ends inside one set, so the sets are at most the
   components plus the nodes outside them, and the tree flights, the
   graph's ``n`` nodes minus the number of sets, are at least
   ``sum(m_i - 1)``.  The cycle flights are at least ``|X|``.

Above: for any DFVS ``F``, the walk ``F``, a topological order of the
other nodes, ``F`` again serves every demand in ``m - 1 + |F|`` flights
(``fvs.dfvs_walk``).  So the multihop optimum is exactly
``sum(m_i - 1 + tau_i)``: it adds up over the components, needs no node
outside them, and one walk per component meets it.  Each of ``packing``
vertex-disjoint demand cycles holds a node of ``X``, so every plan also
has at least ``m - 1 + packing`` flights per component.

The search of a part is thus one over walks.  A demand ``(u, v)`` is
served by a walk exactly when ``u`` occurs strictly before some
occurrence of ``v``, that is when ``first(u) < last(v)``.  The optimum of
a part is its shortest covering walk, found here by a uniform-cost
search with an admissible distance bound over states ``(current node,
appeared set, satisfied demand set)``.  Each state is packed into one
int with the satisfied set laid out by node pair, so a move costs one
shift and a few masks, and the bound is updated from the parent's in
O(1) instead of being recomputed over the unserved demands.

2-hop: a *relay assignment* ``R`` serves each demand ``(u, v)`` by the
arc ``u -> v`` or through a relay ``w``, by its pickup ``u -> w`` and its
delivery ``w -> v``.  ``arcs(R)`` is the set of arcs it uses, and
``P(R)`` is the digraph on ``arcs(R)`` with a link from pickup to
delivery per relayed demand.  The 2-hop optimum is
``min_R |arcs(R)| + tau(P(R))``:

* Above: for any DFVS ``F`` of ``P(R)``, the flights ``F``, the other
  arcs of ``R`` in a topological order of ``P(R) - F``, then ``F`` again
  serve every demand in ``|arcs(R)| + |F|`` flights
  (``planners._RelayAssignment.flights``).  A pickup in ``F`` flies
  before every arc outside the first block, a delivery in ``F`` after
  every arc outside the last, and between other arcs the order is
  topological.
* Below: take any plan, and let ``R`` serve each demand the way the plan
  does, by a direct flight or by a relay whose pickup flies before its
  delivery.  Every arc of ``R`` is flown.  A link of ``P(R)`` between two
  arcs that each fly once goes from an earlier slot to a later one, so
  the arcs of ``R`` flown twice or more form a DFVS of ``P(R)``.  The
  plan has a flight per arc of ``R`` and one more per arc flown twice or
  more, so at least ``|arcs(R)| + tau(P(R))`` flights.

``R`` may relay through any node, so the identity holds for the whole
graph as for a part.  It leaves component additivity unproven: one arc
between two components can be a pickup for one and a delivery for the
other, so ``P(R)`` need not split by component.

The solver does not search relay assignments: it iteratively deepens
over ordered flight sequences, pruning flights that make no progress and
memoizing on the state, the satisfied demands plus, per relay node, the
unserved demands whose data it holds.  A prefix is cut when its length
plus a distance bound is over the flight count tried: the larger of the
number of nodes that are the destination of an unserved demand and the
number that are the source of an unserved demand no relay holds.  It is
admissible: each such destination still needs a flight into it, each
such source a flight out of it, and a flight arrives at one node and
leaves one.  With a demand mask per node it costs one mask test per node
plus a pass over the relays, not a pass over the demands.  Likewise a
flight ``a -> b`` finds the demands it serves and opens from the masks of
``a`` and ``b`` alone.

Both solvers follow the policy of ``planners._search_below_coordinator``:
per part, the incumbent is the coordinator plan or, when that is above
``demand._flight_bound``, the shorter of it and the regime's own plan,
the relay plan (2-hop) or the greedy-DFVS walk (multihop); the
coordinator plan wins ties.  In both regimes the exact solvers then
raise the bound to ``max(m - 1 + packing, |S|, |D|)`` with ``fvs``.
That holds for 2-hop too: a relay ``u -> w -> v`` flies in ascending
slots, so every 2-hop plan is a multihop plan, and no multihop plan has
fewer than ``m - 1 + packing`` flights.  A count at the bound is proven
without a search, and otherwise the search looks only for plans with
fewer flights.  Failing to find one proves the incumbent optimal.  The
policy holds the solve's one budget: the incumbents, the DFVS bounds and
the searches spend from it and raise when it runs out, and the policy
then keeps the best plan found, flagged as not proven.  The result's
``proof`` records each part's bound and basis, and ``certify`` checks
the plan against them.
"""

from __future__ import annotations

from collections.abc import Iterable
from heapq import heappop, heappush
from itertools import pairwise
from typing import NamedTuple

from .demand import DemandGraph, _flight_bound, weakly_connected_components
from .flightplan import verify
from .jsonutil import canonical_dumps
from .planners import (  # SearchLimitError is re-exported for callers of this module
    PlannerResult,
    SearchLimitError,
    SearchLimits,
    _Effort,
    _search_below_coordinator,
)


def _min_covering_walk(
    m: int,
    demands: Iterable[tuple[int, int]],
    effort: _Effort,
    max_flights: int,
) -> list[int] | None:
    """Shortest walk over the nodes ``0..m-1`` serving every demand in at
    most ``max_flights`` flights, or None when there is none;
    ``effort.spend`` raises when the budget runs out.  Every node must lie
    on a demand.

    Uniform-cost search (cost 1 per appended node) guided by a consistent
    lower bound: every not-yet-appeared node and every node that is the
    destination of an unserved demand still needs at least one append,
    and one append adds exactly one node.  States pop in ascending ``f``,
    so the search stops at the first ``f`` over ``max_flights``: a search
    that finds no walk within the cap expands only the states whose
    bound is within it.

    A state is one int
    ``satisfied << (m + cb) | appeared << cb | current`` with
    ``cb = m.bit_length()``; bit ``x*m + u`` of ``satisfied`` is demand
    ``(u, x)``.  Appending ``x`` serves ``(appeared << x*m) & wanted[x]``
    minus what is already served, one shift and two masks.  Appending
    ``x`` changes only ``x``'s own term of the bound, and a child is
    generated only when ``x`` is new or gains a demand (so that term was
    1), hence the child's bound is the parent's minus 1, plus 1 when
    ``x`` still has unserved in-demands: ``f`` grows by that last term.
    """
    cb = m.bit_length()
    sat_shift = m + cb  # where ``satisfied`` starts inside a key
    current_mask = (1 << cb) - 1
    all_nodes_mask = (1 << m) - 1

    # wanted[x]: the demands (u, x) into x, already at their key position.
    wanted = [0] * m
    sources_mask = 0
    destinations_mask = 0
    for u, x in demands:
        wanted[x] |= 1 << (sat_shift + x * m + u)
        sources_mask |= 1 << u
        destinations_mask |= 1 << x
    full = 0
    for mask in wanted:
        full |= mask
    source_shift = [sat_shift + x * m for x in range(m)]
    appeared_key_bit = [1 << (x + cb) for x in range(m)]

    heap: list[tuple[int, int, int, int]] = []
    seen: dict[int, tuple[int, int | None]] = {}  # key -> (g, parent key)
    tie = 0

    start_mask = sources_mask  # an optimal walk always starts at a source
    while start_mask:
        low = start_mask & -start_mask
        v = low.bit_length() - 1
        key = low << cb | v
        seen[key] = (0, None)
        bound = ((all_nodes_mask & ~low) | destinations_mask).bit_count()
        heappush(heap, (bound, 0, tie, key))
        tie += 1
        start_mask &= start_mask - 1

    goal: int | None = None
    while heap:
        f, g, _, key = heappop(heap)
        if f > max_flights:
            break  # f pops in ascending order, so every walk left is over the cap
        if seen[key][0] != g:
            continue
        unserved = full & ~key
        if not unserved:
            goal = key
            break
        effort.spend()
        current = key & current_mask
        appeared = (key >> cb) & all_nodes_mask
        base = key ^ current
        new_g = g + 1
        for nxt in range(m):
            if nxt == current:
                continue
            pending = wanted[nxt] & unserved
            gain = (appeared << source_shift[nxt]) & pending if pending else 0
            if not gain and (appeared >> nxt) & 1:
                continue  # re-appending without progress never helps
            new_key = base | gain | appeared_key_bit[nxt] | nxt
            old = seen.get(new_key)
            if old is not None and old[0] <= new_g:
                continue
            seen[new_key] = (new_g, key)
            heappush(heap, (f + (pending != gain), new_g, tie, new_key))
            tie += 1

    if goal is None:
        return None

    walk: list[int] = []
    key: int | None = goal
    while key is not None:
        walk.append(key & current_mask)
        key = seen[key][1]
    return walk[::-1]


def _search_multihop(
    part: DemandGraph, bound: int, cap: int, effort: _Effort
) -> list[tuple[int, int]] | None:
    walk = _min_covering_walk(part.n, part.demands, effort, cap)
    return None if walk is None else list(pairwise(walk))


def _packing_bound(part: DemandGraph, effort: _Effort) -> int:
    """``m - 1`` plus the cycles of a packing of ``part``'s demand digraph:
    a lower bound on the multihop flights, hence on the 2-hop ones."""
    from . import fvs  # only parts above their flight bound need it

    succ, pred = fvs.digraph(part.n, part.demands)
    return part.n - 1 + len(fvs.cycle_packing(succ, pred, effort.spend))


def optimal_multihop(g: DemandGraph, limits: SearchLimits = SearchLimits()) -> PlannerResult:
    """Provably minimal multihop plan, solved per component.

    Each component's incumbent is the shorter of its coordinator plan
    and its greedy-DFVS walk, and its bound is
    ``max(m - 1 + packing, |S|, |D|)``; where they meet, the component is
    proven with no search.  Otherwise the search looks only for walks
    shorter than the incumbent.  Components whose search exhausts the
    budget keep the incumbent and the result is flagged as not proven
    optimal.
    """
    return _search_below_coordinator(
        g, "multihop", "exact", limits, _search_multihop, _packing_bound
    )


class _TwoHopSearch:
    """Depth-first search for a feasible 2-hop plan of exactly ``k`` flights.

    Demand ``i`` is bit ``i`` of a demand mask.  A node of the search is
    its memo key ``(satisfied, held)``: ``held[w]`` is the unserved
    demands whose data sits at relay ``w``.  ``into`` and ``out_of`` hold
    the demands into and out of each node, so a flight ``a -> b`` serves
    ``(direct | held[a] & into[b]) & unserved``, opens the unserved
    ``out_of[a]`` demands that are neither served nor held at ``b``, and
    costs a few mask operations plus, per child, one copy of ``held``.
    ``_dfs`` cuts a node when the flights still needed into the
    destinations of the unserved demands, or out of the sources of the
    unserved demands no relay holds, are more than the flights left: one
    mask test per node, after a pass over ``held`` for the second count.
    """

    def __init__(self, g: DemandGraph, effort: _Effort):
        self.effort = effort
        self.demands = sorted(g.demands)
        self.full = (1 << len(self.demands)) - 1
        n = g.n
        into = [0] * n
        out_of = [0] * n
        for i, (u, v) in enumerate(self.demands):
            into[v] |= 1 << i
            out_of[u] |= 1 << i
        self.into = [mask for mask in into if mask]
        self.out_of = [mask for mask in out_of if mask]
        # Per remote ``a``, its flights ``(b, direct bit, into[b])`` in
        # ascending ``b``; the rows share the entries without a direct bit.
        plain = [(b, 0, into[b]) for b in range(n)]
        self.universe = [(a, out_of[a], plain[:a] + plain[a + 1 :]) for a in range(n)]
        for i, (u, v) in enumerate(self.demands):
            self.universe[u][2][v - (v > u)] = (v, 1 << i, into[v])

    def find_plan(self, k: int) -> list[tuple[int, int]] | None:
        self.memo: dict[tuple[int, tuple[int, ...]], int] = {}
        self.prefix: list[tuple[int, int]] = []
        if self._dfs(0, k, 0, (0,) * len(self.universe)):
            return list(self.prefix)
        return None

    def _dfs(self, depth: int, k: int, satisfied: int, held: tuple[int, ...]) -> bool:
        if satisfied == self.full:
            return True
        # Each destination of an unserved demand needs a flight into it,
        # each source of an unserved demand no relay holds a flight out of
        # it, and one flight arrives at one node and leaves one.
        left = k - depth
        unserved = self.full & ~satisfied
        arrivals = 0
        for mask in self.into:
            if mask & unserved:
                arrivals += 1
        if arrivals > left:
            return False
        unheld = unserved
        for mask in held:
            unheld &= ~mask
        departures = 0
        for mask in self.out_of:
            if mask & unheld:
                departures += 1
        if departures > left:
            return False
        key = (satisfied, held)
        seen = self.memo.get(key)
        if seen is not None and seen <= depth:
            return False
        self.memo[key] = depth

        for a, out_of_a, flights in self.universe:
            held_a = held[a]
            out = out_of_a & unserved
            if not (held_a or out):
                continue  # no flight out of ``a`` serves or opens a demand
            for b, direct, into_b in flights:
                served = (direct | held_a & into_b) & unserved
                opens = out & ~served & ~held[b]
                if not (served or opens):
                    continue  # neither serves nor opens a relay: dead weight
                if served:
                    kept = ~served
                    child = [mask & kept for mask in held]
                else:
                    child = list(held)
                child[b] |= opens
                self.effort.spend()
                self.prefix.append((a, b))
                if self._dfs(depth + 1, k, satisfied | served, tuple(child)):
                    return True
                self.prefix.pop()
        return False


def _search_twohop(
    part: DemandGraph, bound: int, cap: int, effort: _Effort
) -> list[tuple[int, int]] | None:
    deepening = _TwoHopSearch(part, effort)
    for k in range(bound, cap + 1):
        found = deepening.find_plan(k)
        if found is not None:
            return found
    return None


def optimal_twohop(g: DemandGraph, limits: SearchLimits = SearchLimits()) -> PlannerResult:
    """Provably minimal 2-hop plan via iterative deepening, solved per
    component.

    Each component's incumbent is the shorter of its coordinator plan and
    its relay plan, and its bound is ``max(m - 1 + packing, |S|, |D|)``;
    where they meet, the component is proven with no search.  Otherwise
    flight counts run from the bound up to one below the incumbent's; the
    first feasible count is optimal, and when none is, the incumbent is.
    On budget exhaustion the best plan found is returned unproven.
    """
    return _search_below_coordinator(
        g, "twohop", "exact", limits, _search_twohop, _packing_bound
    )


class OptimalityCertificate(NamedTuple):
    """Machine-checkable record that a result is verified and bound-consistent.

    ``lower_bound`` is the sum of the bounds in the result's ``proof``,
    and ``basis`` lists each part's basis, in part order.
    """

    mode: str
    count: int
    lower_bound: int
    basis: tuple[str, ...]
    tight: bool
    valid: bool

    def to_json(self) -> str:
        return canonical_dumps(self._asdict())


def certify(g: DemandGraph, result: PlannerResult) -> OptimalityCertificate:
    """Re-verify a proven-optimal result against the bound its solve
    proved against, the sum of its ``proof`` bounds.

    The certificate is valid when the plan passes its verifier and
    ``count >= bound >= demand._flight_bound``.  The recomputed
    ``_flight_bound`` is a floor the proof's bound must reach, so a
    result built without a solve (an empty ``proof``) cannot certify
    itself unless the graph has no demands.  An invalid certificate
    signals a solver bug: the plan fails its own verifier, the count
    undercuts the proven bound, or the proof's bound undercuts the
    bound every solve starts from.
    """
    if not result.proven_optimal:
        raise ValueError("certificates are only issued for proven-optimal results")
    bound = sum(part_bound for _, part_bound in result.proof)
    floor = _flight_bound(*weakly_connected_components(g))
    report = verify(result.mode, g, result.plan)
    return OptimalityCertificate(
        mode=result.mode,
        count=result.count,
        lower_bound=bound,
        basis=tuple(basis for basis, _ in result.proof),
        tight=result.count == bound,
        valid=report.satisfied and result.count >= bound >= floor,
    )
