"""Exact optimal solvers at desk scale.

Multihop: within one weakly connected component there is always an
optimal solution in which exactly one pigeon flies at a time and each
pigeon starts where the previous one landed, i.e. the flights form a
single node walk.  A demand ``(u, v)`` is served by a walk exactly when
``u`` occurs strictly before some occurrence of ``v``.  Disjoint
components contribute independently, so the optimum is the sum over
components of the shortest covering walk, found here by a uniform-cost
search with an admissible distance bound over states
``(current node, appeared set, satisfied demand set)``.  Each state is
packed into one int with the satisfied set laid out by node pair, so a
move costs one shift and a few masks, and the bound is updated from the
parent's in O(1) instead of being recomputed over the unserved demands.

2-hop: no walk normal form exists, so the solver iteratively deepens
over ordered flight sequences, pruning flights that make no progress and
memoizing on the logical state (satisfied demands plus, per open demand,
the set of relay nodes already holding its data).

Both solvers follow the policy of ``planners._search_below_coordinator``
(2-hop over the whole graph, multihop per component): the coordinator
plan is the incumbent, a count at the bound ``demand._flight_bound`` is
proven without a search, and otherwise the search looks only for plans
with fewer flights.  Failing to find one proves the incumbent optimal.
The policy holds the solve's one budget: the searches spend from it and
raise when it runs out, and the policy then keeps the incumbent, flagged
as not proven.
"""

from __future__ import annotations

from collections.abc import Iterable
from heapq import heappop, heappush
from typing import NamedTuple

from .demand import DemandGraph, _flight_bound, weakly_connected_components
from .flightplan import Flight, verify
from .jsonutil import canonical_dumps
from .planners import (  # SearchLimitError is re-exported for callers of this module
    PlannerResult,
    SearchLimitError,
    SearchLimits,
    _Effort,
    _search_below_coordinator,
)


def _min_covering_walk(
    nodes: list[int],
    demands: Iterable[tuple[int, int]],
    effort: _Effort,
    max_flights: int,
) -> list[int] | None:
    """Shortest walk over ``nodes`` serving every demand in at most
    ``max_flights`` flights, or None when there is none; ``effort.spend``
    raises when the budget runs out.

    Uniform-cost search (cost 1 per appended node) guided by a consistent
    lower bound: every not-yet-appeared node and every node that is the
    destination of an unserved demand still needs at least one append,
    and one append adds exactly one node.

    With ``m`` nodes in local ids, a state is one int
    ``satisfied << (m + cb) | appeared << cb | current`` with
    ``cb = m.bit_length()``; bit ``x*m + u`` of ``satisfied`` is demand
    ``(u, x)``.  Appending ``x`` serves ``(appeared << x*m) & wanted[x]``
    minus what is already served, one shift and two masks.  Appending
    ``x`` changes only ``x``'s own term of the bound, and a child is
    generated only when ``x`` is new or gains a demand (so that term was
    1), hence the child's bound is the parent's minus 1, plus 1 when
    ``x`` still has unserved in-demands: ``f`` grows by that last term.
    """
    m = len(nodes)
    local = {v: i for i, v in enumerate(nodes)}
    cb = m.bit_length()
    sat_shift = m + cb  # where ``satisfied`` starts inside a key
    current_mask = (1 << cb) - 1
    all_nodes_mask = (1 << m) - 1

    # wanted[x]: the demands (u, x) into x, already at their key position.
    wanted = [0] * m
    sources_mask = 0
    destinations_mask = 0
    for u, v in demands:
        x = local[v]
        wanted[x] |= 1 << (sat_shift + x * m + local[u])
        sources_mask |= 1 << local[u]
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
        if seen[key][0] != g:
            continue
        unserved = full & ~key
        if not unserved:
            goal = key
            break
        effort.spend()
        if g >= max_flights:
            continue
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

    walk_local: list[int] = []
    key: int | None = goal
    while key is not None:
        walk_local.append(key & current_mask)
        key = seen[key][1]
    return [nodes[i] for i in reversed(walk_local)]


def _search_multihop(
    part: DemandGraph, bound: int, cap: int, effort: _Effort
) -> list[Flight] | None:
    nodes = sorted({v for demand in part.demands for v in demand})
    walk = _min_covering_walk(nodes, part.demands, effort, cap)
    return None if walk is None else [Flight(a, b) for a, b in zip(walk, walk[1:])]


def optimal_multihop(g: DemandGraph, limits: SearchLimits = SearchLimits()) -> PlannerResult:
    """Provably minimal multihop plan, solved per component.

    The search of each component looks only for walks shorter than its
    coordinator plan.  Components whose search exhausts the budget keep
    the coordinator plan and the result is flagged as not proven optimal.
    """
    return _search_below_coordinator(g, "multihop", "exact", limits, _search_multihop)


class _TwoHopSearch:
    """Depth-first search for a feasible 2-hop plan of exactly ``k`` flights."""

    def __init__(self, g: DemandGraph, effort: _Effort):
        self.effort = effort
        self.demands = sorted(g.demands)
        self.demand_index = {d: i for i, d in enumerate(self.demands)}
        self.full = (1 << len(self.demands)) - 1
        self.by_src: dict[int, list[tuple[int, int]]] = {}
        self.by_dst: dict[int, list[tuple[int, int]]] = {}
        for i, (u, v) in enumerate(self.demands):
            self.by_src.setdefault(u, []).append((i, v))
            self.by_dst.setdefault(v, []).append((i, u))
        self.universe = [
            (a, b) for a in range(g.n) for b in range(g.n) if a != b
        ]

    def find_plan(self, k: int) -> list[tuple[int, int]] | None:
        self.memo: dict[tuple[int, tuple[int, ...]], int] = {}
        self.prefix: list[tuple[int, int]] = []
        if self._dfs(0, k, 0, [0] * len(self.demands)):
            return list(self.prefix)
        return None

    def _distance_bound(self, satisfied: int, pending: list[int]) -> int:
        arrivals = 0
        departures = 0
        for i, (u, v) in enumerate(self.demands):
            if not (satisfied >> i) & 1:
                arrivals |= 1 << v
                if pending[i] == 0:
                    departures |= 1 << u
        return max(arrivals.bit_count(), departures.bit_count())

    def _dfs(self, depth: int, k: int, satisfied: int, pending: list[int]) -> bool:
        if satisfied == self.full:
            return True
        if depth + self._distance_bound(satisfied, pending) > k:
            return False
        key = (satisfied, tuple(pending))
        seen = self.memo.get(key)
        if seen is not None and seen <= depth:
            return False
        self.memo[key] = depth

        for a, b in self.universe:
            served = 0
            direct = self.demand_index.get((a, b))
            if direct is not None and not (satisfied >> direct) & 1:
                served |= 1 << direct
            for i, _u in self.by_dst.get(b, ()):
                if not ((satisfied | served) >> i) & 1 and (pending[i] >> a) & 1:
                    served |= 1 << i
            new_satisfied = satisfied | served
            new_pending: list[int] | None = None
            for i, v in self.by_src.get(a, ()):
                if v != b and not (new_satisfied >> i) & 1 and not (pending[i] >> b) & 1:
                    if new_pending is None:
                        new_pending = list(pending)
                    new_pending[i] |= 1 << b
            if not served and new_pending is None:
                continue  # neither serves nor opens a relay: dead weight
            if new_pending is None:
                new_pending = list(pending)
            while served:
                low = served & -served
                new_pending[low.bit_length() - 1] = 0
                served &= served - 1
            self.effort.spend()
            self.prefix.append((a, b))
            if self._dfs(depth + 1, k, new_satisfied, new_pending):
                return True
            self.prefix.pop()
        return False


def _search_twohop(
    part: DemandGraph, bound: int, cap: int, effort: _Effort
) -> list[Flight] | None:
    deepening = _TwoHopSearch(part, effort)
    for k in range(bound, cap + 1):
        found = deepening.find_plan(k)
        if found is not None:
            return [Flight(a, b) for a, b in found]
    return None


def optimal_twohop(g: DemandGraph, limits: SearchLimits = SearchLimits()) -> PlannerResult:
    """Provably minimal 2-hop plan via iterative deepening.

    Flight counts run from ``demand._flight_bound`` up to one below the
    coordinator plan's count; the first feasible count is optimal, and
    when none is, the coordinator plan is.  On budget exhaustion the
    coordinator plan is returned unproven.
    """
    return _search_below_coordinator(g, "twohop", "exact", limits, _search_twohop)


class OptimalityCertificate(NamedTuple):
    """Machine-checkable record that a result is verified and bound-consistent."""

    mode: str
    count: int
    lower_bound: int
    tight: bool
    valid: bool

    def to_json(self) -> str:
        return canonical_dumps(self._asdict())


def certify(g: DemandGraph, result: PlannerResult) -> OptimalityCertificate:
    """Re-verify a proven-optimal result and re-check it against the bound
    its solve proved against, ``demand._flight_bound``.

    An invalid certificate signals a solver bug: either the plan fails
    its own verifier or the claimed count undercuts the bound.
    """
    if not result.proven_optimal:
        raise ValueError("certificates are only issued for proven-optimal results")
    bound = _flight_bound(*weakly_connected_components(g))
    report = verify(result.mode, g, result.plan)
    valid = report.satisfied and result.count >= bound
    return OptimalityCertificate(
        mode=result.mode,
        count=result.count,
        lower_bound=bound,
        tight=result.count == bound,
        valid=valid,
    )
