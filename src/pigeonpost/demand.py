"""Demand graphs: the "who must talk to whom" input of every planner.

A demand graph is a directed, unweighted graph on dense node ids
``0..n-1``.  An edge ``(i, j)`` means one unit of information has to move
from node ``i`` to node ``j``.  Nodes with outgoing demand are *sources*,
nodes with incoming demand are *destinations*; a node may be both.

The JSON interchange format is ``{"n": <int>, "demands": [[src, dst], ...]}``.
Canonical serialization sorts the demand list lexicographically so that
identical graphs always produce byte-identical documents.  A parsed
document may have at most ``MAX_PARSED_NODES`` nodes.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .jsonutil import canonical_dumps


# 8x the largest benchmark graph (7,971 nodes).  The bounds, planners and
# verifiers work per demand, but ``gen`` and ``reduce`` build a graph per
# node, so the CLI refuses every graph it reads or builds above this cap.
MAX_PARSED_NODES = 65_536


class DemandGraphError(ValueError):
    """Raised for structurally invalid demand-graph input."""


class DemandGraphSizeError(DemandGraphError):
    """Raised when a parsed graph has more than ``MAX_PARSED_NODES`` nodes."""


def _check_node_count(n: int) -> None:
    if n < 0:
        raise DemandGraphError(f"node count must be non-negative, got {n}")


def _demand_error(n: int, src: int, dst: int) -> DemandGraphError:
    if src == dst:
        return DemandGraphError(f"self-demand ({src}, {dst}) is not allowed")
    return DemandGraphError(f"demand ({src}, {dst}) out of range for n={n}")


class _DemandGraphFields(NamedTuple):
    n: int
    demands: frozenset[tuple[int, int]]


class DemandGraph(_DemandGraphFields):
    """Directed unweighted demand graph on node ids ``[0, n)``."""

    __slots__ = ()

    def __new__(cls, n: int, demands: frozenset[tuple[int, int]]) -> DemandGraph:
        _check_node_count(n)
        for src, dst in demands:
            if src == dst or not (0 <= src < n and 0 <= dst < n):
                raise _demand_error(n, src, dst)
        return tuple.__new__(cls, (n, demands))

    @classmethod
    def _make(cls, iterable) -> DemandGraph:
        return cls(*iterable)

    @classmethod
    def from_pairs(cls, n: int, pairs) -> DemandGraph:
        """Build a validated graph from (src, dst) pairs, dropping duplicates.

        Each pair is checked once, here, so the demands skip the walk of
        ``__new__``.
        """
        _check_node_count(n)
        demands: set[tuple[int, int]] = set()
        for pair in pairs:
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise DemandGraphError(f"demand entry {pair!r} is not a pair")
            src, dst = pair
            # Exact type: bool is an int subclass, so JSON true would pass as node 1.
            if type(src) is not int or type(dst) is not int:
                raise DemandGraphError(f"demand endpoints must be integers: {pair!r}")
            if src == dst or not (0 <= src < n and 0 <= dst < n):
                raise _demand_error(n, src, dst)
            demands.add((src, dst))
        return tuple.__new__(cls, (n, frozenset(demands)))

    def sorted_demands(self) -> list[tuple[int, int]]:
        return sorted(self.demands)

    def to_json(self) -> str:
        return canonical_dumps(self.to_json_dict())

    def to_json_dict(self) -> dict:
        return {"n": self.n, "demands": self.sorted_demands()}


def parse_demand_graph(text: str) -> DemandGraph:
    """Parse and validate a demand graph from its JSON document."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int over 4,300 digits
        raise DemandGraphError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DemandGraphError("demand graph document must be a JSON object")
    if "n" not in doc or "demands" not in doc:
        raise DemandGraphError('demand graph document needs "n" and "demands"')
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise DemandGraphError('"n" must be an integer')
    if n > MAX_PARSED_NODES:
        raise DemandGraphSizeError(f'"n" = {n} exceeds the limit of {MAX_PARSED_NODES} nodes')
    demands = doc["demands"]
    if not isinstance(demands, list):
        raise DemandGraphError('"demands" must be a list of [src, dst] pairs')
    return DemandGraph.from_pairs(n, demands)


class ComponentPartition(NamedTuple):
    """Weakly connected components of the demand graph and their demands.

    Only nodes incident to at least one demand belong to a component.
    Components are ordered by their smallest member, which makes every
    downstream iteration deterministic.  ``demands[i]`` holds the demands
    inside ``components[i]``; every demand lies in exactly one component.
    """

    components: tuple[frozenset[int], ...]
    demands: tuple[frozenset[tuple[int, int]], ...]


def weakly_connected_components(g: DemandGraph) -> ComponentPartition:
    """Components of the undirected support of the demand set.

    One depth-first search labels every endpoint with its component, then
    one pass over the demands groups them by their source's label.
    """
    adjacency: dict[int, list[int]] = {}
    for src, dst in g.demands:
        adjacency.setdefault(src, []).append(dst)
        adjacency.setdefault(dst, []).append(src)

    label: dict[int, int] = {}
    components: list[frozenset[int]] = []
    # A component is first reached from its smallest member, so the
    # components come out ordered by it.
    for start in sorted(adjacency):
        if start in label:
            continue
        index = len(components)
        label[start] = index
        comp = [start]
        stack = [start]
        while stack:
            for other in adjacency[stack.pop()]:
                if other not in label:
                    label[other] = index
                    comp.append(other)
                    stack.append(other)
        components.append(frozenset(comp))

    grouped: list[list[tuple[int, int]]] = [[] for _ in components]
    for demand in g.demands:
        grouped[label[demand[0]]].append(demand)
    return ComponentPartition(
        components=tuple(components),
        demands=tuple(frozenset(demands) for demands in grouped),
    )


def _endpoint_bound(demands) -> int:
    """``max(|S|, |D|)`` of a demand set: every source releases a pigeon
    and every destination receives one."""
    return max(len({src for src, _ in demands}), len({dst for _, dst in demands}))


def _flight_bound(components, demands) -> int:
    """The one lower bound of all three regimes: the sum over the weakly
    connected components ``components[i]``, with demands ``demands[i]``, of
    ``max(m - 1, |S|, |D|)``.  A component's flights must connect its ``m``
    nodes, every source sends a pigeon and every destination receives one.
    That bounds multihop plans, so it bounds 2-hop plans (a relay ``u -> w
    -> v`` flies in ascending slots) and singlehop plans too.  The sum
    rests on components adding up, as the multihop solvers assume."""
    return sum(max(len(comp) - 1, _endpoint_bound(d)) for comp, d in zip(components, demands))


class PigeonLowerBound(NamedTuple):
    """Universal lower bound on the number of pigeons.

    Every source must release at least one pigeon and every destination
    must receive at least one, so ``max(|S|, |D|)`` pigeons are always
    required.  Applying the same argument per weakly connected component
    and summing gives ``component_total``, which is at least as strong
    because components are node-disjoint.
    """

    overall: int
    per_component: tuple[int, ...]
    component_total: int


def lower_bound(g: DemandGraph) -> PigeonLowerBound:
    """``max(|S|, |D|)`` globally and per weakly connected component."""
    per_component = tuple(map(_endpoint_bound, weakly_connected_components(g).demands))
    return PigeonLowerBound(
        overall=_endpoint_bound(g.demands),
        per_component=per_component,
        component_total=sum(per_component),
    )
