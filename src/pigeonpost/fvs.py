"""Directed feedback vertex sets (DFVS) of small digraphs, on int bitsets.

A DFVS is a node set whose removal leaves the digraph acyclic; τ is the
size of a smallest one.  A multihop component on ``m`` nodes needs
``m - 1 + τ`` flights (see ``exact``), so this module bounds τ from both
sides in polynomial time:

* ``greedy_dfvs`` picks, until what is left is acyclic, the node with
  the largest in-degree × out-degree, then drops every pick that the
  others make redundant: an upper bound.
* ``cycle_packing`` packs vertex-disjoint cycles, a shortest one at a
  time: a lower bound, since every DFVS holds a node of each.
* ``dfvs_walk`` turns a DFVS ``F`` into a covering walk of ``m + |F|``
  nodes: ``F``, a topological order of the other nodes, ``F`` again.

Both bounds first trim the nodes left with no in- or out-neighbour,
which lie on no cycle (the first of the reductions of Levy & Low, "A
contraction algorithm for finding small cycle cutsets", J. Algorithms 9,
1988).  A digraph is given by ``succ`` and ``pred``, one int mask per
node over local ids ``0..m-1`` (``digraph`` builds them); it has no
self-loops.  ``planners`` also orders the arcs of a 2-hop relay plan with
``greedy_dfvs`` and ``dfvs_walk``, on the digraph linking each relay's
pickup arc to its delivery arc.  Each bound calls
``spend()`` once per greedy pick, redundancy check and breadth-first
search, so the caller's budget bounds it.

A bitset operation costs ``O(N / 64)`` machine words on ``N`` ids, and
``_trim``, ``_nodes`` and ``dfvs_walk`` take one per set bit, so they are
quadratic in ``N``.  Pass only the ids that exist: ``planners`` numbers
the flown arcs of a relay plan ``0..k-1``, not all ``m * m`` arc ids.
"""

from __future__ import annotations

from collections.abc import Callable
from heapq import heappop, heappush


def digraph(n: int, arcs) -> tuple[list[int], list[int]]:
    """``succ`` and ``pred``, one mask per node, of the digraph ``arcs`` on ``0..n-1``."""
    succ, pred = [0] * n, [0] * n
    for u, v in arcs:
        succ[u] |= 1 << v
        pred[v] |= 1 << u
    return succ, pred


def _nodes(mask: int) -> list[int]:
    """The ids of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _trim(alive: int, succ: list[int], pred: list[int]) -> int:
    """``alive`` without, repeatedly, its nodes that have no successor or
    no predecessor inside it.  What is left is empty exactly when
    ``alive`` induces an acyclic digraph."""
    queue = alive
    while queue:
        low = queue & -queue
        queue ^= low
        v = low.bit_length() - 1
        if alive & low and not (succ[v] & alive and pred[v] & alive):
            alive ^= low
            queue |= (succ[v] | pred[v]) & alive
    return alive


def greedy_dfvs(succ: list[int], pred: list[int], spend: Callable[[], None]) -> int:
    """A minimal (not minimum) DFVS, as a mask."""
    everything = (1 << len(succ)) - 1
    alive = _trim(everything, succ, pred)
    picks = []
    while alive:
        spend()
        v = max(
            _nodes(alive),
            key=lambda v: ((succ[v] & alive).bit_count() * (pred[v] & alive).bit_count(), -v),
        )
        picks.append(v)
        alive = _trim(alive ^ 1 << v, succ, pred)
    dfvs = sum(1 << v for v in picks)
    for v in reversed(picks):
        spend()
        if not _trim(everything & ~dfvs | 1 << v, succ, pred):
            dfvs ^= 1 << v
    return dfvs


def _shortest_cycle(alive: int, succ: list[int], pred: list[int], spend: Callable[[], None]) -> int:
    """The nodes of a shortest cycle inside ``alive``, which has one: a
    breadth-first search from each node, stopped at the best length so far."""
    best_length, best = len(succ) + 1, 0
    for v in _nodes(alive):
        spend()
        start = 1 << v
        layers = [start]
        seen = start
        while len(layers) < best_length:
            reach = 0
            for u in _nodes(layers[-1]):
                reach |= succ[u]
            reach &= alive
            if reach & start:
                # Back from v through one predecessor per layer.
                best_length, best, node = len(layers), start, v
                for layer in reversed(layers[1:]):
                    node = _nodes(layer & pred[node])[0]
                    best |= 1 << node
                break
            frontier = reach & ~seen
            if not frontier:
                break
            seen |= frontier
            layers.append(frontier)
        if best_length == 2:
            break
    return best


def cycle_packing(succ: list[int], pred: list[int], spend: Callable[[], None]) -> list[int]:
    """Vertex-disjoint cycles, as node masks, found a shortest one at a time."""
    alive = _trim((1 << len(succ)) - 1, succ, pred)
    cycles = []
    while alive:
        cycle = _shortest_cycle(alive, succ, pred, spend)
        cycles.append(cycle)
        alive = _trim(alive & ~cycle, succ, pred)
    return cycles


def dfvs_walk(succ: list[int], pred: list[int], dfvs: int) -> list[int]:
    """``dfvs`` ascending, the other nodes in topological order (smallest
    ready id first), then ``dfvs`` again.

    Every arc ``(u, v)`` has ``u`` strictly before some occurrence of
    ``v``: ``v`` in ``dfvs`` occurs last, ``u`` in ``dfvs`` occurs first,
    and between other nodes the order is topological.  Kahn's algorithm
    with a heap of ready ids visits each node and arc once, where a rescan
    of the nodes left for the next ready one is quadratic in the nodes."""
    rest = (1 << len(succ)) - 1 & ~dfvs
    waiting = {v: (pred[v] & rest).bit_count() for v in _nodes(rest)}
    ready = [v for v, count in waiting.items() if not count]
    walk = _nodes(dfvs)
    while ready:
        u = heappop(ready)
        walk.append(u)
        for v in _nodes(succ[u] & rest):
            waiting[v] -= 1
            if not waiting[v]:
                heappush(ready, v)
    return walk + _nodes(dfvs)
