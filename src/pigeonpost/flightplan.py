"""Flight plans and the three delivery verifiers.

A pigeon is bred at its *home* node and shipped to a *remote* node; when
released it flies straight home.  A flight plan is a totally ordered
sequence of such flights: the position of a flight in the sequence is its
time slot, and exactly one pigeon flies per slot.  Two flights with the
same endpoints at different slots are legal (parallel pigeons).

Verification answers, per demand, whether the plan delivers it under a
given routing regime:

* ``singlehop`` - a single direct flight per demand,
* ``twohop``    - direct, or one relay ``i -> w -> j`` with the pickup
  flight strictly before the delivery flight,
* ``multihop``  - a chain of flights with strictly ascending slots.

Verifiers never raise on unsatisfied demand; they report it, so planner
output can be debugged demand by demand.  ``FlightPlan`` is the plan's
one check: it builds each ``Flight`` from a ``(remote, home)`` pair.
"""

from __future__ import annotations

from itertools import starmap
from typing import NamedTuple

from .demand import DemandGraph, _Checked, _iterate, _load_json
from .jsonutil import canonical_dumps


class FlightPlanError(ValueError):
    """Raised for structurally invalid flights or plan documents."""


class _FlightFields(NamedTuple):
    remote: int
    home: int


class Flight(_Checked, _FlightFields):
    """One pigeon: released at ``remote``, landing at its ``home`` node.

    The endpoints are distinct, non-negative and exactly ``int``; the
    constructor is the one check.  Flights order by ``(remote, home)``.
    """

    __slots__ = ()

    def __new__(cls, remote: int, home: int) -> Flight:
        self = tuple.__new__(cls, (remote, home))
        # Exact type: bool is an int subclass, so JSON true would pass as node 1.
        if type(remote) is not int or type(home) is not int:
            raise FlightPlanError(f"flight endpoints must be integers: {self}")
        if remote == home:
            raise FlightPlanError(f"flight cannot start at its home node {home}")
        if remote < 0 or home < 0:
            raise FlightPlanError(f"flight endpoints must be non-negative: {self}")
        return self


class _FlightPlanFields(NamedTuple):
    flights: tuple[Flight, ...]


class FlightPlan(_Checked, _FlightPlanFields):
    """Ordered flight sequence; index in ``flights`` is the time slot.
    The constructor, its one check, takes any iterable of ``Flight``s or
    ``(remote, home)`` pairs and refuses anything else."""

    __slots__ = ()

    def __new__(cls, flights=()) -> FlightPlan:
        flights = list(_iterate(flights, FlightPlanError, "flights"))
        # Shapes in bulk, at C speed; the loop only names the entry it refuses.
        if not ({*map(type, flights)} <= {tuple, list, Flight} and {*map(len, flights)} <= {2}):
            for flight in flights:
                if not isinstance(flight, (tuple, list)) or len(flight) != 2:
                    raise FlightPlanError(f"flight entry {flight!r} is not a (remote, home) pair")
        return tuple.__new__(cls, (tuple(starmap(Flight, flights)),))

    @classmethod
    def from_pairs(cls, pairs) -> FlightPlan:
        """The constructor under another name."""
        return cls(pairs)

    @property
    def count(self) -> int:
        return len(self.flights)

    def max_node(self) -> int:
        return max((max(f.remote, f.home) for f in self.flights), default=-1)

    def to_json(self) -> str:
        return canonical_dumps(self.to_json_dict())

    def to_json_dict(self) -> dict:
        return {
            "flights": [{"remote": f.remote, "home": f.home} for f in self.flights]
        }


def parse_flight_plan(text: str) -> FlightPlan:
    """Parse a plan from ``{"flights": [{"remote": r, "home": h}, ...]}``."""
    doc = _load_json(text, FlightPlanError)
    if not isinstance(doc, dict) or not isinstance(doc.get("flights"), list):
        raise FlightPlanError('plan document needs a "flights" array')
    pairs = []
    for entry in doc["flights"]:
        if not isinstance(entry, dict) or "remote" not in entry or "home" not in entry:
            raise FlightPlanError(f"flight entry {entry!r} needs remote and home")
        pairs.append((entry["remote"], entry["home"]))
    return FlightPlan(pairs)


class DirectWitness(NamedTuple):
    slot: int

    def to_json_dict(self) -> dict:
        return {"kind": "direct", "slot": self.slot}


class RelayWitness(NamedTuple):
    via: int
    pickup_slot: int
    delivery_slot: int

    def to_json_dict(self) -> dict:
        return {
            "kind": "relay",
            "via": self.via,
            "pickup_slot": self.pickup_slot,
            "delivery_slot": self.delivery_slot,
        }


class PathWitness(NamedTuple):
    """Chained flights at strictly ascending slots, head-to-tail."""

    slots: tuple[int, ...]
    nodes: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"kind": "path", "slots": self.slots, "nodes": self.nodes}


Witness = DirectWitness | RelayWitness | PathWitness


class VerificationReport(NamedTuple):
    """Per-demand delivery witnesses (or ``None``) for one regime."""

    mode: str
    pigeon_count: int
    witnesses: dict[tuple[int, int], Witness | None]

    @property
    def satisfied(self) -> bool:
        return all(w is not None for w in self.witnesses.values())

    def failures(self) -> list[tuple[int, int]]:
        return sorted(d for d, w in self.witnesses.items() if w is None)

    def to_json(self) -> str:
        return canonical_dumps(self.to_json_dict())

    def to_json_dict(self) -> dict:
        witnesses = self.witnesses
        # Pairs of ints sort about three times faster than the items.
        pairs = sorted(witnesses)
        demands = [
            {
                "src": src,
                "dst": dst,
                "served": witness is not None,
                "witness": None if witness is None else witness.to_json_dict(),
            }
            for (src, dst), witness in zip(pairs, map(witnesses.__getitem__, pairs))
        ]
        return {
            "mode": self.mode,
            "pigeons": self.pigeon_count,
            "satisfied": self.satisfied,
            "demands": demands,
        }


def _check_endpoints(g: DemandGraph, plan: FlightPlan) -> None:
    if plan.max_node() >= g.n:
        raise FlightPlanError(
            f"plan references node {plan.max_node()} but graph has n={g.n}"
        )


def verify_singlehop(g: DemandGraph, plan: FlightPlan) -> VerificationReport:
    """Each demand needs its own direct flight; earliest slot is the witness."""
    _check_endpoints(g, plan)
    first_slot: dict[tuple[int, int], int] = {}
    for slot, flight in enumerate(plan.flights):
        first_slot.setdefault((flight.remote, flight.home), slot)
    witnesses: dict[tuple[int, int], Witness | None] = {}
    for demand in g.demands:
        slot = first_slot.get(demand)
        witnesses[demand] = None if slot is None else DirectWitness(slot)
    return VerificationReport("singlehop", plan.count, witnesses)


def verify_twohop(g: DemandGraph, plan: FlightPlan) -> VerificationReport:
    """Direct flight, or pickup ``(i, w)`` strictly before delivery ``(w, j)``."""
    _check_endpoints(g, plan)
    first_slot: dict[tuple[int, int], int] = {}
    arrivals: dict[int, list[tuple[int, int]]] = {}  # dst -> [(slot, via)]
    for slot, flight in enumerate(plan.flights):
        first_slot.setdefault((flight.remote, flight.home), slot)
        arrivals.setdefault(flight.home, []).append((slot, flight.remote))

    witnesses: dict[tuple[int, int], Witness | None] = {}
    for src, dst in g.demands:
        direct = first_slot.get((src, dst))
        if direct is not None:
            witnesses[(src, dst)] = DirectWitness(direct)
            continue
        witness = None
        # Arrivals are in slot order, one flight per slot, so the first
        # relay found is the minimum (delivery, pickup, via).
        for delivery_slot, via in arrivals.get(dst, ()):
            pickup = first_slot.get((src, via))
            if pickup is not None and pickup < delivery_slot:
                witness = RelayWitness(via, pickup, delivery_slot)
                break
        witnesses[(src, dst)] = witness
    return VerificationReport("twohop", plan.count, witnesses)


def verify_multihop(g: DemandGraph, plan: FlightPlan) -> VerificationReport:
    """Time-respecting reachability: a forward sweep over the slots, then
    a backward one for the witnesses.

    Only the demands' sources are tracked as origins, bit ``i`` of a mask
    standing for the ``i``-th smallest.  ``carried[v]`` is the mask of
    origins whose information is available at ``v`` so far, at first a
    source's own bit and nothing for other nodes.  Information may wait
    at a node indefinitely, so each flight ORs its remote node's mask
    into its home node's, and ``delivered[slot]`` keeps the bits that
    this adds: the origins whose information first lands at the home
    node in that slot.

    A served demand's witness is the chain of first arrivals of its
    source's information, back from its destination.  The backward sweep
    records exactly the arrivals on those chains: ``needed[v]`` holds the
    origins whose first arrival at ``v`` a chain still needs, and the
    flight that delivers one needs it at its remote node in turn, at an
    earlier slot.  Memory is the masks plus one record per (node, origin)
    pair on a witness chain.
    """
    _check_endpoints(g, plan)
    index = {v: i for i, v in enumerate(sorted({src for src, _ in g.demands}))}
    carried = {v: 1 << i for v, i in index.items()}
    delivered: list[int] = []
    for remote, home in plan.flights:
        new = carried.get(remote, 0)
        if new:
            have = carried.get(home, 0)
            new &= ~have
            if new:
                carried[home] = have | new
        delivered.append(new)

    # A demand that is not served is never hit below, so it needs no test.
    needed: dict[int, int] = {}
    for src, dst in g.demands:
        needed[dst] = needed.get(dst, 0) | 1 << index[src]
    # (node, origin index) -> (slot, predecessor node) of the first arrival
    arrival: dict[tuple[int, int], tuple[int, int]] = {}
    for slot in range(len(delivered) - 1, -1, -1):
        new = delivered[slot]
        if not new:
            continue
        remote, home = plan.flights[slot]
        hits = new & needed.get(home, 0)
        if not hits:
            continue
        needed[home] ^= hits
        # A chain ends at its source.
        onward = hits & ~(1 << index[remote]) if remote in index else hits
        if onward:
            needed[remote] = needed.get(remote, 0) | onward
        while hits:
            origin = hits.bit_length() - 1
            arrival[(home, origin)] = (slot, remote)
            hits ^= 1 << origin

    witnesses: dict[tuple[int, int], Witness | None] = {}
    for src, dst in g.demands:
        origin = index[src]
        if (dst, origin) not in arrival:
            witnesses[(src, dst)] = None
            continue
        slots: list[int] = []
        nodes = [dst]
        node = dst
        while node != src:
            slot, predecessor = arrival[(node, origin)]
            slots.append(slot)
            nodes.append(predecessor)
            node = predecessor
        witnesses[(src, dst)] = PathWitness(
            slots=tuple(reversed(slots)), nodes=tuple(reversed(nodes))
        )
    return VerificationReport("multihop", plan.count, witnesses)


VERIFIERS = {
    "singlehop": verify_singlehop,
    "twohop": verify_twohop,
    "multihop": verify_multihop,
}


def verify(mode: str, g: DemandGraph, plan: FlightPlan) -> VerificationReport:
    try:
        verifier = VERIFIERS[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}") from None
    return verifier(g, plan)


class PlanStats(NamedTuple):
    pigeon_count: int
    breeding_counts: tuple[tuple[int, int], ...]  # (home node, pigeons bred)
    release_counts: tuple[tuple[int, int], ...]  # (remote node, pigeons released)

    def bred_at(self, node: int) -> int:
        return dict(self.breeding_counts).get(node, 0)

    def released_at(self, node: int) -> int:
        return dict(self.release_counts).get(node, 0)


def plan_stats(plan: FlightPlan) -> PlanStats:
    """Pigeon count plus per-node breeding and release tallies."""
    bred: dict[int, int] = {}
    released: dict[int, int] = {}
    for flight in plan.flights:
        bred[flight.home] = bred.get(flight.home, 0) + 1
        released[flight.remote] = released.get(flight.remote, 0) + 1
    return PlanStats(
        pigeon_count=plan.count,
        breeding_counts=tuple(sorted(bred.items())),
        release_counts=tuple(sorted(released.items())),
    )
