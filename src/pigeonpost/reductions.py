"""Hardness-instance generators and the small oracles that validate them.

Two constructions map classic NP-hard problems onto pigeon planning:

* 3-CNF satisfiability to 2-hop planning.  The demand graph has one node
  per clause, two per variable (positive and negated literal), one star
  node, and gadget arms that force a direct pigeon onto every
  clause-to-literal and literal-swap edge.  Gadget arm ``i`` of a forced
  edge ``(a, b)`` consists of nodes ``u[e,i,1..3]`` with demands
  ``(u1,u2), (u1,u3), (u2,u3), (u2,a), (u3,a), (u3,b)``.  The budget
  ``k`` is the flight count of the witness schedule: three chain hops
  per gadget arm and one direct flight per forced edge, plus one star
  flight per variable.  With n variables, m clauses and distinct
  literals in every clause it is ``12n^2 + 18nm + 27n + 39m``.
  Instances are deliberately too large to solve exactly; validation is
  structural, plus an executable schedule built from a satisfying
  assignment that must pass the 2-hop verifier.

* Vertex cover to multihop planning on the same node set: every
  undirected edge becomes a demand in both directions and the budget is
  ``k' = n + k - 1``.  These instances stay tiny, so the equivalence
  is testable end to end against a brute-force minimum vertex cover.

Node id layout for the 3-CNF construction: clauses ``0..m-1``, positive
literals ``m..m+n-1``, negated literals ``m+n..m+2n-1``, star ``m+2n``,
then three consecutive ids per gadget arm in forced-edge order.

``CnfFormula`` and ``UndirectedGraph`` check every field, types included,
in their constructors; ``UndirectedGraph`` shares ``DemandGraph``'s pair
check and document reader, and the parsers check only their input's shape.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .demand import (
    MAX_PARSED_NODES,
    DemandGraph,
    DemandGraphSizeError,
    _Checked,
    _checked_pairs,
    _iterate,
    _read_pair_document,
    weakly_connected_components,
)
from .flightplan import FlightPlan
from .jsonutil import canonical_dumps


class CnfError(ValueError):
    """Raised for malformed DIMACS input or non-3-CNF clauses."""


class ReductionError(ValueError):
    """Raised when a reduction's input precondition fails."""


class _CnfFormulaFields(NamedTuple):
    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]


class CnfFormula(_Checked, _CnfFormulaFields):
    """3-CNF formula; literals are signed 1-based variable indices, all ``int``.
    ``clauses`` may be any iterable of three-item tuples or lists."""

    __slots__ = ()

    def __new__(cls, num_vars: int, clauses) -> CnfFormula:
        # Exact type: bool is an int subclass, so True would pass as literal 1.
        if type(num_vars) is not int or num_vars < 0:
            raise CnfError(f"variable count must be a non-negative integer, got {num_vars!r}")
        clauses = tuple(_iterate(clauses, CnfError, "clauses"))
        for clause in clauses:
            if not isinstance(clause, (tuple, list)) or len(clause) != 3:
                raise CnfError(f"clause {clause!r} must have exactly three literals")
            for lit in clause:
                if type(lit) is not int:
                    raise CnfError(f"literal {lit!r} is not an integer")
                if lit == 0 or abs(lit) > num_vars:
                    raise CnfError(f"literal {lit} out of range")
        return tuple.__new__(cls, (num_vars, tuple(map(tuple, clauses))))

    def evaluate(self, assignment) -> bool:
        return all(
            any((lit > 0) == bool(assignment[abs(lit) - 1]) for lit in clause)
            for clause in self.clauses
        )


def parse_dimacs_cnf(text: str) -> CnfFormula:
    """Parse DIMACS cnf; clauses may span lines and end with 0."""
    num_vars = num_clauses = None
    tokens: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise CnfError("duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CnfError(f"malformed problem line: {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise CnfError(f"malformed problem line: {line!r}") from exc
            continue
        if num_vars is None:
            raise CnfError("clause data before problem line")
        try:
            tokens.extend(int(tok) for tok in line.split())
        except ValueError as exc:
            raise CnfError(f"malformed clause line: {line!r}") from exc
    if num_vars is None:
        raise CnfError("missing problem line")

    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for tok in tokens:
        if tok == 0:
            clauses.append(tuple(current))
            current = []
        else:
            current.append(tok)
    if current:
        raise CnfError("unterminated clause (missing trailing 0)")
    if len(clauses) != num_clauses:
        raise CnfError(
            f"header announces {num_clauses} clauses, found {len(clauses)}"
        )
    return CnfFormula(num_vars, tuple(clauses))


class _UndirectedGraphFields(NamedTuple):
    n: int
    edges: frozenset[tuple[int, int]]


class UndirectedGraph(_Checked, _UndirectedGraphFields):
    """Simple undirected graph; edges stored as (min, max) pairs.  The
    constructor, its one check, runs ``demand._checked_pairs`` and normalises."""

    __slots__ = ()

    def __new__(cls, n: int, edges) -> UndirectedGraph:
        checked = _checked_pairs(n, edges, ReductionError, "edge")
        return tuple.__new__(cls, (n, frozenset((u, v) if u < v else (v, u) for u, v in checked)))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> UndirectedGraph:
        """The constructor under another name."""
        return cls(n, pairs)

    def is_connected(self) -> bool:
        """True when all n nodes form a single component."""
        if self.n <= 1:
            return True
        components = weakly_connected_components(DemandGraph(self.n, self.edges)).components
        return len(components) == 1 and len(components[0]) == self.n


def parse_undirected_graph(text: str) -> UndirectedGraph:
    """Parse ``{"n": <int>, "edges": [[u, v], ...]}``.

    The vertex cover reduction keeps the node set, so ``n`` may be at most
    ``MAX_PARSED_NODES``, as for a demand graph document: both documents
    have one reader, ``demand._read_pair_document``.
    """
    return UndirectedGraph(*_read_pair_document(text, "edges", ReductionError, "graph"))


class ReductionOutput(NamedTuple):
    """Generated demand graph, decision budget, and node-role annotations."""

    kind: str
    graph: DemandGraph
    budget: int
    roles: tuple[dict, ...]
    forced_edges: tuple[tuple[int, int], ...] = ()
    meta: tuple[tuple[str, int], ...] = ()

    def to_json(self) -> str:
        return canonical_dumps(self.to_json_dict())

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "budget": self.budget,
            "graph": self.graph.to_json_dict(),
            "forced_edges": self.forced_edges,
            "roles": self.roles,
            "meta": dict(self.meta),
        }


ARMS_PER_EDGE = "arms_per_forced_edge"


def _literal_node(num_clauses: int, num_vars: int, literal: int) -> int:
    var = abs(literal) - 1
    offset = 0 if literal > 0 else num_vars
    return num_clauses + offset + var


def _arm_nodes(base: int, arms: int, edge_idx: int, arm: int) -> tuple[int, int, int]:
    """Nodes ``u1, u2, u3`` of gadget arm ``arm`` (1-based) of forced edge ``edge_idx``."""
    u1 = base + (edge_idx * arms + (arm - 1)) * 3
    return u1, u1 + 1, u1 + 2


def reduce_3sat_to_twohop(formula: CnfFormula) -> ReductionOutput:
    """Demand graph whose 2-hop budget question encodes satisfiability.

    Forced edges (clause to each of its literals, then both directions
    between complementary literals) each receive ``2n + 4`` gadget arms.
    Duplicate literals inside a clause collapse to one forced edge, so
    the forced-edge list can be shorter than ``2n + 3m``.  The budget is
    the flight count of ``satisfying_assignment_plan``,
    ``(3 * arms + 1) * len(forced_edges) + n``.  Forced edges of different
    clauses or variables never coincide.  A graph of more than
    ``MAX_PARSED_NODES`` nodes is refused with ``DemandGraphSizeError``
    once the clause edges are listed, before anything per variable is
    built.
    """
    n = formula.num_vars
    m = len(formula.clauses)
    star = m + 2 * n
    arms = 2 * n + 4
    base = star + 1
    forced = [
        (clause_idx, _literal_node(m, n, literal))
        for clause_idx, clause in enumerate(formula.clauses)
        for literal in dict.fromkeys(clause)
    ]
    total_nodes = base + (len(forced) + 2 * n) * arms * 3
    if total_nodes > MAX_PARSED_NODES:
        raise DemandGraphSizeError(
            f"the reduction of {n} variables and {m} clauses has {total_nodes} nodes, "
            f"over the limit of {MAX_PARSED_NODES}"
        )

    for var in range(1, n + 1):
        positive = _literal_node(m, n, var)
        negative = _literal_node(m, n, -var)
        forced += [(positive, negative), (negative, positive)]
    # Every clause and literal node also sends to the star.
    demands = forced + [(node, star) for node in range(star)]

    roles: list[dict] = []
    for clause_idx in range(m):
        roles.append({"node": clause_idx, "role": "clause", "clause": clause_idx + 1})
    for var in range(1, n + 1):
        roles.append(
            {"node": _literal_node(m, n, var), "role": "literal", "var": var, "positive": True}
        )
    for var in range(1, n + 1):
        roles.append(
            {"node": _literal_node(m, n, -var), "role": "literal", "var": var, "positive": False}
        )
    roles.append({"node": star, "role": "star"})

    for edge_idx, (a, b) in enumerate(forced):
        for arm in range(1, arms + 1):
            u1, u2, u3 = _arm_nodes(base, arms, edge_idx, arm)
            demands.extend(
                [(u1, u2), (u1, u3), (u2, u3), (u2, a), (u3, a), (u3, b)]
            )
            for pos, node in enumerate((u1, u2, u3), start=1):
                roles.append(
                    {
                        "node": node,
                        "role": "gadget",
                        "edge": [a, b],
                        "arm": arm,
                        "pos": pos,
                    }
                )

    # The roles were appended in node order.
    return ReductionOutput(
        kind="3sat-to-twohop",
        graph=DemandGraph(total_nodes, demands),
        budget=(3 * arms + 1) * len(forced) + n,
        roles=tuple(roles),
        forced_edges=tuple(forced),
        meta=(
            ("num_vars", n),
            ("num_clauses", m),
            (ARMS_PER_EDGE, arms),
            ("star", star),
        ),
    )


def satisfying_assignment_plan(
    formula: CnfFormula, reduction: ReductionOutput, assignment
) -> FlightPlan:
    """Schedule certifying a satisfying assignment, ready for verification.

    Pigeon placement: one per gadget-arm chain hop (arm head to middle,
    middle to tail, tail to the forced edge's source), one per forced
    edge, and one from each true literal (or its negation when false) to
    the star, ``reduction.budget`` flights in all.  The gadget chains fly
    first, then the forced edges in their order (clause edges, then
    literal swaps), then the star flights, so every relay pickup
    precedes its delivery.
    """
    if reduction.kind != "3sat-to-twohop":
        raise ReductionError("witness plans exist only for the 3-CNF reduction")
    n = formula.num_vars
    m = len(formula.clauses)
    if len(assignment) != n:
        raise ReductionError(f"assignment must cover {n} variables")
    meta = dict(reduction.meta)
    star = meta["star"]
    arms = meta[ARMS_PER_EDGE]
    base = star + 1

    flights: list[tuple[int, int]] = []
    for hop in range(3):
        for edge_idx, (a, _b) in enumerate(reduction.forced_edges):
            for arm in range(1, arms + 1):
                chain = (*_arm_nodes(base, arms, edge_idx, arm), a)
                flights.append((chain[hop], chain[hop + 1]))
    flights += reduction.forced_edges
    for var in range(1, n + 1):
        chosen = var if assignment[var - 1] else -var
        flights.append((_literal_node(m, n, chosen), star))
    return FlightPlan(flights)


def reduce_vertex_cover_to_multihop(g: UndirectedGraph, k: int) -> ReductionOutput:
    """Bidirectional demands on the same node set; budget ``n + k - 1``."""
    if not g.edges:
        raise ReductionError("vertex cover reduction needs at least one edge")
    if not g.is_connected():
        raise ReductionError("vertex cover reduction needs a connected graph")
    demands: set[tuple[int, int]] = set()
    for u, v in g.edges:
        demands.add((u, v))
        demands.add((v, u))
    roles = tuple({"node": v, "role": "original"} for v in range(g.n))
    return ReductionOutput(
        kind="vc-to-multihop",
        graph=DemandGraph(g.n, demands),
        budget=g.n + k - 1,
        roles=roles,
        meta=(("cover_budget", k),),
    )


class SatResult(NamedTuple):
    satisfiable: bool
    witness: tuple[bool, ...] | None


def sat_bruteforce(formula: CnfFormula, max_vars: int = 20) -> SatResult:
    """Exhaustive satisfiability check; first witness in lexicographic order."""
    if formula.num_vars > max_vars:
        raise ValueError(f"{formula.num_vars} variables exceed limit {max_vars}")
    n = formula.num_vars
    for bits in range(1 << n):
        assignment = tuple(bool((bits >> i) & 1) for i in range(n))
        if formula.evaluate(assignment):
            return SatResult(True, assignment)
    return SatResult(False, None)


def min_vertex_cover_bruteforce(g: UndirectedGraph, max_nodes: int = 16) -> int:
    """Minimum cover size over all node subsets.  The node set covers
    every edge, so only the smaller subsets are searched."""
    if g.n > max_nodes:
        raise ValueError(f"{g.n} nodes exceed limit {max_nodes}")
    edges = sorted(g.edges)
    for k in range(g.n):
        for subset in combinations(range(g.n), k):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return k
    return g.n
