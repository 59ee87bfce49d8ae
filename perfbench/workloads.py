"""Workload definitions: fixed-seed inputs and the CLI ops that consume them.

Every workload is a list of ops run one at a time by a single client (a
closed loop).  A *pass* runs every op of the list once, in list order.

Solve workloads (``exact-multihop``, ``exact-twohop``, ``ilp-highs``) are
built from a fixed set of *base* instances.  The ``--seed`` permutes the
node labels of every base instance, so each seed feeds the program
different files while the optimum of every instance stays the one
recorded in ``reference.json``.  Every pass draws fresh labelings, so a
run averages over many labelings of each instance instead of repeating a
few.  ``cli-large`` picks, per formula size,
one of a fixed pool of planted-satisfiable 3-CNF formulas; its stdout
digests are recorded per pool entry.

Every solve op pins ``--budget``, ``--max-nodes`` and ``--max-demands`` so
that a change of the CLI defaults cannot change what a workload does.
The budget is an expansion budget (HiGHS gets it as ``node_limit``), never
a time budget, so which instances are proven optimal repeats exactly.
"""

from __future__ import annotations

import hashlib
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("exact-multihop", "exact-twohop", "ilp-highs", "cli-large")

# Pinned limits per workload: (--budget, --max-nodes, --max-demands).
LIMITS = {
    "exact-multihop": (8_000, 10, 90),
    "exact-twohop": (4_000, 10, 90),
    "ilp-highs": (20_000, 10, 90),
    "cli-large": (20_000, 10, 90),
}

# Node labelings per pass of every random base instance; pass k uses
# labelings 3k, 3k + 1 and 3k + 2, so no labeling repeats within a run.
# Relabelling moves the search order (HiGHS times on the 3- and 4-node ILP
# graphs swing up to fivefold with it), and a run that repeated a few
# labelings moved its percentiles with the seed.  The fixtures (demo,
# cycles, stars) run once per pass with their own labels.
LABELINGS_PER_PASS = 3
SMALL_NODES = 6  # graphs up to this size cycle through all n! labelings (see relabel)

# 3-CNF sizes (variables, clauses) of cli-large: about 0.7k, 2.8k and 8k nodes.
CNF_SIZES = ((5, 2), (8, 10), (10, 30))
CNF_POOL = 8


def import_program():
    """Import the CLI from this checkout's ``src``; exit non-zero when it is missing."""
    if not (SRC / "pigeonpost" / "cli.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'pigeonpost'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pigeonpost.cli

    if Path(pigeonpost.cli.__file__).resolve().parent != SRC / "pigeonpost":
        sys.exit(f"perfbench: imported pigeonpost from {pigeonpost.cli.__file__}, not {SRC}")
    return pigeonpost.cli


@dataclass(frozen=True)
class Instance:
    """One demand graph as the program sees it, plus what the gate needs."""

    key: str  # reference key of the base instance
    base_sha256: str  # digest of the base graph's canonical JSON
    graph: object  # the relabelled DemandGraph written to ``path``
    nodes: int
    component_bound: int  # sum of per-component max(|S|, |D|)
    path: Path


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``argv`` excludes the program name."""

    key: str
    argv: tuple[str, ...]
    kind: str  # "solve", "verify" or "other"
    instance: Instance | None = None
    mode: str | None = None
    algorithm: str | None = None
    digest: bool = False  # stdout must match the reference digest


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]  # every op of the passes built so far; samples index into it
    warmup: list[Op]
    in_process: bool
    meta: dict = field(default_factory=dict)
    build_pass: Callable[[int], list[Op]] | None = None  # None: every pass runs ``ops``
    passes: list[range] = field(default_factory=list)

    def pass_ops(self, k: int) -> range:
        """Indices into ``ops`` of pass ``k``; writes the pass's inputs when they are new."""
        if self.build_pass is None:
            return range(len(self.ops))
        while len(self.passes) <= k:
            new = self.build_pass(len(self.passes))
            self.passes.append(range(len(self.ops), len(self.ops) + len(new)))
            self.ops += new
        return self.passes[k]


# ---------------------------------------------------------------- generators


def _rng(*parts) -> random.Random:
    # String seeds hash with SHA-512, so they repeat across interpreters.
    return random.Random(":".join(str(p) for p in parts))


def _connected_demand_graph(rng: random.Random, n: int, p: float):
    from pigeonpost.demand import DemandGraph, weakly_connected_components

    while True:
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < p]
        g = DemandGraph.from_pairs(n, pairs)
        comps = weakly_connected_components(g).components
        if len(comps) == 1 and len(comps[0]) == n:
            return g


def _vertex_cover_graph(rng: random.Random, n: int):
    """Demand graph of the vertex-cover reduction of a random connected graph."""
    from pigeonpost.reductions import UndirectedGraph, reduce_vertex_cover_to_multihop

    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    edges |= {(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.25}
    return reduce_vertex_cover_to_multihop(UndirectedGraph.from_pairs(n, edges), 1).graph


def _random_set(prefix: str, sizes, per_size: int, probabilities):
    out = []
    for n in sizes:
        for i in range(per_size):
            p = probabilities[i % len(probabilities)]
            key = f"{prefix}-rand-n{n}-{i}"
            out.append((key, _connected_demand_graph(_rng("base", key), n, p)))
    return out


def base_instances(workload: str) -> list[tuple[str, str, object]]:
    """The fixed (mode, key, graph) list of a solve workload, in pass order."""
    from pigeonpost.instances import cycle_graph, demo_graph, star_graph

    probabilities = (0.2, 0.3, 0.4, 0.5)
    if workload == "exact-multihop":
        graphs = _random_set("mh", (7, 8, 9, 10), 6, probabilities)
        graphs += [
            (f"mh-vc-n{n}-{i}", _vertex_cover_graph(_rng("base", f"mh-vc-n{n}-{i}"), n))
            for n in (6, 7, 8, 9)
            for i in range(2)
        ]
        graphs += [(f"mh-cycle-n{n}", cycle_graph(n)) for n in (7, 8, 9, 10)]
        graphs += [(f"mh-star-n{n}", star_graph(n)) for n in (7, 8, 9, 10)]
        return [("multihop", key, g) for key, g in graphs]
    if workload == "exact-twohop":
        # Random 4-node graphs are proven in under 1 ms and put the median
        # on the edge between them and the budget-bound searches, so the
        # random graphs start at 5 nodes.  Dense 7-node graphs are out of
        # reach of the reference budget, so the 7-node graphs are the sparse
        # half of the probability range.
        graphs = _random_set("th", (5, 6), 8, probabilities)
        graphs += _random_set("th", (7,), 8, (0.2, 0.3))
        graphs += [("th-demo", demo_graph())]
        graphs += [(f"th-cycle-n{n}", cycle_graph(n)) for n in (4, 5, 6, 7)]
        graphs += [(f"th-star-n{n}", star_graph(n)) for n in (5, 6, 7)]
        return [("twohop", key, g) for key, g in graphs]
    if workload == "ilp-highs":
        # Random 2-hop graphs at 5 nodes (up to 12 s) and multihop graphs at
        # 5 nodes (about 17 s) are too slow for a pass, and random multihop
        # graphs at 4 nodes (0.2-1.8 s, depending on the labeling) make the
        # 90th percentile jump between seeds; the demo and star(5) carry the
        # larger 2-hop models, cycle(4) the larger multihop one.
        twohop = _random_set("ilp-th", (3, 4), 12, probabilities)
        twohop += [(f"ilp-th-cycle-n{n}", cycle_graph(n)) for n in (4, 5)]
        twohop += [("ilp-th-star-n5", star_graph(5)), ("ilp-th-demo", demo_graph())]
        multihop = _random_set("ilp-mh", (3,), 12, probabilities)
        multihop += [("ilp-mh-cycle-n4", cycle_graph(4))]
        return [("twohop", k, g) for k, g in twohop] + [("multihop", k, g) for k, g in multihop]
    raise ValueError(f"{workload} has no base instances")


@lru_cache(maxsize=None)
def _all_permutations(n: int, seed: int, key: str) -> list[tuple[int, ...]]:
    perms = list(permutations(range(n)))
    _rng("relabel", seed, key).shuffle(perms)
    return perms


def relabel(g, seed: int, key: str, labeling: int = 0):
    """The same demand graph with node ids permuted: labeling ``labeling`` of ``seed``.

    A graph of at most ``SMALL_NODES`` nodes runs through all its n!
    labelings, in an order the seed shuffles, before any repeats: HiGHS
    times on the 3- and 4-node ILP graphs double with the labeling, and
    drawing them at random made which slow ones a run met, and so the
    90th percentile of ``ilp-highs``, depend on the seed.  Larger graphs
    draw each labeling at random.
    """
    from pigeonpost.demand import DemandGraph

    if g.n <= SMALL_NODES:
        perms = _all_permutations(g.n, seed, key)
        perm = perms[labeling % len(perms)]
    else:
        perm = list(range(g.n))
        _rng("relabel", seed, key, labeling).shuffle(perm)
    return DemandGraph.from_pairs(g.n, [(perm[a], perm[b]) for a, b in g.demands])


def planted_formula(n: int, m: int, variant: int):
    """A 3-CNF formula with ``m`` clauses satisfied by a planted assignment."""
    from pigeonpost.reductions import CnfFormula

    rng = _rng("cnf", n, m, variant)
    assignment = tuple(rng.random() < 0.5 for _ in range(n))
    clauses = []
    while len(clauses) < m:
        clause = tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
        if any((lit > 0) == assignment[abs(lit) - 1] for lit in clause):
            clauses.append(clause)
    return CnfFormula(n, tuple(clauses)), assignment


def dimacs(formula) -> str:
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    lines += [" ".join(map(str, clause)) + " 0" for clause in formula.clauses]
    return "\n".join(lines) + "\n"


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_text(text: str) -> str:
    return sha256_bytes(text.encode())


# ----------------------------------------------------------------- builders


def limit_flags(workload: str) -> tuple[str, ...]:
    budget, max_nodes, max_demands = LIMITS[workload]
    return ("--budget", str(budget), "--max-nodes", str(max_nodes), "--max-demands", str(max_demands))


def _solve_workload(name: str, seed: int, workdir: Path, smoke: bool) -> Workload:
    from pigeonpost.demand import lower_bound

    algorithm = "ilp" if name == "ilp-highs" else "exact"
    bases = base_instances(name)
    if smoke:
        bases = sorted(bases, key=lambda b: (b[2].n, len(b[2].demands)))[:4]

    def build_pass(k: int) -> list[Op]:
        ops = []
        for labeling in range(k * LABELINGS_PER_PASS, (k + 1) * LABELINGS_PER_PASS):
            for mode, key, base in bases:
                fixture = not ("-rand-" in key or "-vc-" in key)
                if fixture and labeling % LABELINGS_PER_PASS:
                    continue
                graph = base if fixture else relabel(base, seed, key, labeling)
                path = workdir / f"p{k}-{len(ops):03d}-{key}.json"
                path.write_text(graph.to_json(), encoding="utf-8")
                instance = Instance(
                    key=key,
                    base_sha256=sha256_text(base.to_json()),
                    graph=graph,
                    nodes=graph.n,
                    component_bound=lower_bound(graph).component_total,
                    path=path,
                )
                argv = ("solve", str(path), "--mode", mode, "--algorithm", algorithm) + limit_flags(name)
                ops.append(Op(key, argv, "solve", instance, mode, algorithm))
        return ops

    workload = Workload(name, seed, [], [], in_process=True, build_pass=build_pass)
    first = [workload.ops[i] for i in workload.pass_ops(0)]
    # Warm-up: the cheapest op of each mode fills .pyc caches and, for ILP,
    # scipy's lazy import.
    for mode in ("twohop", "multihop"):
        same = [op for op in first if op.mode == mode]
        if same:
            workload.warmup.append(min(same, key=lambda op: (op.instance.nodes, len(op.instance.graph.demands))))
    return workload


def cnf_ops(n: int, m: int, variant: int, workdir: Path) -> list[Op]:
    """Ops on one pool formula: reduce, bounds, two solves, two verifies."""
    from pigeonpost.demand import lower_bound
    from pigeonpost.reductions import reduce_3sat_to_twohop, satisfying_assignment_plan

    tag = f"cnf-n{n}-m{m}-v{variant}"
    formula, assignment = planted_formula(n, m, variant)
    reduction = reduce_3sat_to_twohop(formula)
    graph = reduction.graph
    cnf_path = workdir / f"{tag}.cnf"
    graph_path = workdir / f"{tag}.json"
    plan_path = workdir / f"{tag}-witness.json"
    cnf_path.write_text(dimacs(formula), encoding="utf-8")
    graph_path.write_text(graph.to_json(), encoding="utf-8")
    plan = satisfying_assignment_plan(formula, reduction, assignment)
    plan_path.write_text(plan.to_json(), encoding="utf-8")
    instance = Instance(
        key=tag,
        base_sha256=sha256_text(graph.to_json()),
        graph=graph,
        nodes=graph.n,
        component_bound=lower_bound(graph).component_total,
        path=graph_path,
    )
    g, flags = str(graph_path), limit_flags("cli-large")
    return [
        Op(f"{tag}/reduce", ("reduce", "3sat-to-twohop", str(cnf_path)), "other", instance, digest=True),
        Op(f"{tag}/bounds", ("bounds", g), "other", instance, digest=True),
        Op(f"{tag}/solve-coordinator", ("solve", g, "--mode", "twohop", "--algorithm", "coordinator") + flags,
           "solve", instance, "twohop", "coordinator", digest=True),
        Op(f"{tag}/solve-cycle", ("solve", g, "--mode", "multihop", "--algorithm", "cycle") + flags,
           "solve", instance, "multihop", "cycle", digest=True),
        Op(f"{tag}/verify-twohop", ("verify", g, str(plan_path), "--mode", "twohop"), "verify", instance,
           "twohop", digest=True),
        Op(f"{tag}/verify-multihop", ("verify", g, str(plan_path), "--mode", "multihop"), "verify", instance,
           "multihop", digest=True),
    ]


def demo_ops(workdir: Path) -> list[Op]:
    """The small ops: ``gen`` fixtures, and ``bounds`` and ``export-lp`` of the demo.

    With these, a pass holds 24 ops, so its 90th percentile falls inside
    one op's samples instead of on the edge between two ops.
    """
    from pigeonpost.instances import demo_graph

    demo_path = workdir / "demo.json"
    demo_path.write_text(demo_graph().to_json(), encoding="utf-8")
    demo = str(demo_path)
    return [
        Op("demo/gen", ("gen", "demo"), "other", digest=True),
        Op("demo/gen-cycle", ("gen", "cycle", "--n", "8"), "other", digest=True),
        Op("demo/gen-star", ("gen", "star", "--n", "8"), "other", digest=True),
        Op("demo/bounds", ("bounds", demo), "other", digest=True),
        Op("demo/export-lp", ("export-lp", demo, "--mode", "multihop"), "other", digest=True),
        Op("demo/export-lp-twohop", ("export-lp", demo, "--mode", "twohop"), "other", digest=True),
    ]


def _cli_large(seed: int, workdir: Path, smoke: bool) -> Workload:
    rng = _rng("pick", seed)
    variants = {f"{n}x{m}": rng.randrange(CNF_POOL) for n, m in CNF_SIZES}
    ops = []
    for n, m in CNF_SIZES[:1] if smoke else CNF_SIZES:
        ops += cnf_ops(n, m, variants[f"{n}x{m}"], workdir)
    ops += demo_ops(workdir)
    warmup = [op for op in ops if op.key == "demo/gen"]
    return Workload("cli-large", seed, ops, warmup, in_process=False, meta={"cnf_variants": variants})


def build(name: str, seed: int, workdir: Path, smoke: bool = False) -> Workload:
    """Generate the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "cli-large":
        return _cli_large(seed, workdir, smoke)
    return _solve_workload(name, seed, workdir, smoke)
