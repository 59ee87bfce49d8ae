"""Command-line front end with stable JSON output.

Exit codes: 0 success, 1 verification found unsatisfied demands, 2 bad
usage, an instance outside the solver limits (``solve --algorithm
exact|ilp`` and ``export-lp``), a graph over
``MAX_PARSED_NODES`` nodes (parsed, reduced or generated) or a ``gen
random`` graph expected to have over ``2 * MAX_PARSED_NODES`` demands,
3 unparseable input, 4 budget exhausted under ``--strict``.

``main`` builds its argument parser once per process, on its first call,
and reuses it for every later call; ``build_parser`` returns a fresh one.

Both process entry points, ``python -m pigeonpost.cli`` and the
``pigeonpost`` console script, run ``entry_point``, which pauses the cyclic
garbage collector: the process exits after one command, and the collector
would only walk the parsed and emitted documents again and again.
``main`` leaves the collector alone.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib.util
import sys
from typing import TYPE_CHECKING, NoReturn

# Every module but demand and jsonutil is imported inside the commands that
# use it, so the other commands do not pay for compiling and loading it:
# bounds and gen load neither flightplan nor planners, and verify does not
# load planners.  The errors of such a module are turned into exit codes
# where it is imported.
from .demand import (
    MAX_PARSED_NODES,
    DemandGraphError,
    DemandGraphSizeError,
    lower_bound,
    parse_demand_graph,
)
from .jsonutil import canonical_dumps

if TYPE_CHECKING:
    from .planners import SearchLimits

# ``gen random`` draws one number per ordered node pair and keeps every
# demand; it refuses a graph expected to have more demands than the
# largest 3-CNF reduction under ``MAX_PARSED_NODES`` (about two per node).
_MAX_RANDOM_DEMANDS = 2 * MAX_PARSED_NODES

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4

# Which algorithms can honor which routing regime.  The cycle plan only
# verifies under multihop; coordinator plans verify under both relayed
# regimes.
VALID_ALGORITHMS = {
    "singlehop": ("direct",),
    "twohop": ("coordinator", "exact", "ilp"),
    "multihop": ("coordinator", "cycle", "exact", "ilp"),
}


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _limits(args: argparse.Namespace) -> SearchLimits:
    """``SearchLimits`` from the limit flags that were given."""
    from .planners import SearchLimits

    flags = {
        "max_nodes": args.max_nodes,
        "max_demands": args.max_demands,
        "expansion_budget": args.budget,
        "time_budget": args.time_budget,
    }
    return SearchLimits(**{name: value for name, value in flags.items() if value is not None})


def _optimal_solver(args: argparse.Namespace):
    if args.algorithm == "exact":
        from .exact import optimal_multihop, optimal_twohop

        return optimal_twohop if args.mode == "twohop" else optimal_multihop
    from .ilp import optimal_multihop_ilp, optimal_twohop_ilp

    return optimal_twohop_ilp if args.mode == "twohop" else optimal_multihop_ilp


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.algorithm not in VALID_ALGORITHMS[args.mode]:
        print(
            f"error: algorithm {args.algorithm!r} cannot produce {args.mode} plans",
            file=sys.stderr,
        )
        return EXIT_USAGE
    from .planners import SearchLimitError, plan_coordinator, plan_cycle, plan_singlehop

    graph = parse_demand_graph(_read(args.graph))
    if args.algorithm == "direct":
        result = plan_singlehop(graph)
    elif args.algorithm == "coordinator":
        result = plan_coordinator(graph)
    elif args.algorithm == "cycle":
        result = plan_cycle(graph)
    else:
        try:
            limits = _limits(args)
        except ValueError as exc:
            print(f"error: {exc} (check --budget, --max-nodes, --max-demands, "
                  "--time-budget)", file=sys.stderr)
            return EXIT_USAGE
        if args.algorithm == "ilp" and importlib.util.find_spec("scipy") is None:
            print("error: --algorithm ilp needs scipy; install the solver extra "
                  "(pip install 'pigeonpost[solver]')", file=sys.stderr)
            return EXIT_USAGE
        try:
            result = _optimal_solver(args)(graph, limits)
        except SearchLimitError as exc:
            print(f"error: {exc} (raise --max-nodes/--max-demands?)", file=sys.stderr)
            return EXIT_USAGE
    if result.mode != args.mode:
        # A plan valid under a stricter regime is valid here as well.
        result = result._replace(mode=args.mode)
    _write(args.output, result.to_json())
    if args.strict and args.algorithm in ("exact", "ilp") and not result.proven_optimal:
        print("error: budget exhausted before optimality was proven", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .flightplan import FlightPlanError, parse_flight_plan, verify

    graph = parse_demand_graph(_read(args.graph))
    try:
        plan = parse_flight_plan(_read(args.plan))
        report = verify(args.mode, graph, plan)
    except FlightPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _write(args.output, report.to_json())
    return EXIT_OK if report.satisfied else EXIT_UNSATISFIED


def _cmd_bounds(args: argparse.Namespace) -> int:
    graph = parse_demand_graph(_read(args.graph))
    _write(args.output, canonical_dumps(lower_bound(graph)._asdict()))
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    from .reductions import (
        CnfError,
        ReductionError,
        parse_dimacs_cnf,
        parse_undirected_graph,
        reduce_3sat_to_twohop,
        reduce_vertex_cover_to_multihop,
    )

    try:
        if args.kind == "3sat-to-twohop":
            formula = parse_dimacs_cnf(_read(args.input))
            output = reduce_3sat_to_twohop(formula)
        else:
            if args.k is None or args.k < 0:
                print("error: vc-to-multihop needs --k >= 0", file=sys.stderr)
                return EXIT_USAGE
            graph = parse_undirected_graph(_read(args.input))
            output = reduce_vertex_cover_to_multihop(graph, args.k)
    except (CnfError, ReductionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _write(args.output, output.to_json())
    return EXIT_OK


def _cmd_export_lp(args: argparse.Namespace) -> int:
    from .ilp import ModelError, build_multihop_model, build_twohop_model, export_lp
    from .planners import SearchLimitError, SearchLimits, _checked_parts

    graph = parse_demand_graph(_read(args.graph))
    builder = build_twohop_model if args.mode == "twohop" else build_multihop_model
    try:
        # The size limits of ``solve --algorithm ilp``: a model has about n^4 variables.
        _checked_parts(graph, args.mode, SearchLimits())
        model = builder(graph)
    except (ModelError, SearchLimitError) as exc:  # a multihop model covers one component
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write(args.output, export_lp(model))
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    from .instances import cycle_graph, demo_graph, random_graph, star_graph

    if args.kind != "demo" and args.n > MAX_PARSED_NODES:
        print(f"error: --n {args.n} exceeds the limit of {MAX_PARSED_NODES} nodes",
              file=sys.stderr)
        return EXIT_USAGE
    expected = args.n * (args.n - 1) * args.p  # demands of a random graph
    if args.kind == "random" and expected > _MAX_RANDOM_DEMANDS:
        print(f"error: --n {args.n} --p {args.p} expects {expected:.0f} demands, "
              f"over the limit of {_MAX_RANDOM_DEMANDS}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.kind == "demo":
            graph = demo_graph()
        elif args.kind == "cycle":
            graph = cycle_graph(args.n)
        elif args.kind == "star":
            graph = star_graph(args.n)
        else:
            graph = random_graph(args.n, args.p, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write(args.output, graph.to_json())
    return EXIT_OK


def _add_limit_flags(parser: argparse.ArgumentParser) -> None:
    # An omitted flag reads None and keeps the SearchLimits default.
    parser.add_argument("--max-nodes", type=int)
    parser.add_argument("--max-demands", type=int)
    parser.add_argument("--budget", type=int,
                        help="node-expansion budget for exact searches; "
                             "under --algorithm ilp also HiGHS's node limit")
    parser.add_argument("--time-budget", type=float, metavar="SECONDS",
                        help="wall-clock limit of one exact or ilp solve (default 60; "
                             "inf for none)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pigeonpost",
        description="Plan, verify, and exactly solve pigeon-post networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="plan flights for a demand graph")
    solve.add_argument("graph", help="demand graph JSON file, or - for stdin")
    solve.add_argument("--mode", required=True, choices=("singlehop", "twohop", "multihop"))
    solve.add_argument(
        "--algorithm", required=True,
        choices=("direct", "coordinator", "cycle", "exact", "ilp"),
    )
    solve.add_argument("--output", "-o", default="-")
    solve.add_argument("--strict", action="store_true",
                       help="exit 4 when optimality is not proven")
    _add_limit_flags(solve)
    solve.set_defaults(func=_cmd_solve)

    verify_cmd = sub.add_parser("verify", help="check a plan against a demand graph")
    verify_cmd.add_argument("graph")
    verify_cmd.add_argument("plan")
    verify_cmd.add_argument("--mode", required=True,
                            choices=("singlehop", "twohop", "multihop"))
    verify_cmd.add_argument("--output", "-o", default="-")
    verify_cmd.set_defaults(func=_cmd_verify)

    bounds = sub.add_parser("bounds", help="pigeon lower bounds for a demand graph")
    bounds.add_argument("graph")
    bounds.add_argument("--output", "-o", default="-")
    bounds.set_defaults(func=_cmd_bounds)

    reduce_cmd = sub.add_parser("reduce", help="generate a hardness instance")
    reduce_cmd.add_argument("kind", choices=("3sat-to-twohop", "vc-to-multihop"))
    reduce_cmd.add_argument("input", help="DIMACS cnf or undirected graph JSON")
    reduce_cmd.add_argument("--k", type=int, default=None,
                            help="vertex cover budget (vc-to-multihop)")
    reduce_cmd.add_argument("--output", "-o", default="-")
    reduce_cmd.set_defaults(func=_cmd_reduce)

    export = sub.add_parser("export-lp", help="write a 0/1 model in LP format")
    export.add_argument("graph")
    export.add_argument("--mode", required=True, choices=("twohop", "multihop"))
    export.add_argument("--output", "-o", default="-")
    export.set_defaults(func=_cmd_export_lp)

    gen = sub.add_parser("gen", help="generate demand-graph fixtures")
    gen.add_argument("kind", choices=("demo", "cycle", "star", "random"))
    gen.add_argument("--n", type=int, default=6)
    gen.add_argument("--p", type=float, default=0.3)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", "-o", default="-")
    gen.set_defaults(func=_cmd_gen)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # argparse reads the streams and the terminal width when it prints, not
    # when it is built, and no command changes the parser, so one serves
    # every call.
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except DemandGraphSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DemandGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry_point() -> NoReturn:
    """Run one command from ``sys.argv`` with the cyclic GC paused, then exit."""
    gc.disable()
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
