"""Which pigeonpost modules a fresh interpreter loads, and the lazy package names.

The CLI imports every module but ``demand`` and ``jsonutil`` inside the
commands that use it, and ``pigeonpost`` resolves its public
names on first access; each check runs in a new interpreter so modules
loaded by other tests cannot hide an eager import.
"""

import json

import pytest

from pigeonpost.instances import cycle_graph, demo_graph
from pigeonpost.planners import plan_coordinator

from conftest import fresh_python

# Runs pigeonpost.cli.main on argv, then prints its exit code and the
# pigeonpost, scipy and numpy modules loaded.
RUN_CLI = """
import contextlib, io, json, sys
from pigeonpost.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
packages = ("pigeonpost", "scipy", "numpy")
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] in packages)]))
"""

SOLVER_MODULES = {"pigeonpost.exact", "pigeonpost.ilp", "pigeonpost.reductions"}

# pigeonpost.__all__: 55 functions, classes and exceptions, plus the 8
# submodules.
PUBLIC_NAMES = {
    "Assignment", "BinaryModel", "CnfError", "CnfFormula",
    "ComponentPartition", "DemandGraph", "DemandGraphError", "Flight",
    "FlightPlan", "FlightPlanError", "ModelError", "OptimalityCertificate",
    "PigeonLowerBound", "PlanStats", "PlannerResult", "ReductionError", "ReductionOutput",
    "SatResult", "SearchLimitError", "SearchLimits", "UndirectedGraph",
    "VerificationReport", "build_multihop_model",
    "build_twohop_model", "certify", "cycle_graph", "demo_graph",
    "export_lp", "extract_plan", "lower_bound", "min_vertex_cover_bruteforce",
    "optimal_multihop", "optimal_multihop_ilp", "optimal_twohop", "optimal_twohop_ilp",
    "parse_demand_graph", "parse_dimacs_cnf", "parse_flight_plan",
    "parse_undirected_graph", "plan_coordinator", "plan_cycle", "plan_singlehop",
    "plan_stats", "random_graph", "reduce_3sat_to_twohop",
    "reduce_vertex_cover_to_multihop", "sat_bruteforce", "satisfying_assignment_plan",
    "solve_binary_model", "star_graph", "verify", "verify_multihop", "verify_singlehop",
    "verify_twohop", "weakly_connected_components",
}
SUBMODULES = {
    "demand", "exact", "flightplan", "ilp", "instances", "jsonutil", "planners", "reductions",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    graph = root / "demo.json"
    graph.write_text(demo_graph().to_json())
    plan = root / "plan.json"
    plan.write_text(plan_coordinator(demo_graph()).plan.to_json())
    # Its coordinator plan (4 flights) is above the bound (3), so every
    # optimal solve builds the relay plan or the DFVS walk; each meets the
    # bound, so nothing is searched.
    cycle = root / "cycle3.json"
    cycle.write_text(cycle_graph(3).to_json())
    return {"graph": str(graph), "plan": str(plan), "cycle": str(cycle)}


def cli_modules(*argv: str) -> tuple[int, set[str]]:
    code, modules = json.loads(fresh_python("-c", RUN_CLI, *argv))
    return code, set(modules)


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "demo"),
        ("bounds", "{graph}"),
        ("verify", "{graph}", "{plan}", "--mode", "twohop"),
        ("solve", "{graph}", "--mode", "twohop", "--algorithm", "coordinator",
         "--max-nodes", "10", "--budget", "100"),
        ("solve", "{graph}", "--mode", "multihop", "--algorithm", "cycle"),
    ],
    ids=["gen", "bounds", "verify", "solve-coordinator", "solve-cycle"],
)
def test_commands_without_a_solver_load_no_solver_module(files, argv):
    code, modules = cli_modules(*(arg.format(**files) for arg in argv))
    assert code == 0
    assert not modules & SOLVER_MODULES, sorted(modules & SOLVER_MODULES)


PLAN_MODULES = {"pigeonpost.flightplan", "pigeonpost.planners"}


@pytest.mark.parametrize(
    "argv, unused",
    [
        (("gen", "demo"), PLAN_MODULES),
        (("gen", "random", "--n", "8"), PLAN_MODULES),
        (("bounds", "{graph}"), PLAN_MODULES),
        (("verify", "{graph}", "{plan}", "--mode", "multihop"), {"pigeonpost.planners"}),
        # The demo's coordinator plan meets the bound: no incumbent is built.
        (("solve", "{graph}", "--mode", "twohop", "--algorithm", "exact"), {"pigeonpost.fvs"}),
        (("solve", "{graph}", "--mode", "multihop", "--algorithm", "ilp"), {"pigeonpost.fvs"}),
        (("solve", "{cycle}", "--mode", "multihop", "--algorithm", "cycle"), {"pigeonpost.fvs"}),
    ],
    ids=["gen", "gen-random", "bounds", "verify", "solve-twohop-exact", "solve-multihop-ilp",
         "solve-multihop-cycle"],
)
def test_commands_load_no_module_they_do_not_use(files, argv, unused):
    # Each module compiles from source in a process that writes no .pyc
    # files, which takes a few milliseconds for flightplan and planners.
    code, modules = cli_modules(*(arg.format(**files) for arg in argv))
    assert code == 0
    assert not modules & unused, sorted(modules & unused)


# Runs pigeonpost.cli.main on each argv of a JSON list, then prints which
# guarded modules were loaded before pigeonpost, the exit codes, and which
# are loaded after.
RUN_COMMANDS = """
import contextlib, io, json, sys
guarded = ("dataclasses", "fractions")
preloaded = [m for m in guarded if m in sys.modules]
from pigeonpost.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps([preloaded, codes, [m for m in guarded if m in sys.modules]]))
"""


def test_commands_without_scipy_do_not_load_dataclasses(files, tmp_path):
    # Records are NamedTuples: importing dataclasses would load inspect, ast,
    # dis and tokenize in every CLI process, and fractions loads decimal and
    # numbers.  The ILP commands are left out because scipy may import
    # either itself.
    cnf = tmp_path / "two.cnf"
    cnf.write_text("p cnf 3 2\n1 -2 3 0\n-1 2 3 0\n")
    graph, plan = files["graph"], files["plan"]
    commands = [
        ["gen", "demo"],
        ["bounds", graph],
        ["verify", graph, plan, "--mode", "twohop"],
        ["verify", graph, plan, "--mode", "multihop"],
        ["reduce", "3sat-to-twohop", str(cnf)],
        ["solve", graph, "--mode", "twohop", "--algorithm", "coordinator"],
        ["solve", graph, "--mode", "multihop", "--algorithm", "cycle"],
        ["solve", graph, "--mode", "multihop", "--algorithm", "exact"],
    ]
    preloaded, codes, loaded = json.loads(fresh_python("-c", RUN_COMMANDS, json.dumps(commands)))
    assert codes == [0] * len(commands)
    # A module the interpreter preloads makes its check vacuous.
    assert set(loaded) <= set(preloaded), loaded


def test_exact_solve_loads_only_the_exact_solver(files):
    code, modules = cli_modules("solve", files["graph"], "--mode", "multihop", "--algorithm", "exact")
    assert code == 0
    assert modules & SOLVER_MODULES == {"pigeonpost.exact"}


def test_multihop_exact_solve_loads_the_dfvs_core(files):
    code, modules = cli_modules("solve", files["cycle"], "--mode", "multihop", "--algorithm", "exact")
    assert code == 0
    assert modules & (SOLVER_MODULES | {"pigeonpost.fvs"}) == {"pigeonpost.exact", "pigeonpost.fvs"}


@pytest.mark.parametrize(
    "mode, algorithm, solver",
    [
        ("twohop", "exact", "pigeonpost.exact"),
        ("twohop", "ilp", "pigeonpost.ilp"),
        ("multihop", "ilp", "pigeonpost.ilp"),
    ],
    ids=["twohop-exact", "twohop-ilp", "multihop-ilp"],
)
def test_an_incumbent_above_the_bound_loads_the_dfvs_core(files, mode, algorithm, solver):
    # The relay plan and the DFVS walk meet the 3-cycle's bound, so the
    # ILP solves load no scipy either.
    code, modules = cli_modules("solve", files["cycle"], "--mode", mode, "--algorithm", algorithm)
    assert code == 0
    assert modules & (SOLVER_MODULES | {"pigeonpost.fvs"}) == {solver, "pigeonpost.fvs"}
    assert not {m.split(".")[0] for m in modules} & {"scipy", "numpy"}


@pytest.mark.parametrize(
    "argv",
    [
        ("export-lp", "{graph}", "--mode", "twohop"),
        ("solve", "{graph}", "--mode", "twohop", "--algorithm", "ilp"),
    ],
    ids=["export-lp", "solve-ilp"],
)
def test_ilp_commands_load_only_the_ilp_solver(files, argv):
    code, modules = cli_modules(*(arg.format(**files) for arg in argv))
    assert code == 0
    assert modules & SOLVER_MODULES == {"pigeonpost.ilp"}


def test_ilp_solve_decided_by_the_bound_loads_no_scipy(files):
    # In both regimes the demo's coordinator plan has m - 1 = 5 flights.
    for mode in ("twohop", "multihop"):
        code, modules = cli_modules("solve", files["graph"], "--mode", mode, "--algorithm", "ilp")
        assert code == 0
        assert "pigeonpost.ilp" in modules
        assert not {m.split(".")[0] for m in modules} & {"scipy", "numpy"}


def test_every_public_name_resolves_in_a_fresh_interpreter():
    script = """
import json, pigeonpost
names = list(pigeonpost.__all__)
for name in names:
    exec(f"from pigeonpost import {name}")
    assert getattr(pigeonpost, name) is not None
assert not hasattr(pigeonpost, "no_such_name")
print(json.dumps(names))
"""
    names = json.loads(fresh_python("-c", script))
    assert len(names) == len(set(names))
    assert set(names) == PUBLIC_NAMES | SUBMODULES

