import gc
import importlib.util
import json
import os
import sys
from itertools import permutations
from pathlib import Path

import pytest

from pigeonpost import DemandGraph, cli
from pigeonpost.cli import VALID_ALGORITHMS, main
from pigeonpost.instances import cycle_graph, demo_graph
from pigeonpost.planners import plan_coordinator
from pigeonpost.reductions import parse_undirected_graph

from conftest import fresh_python

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(demo_graph().to_json())
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_solve_coordinator(demo_file, capsys):
    code, out = run(capsys, "solve", demo_file, "--mode", "twohop",
                    "--algorithm", "coordinator")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 5
    assert doc["coordinators"] == [0]
    assert doc["ratio"] == "5/3"


def test_solve_exact_multihop_cycle(tmp_path, capsys):
    path = tmp_path / "cycle6.json"
    path.write_text(cycle_graph(6).to_json())
    code, out = run(capsys, "solve", str(path), "--mode", "multihop",
                    "--algorithm", "exact")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 6
    assert doc["proven_optimal"] is True


def test_solve_singlehop_empty(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"n": 0, "demands": []}')
    code, out = run(capsys, "solve", str(path), "--mode", "singlehop",
                    "--algorithm", "direct")
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_solve_then_verify_pipe(demo_file, tmp_path, capsys):
    for mode, algorithm in [
        ("singlehop", "direct"),
        ("twohop", "coordinator"),
        ("multihop", "cycle"),
        ("multihop", "exact"),
        ("twohop", "exact"),
    ]:
        result_path = tmp_path / f"{mode}_{algorithm}.json"
        code, _ = run(capsys, "solve", demo_file, "--mode", mode,
                      "--algorithm", algorithm, "-o", str(result_path))
        assert code == 0
        plan_path = tmp_path / f"{mode}_{algorithm}_plan.json"
        plan_path.write_text(
            json.dumps(json.loads(result_path.read_text())["plan"])
        )
        code, _ = run(capsys, "verify", demo_file, str(plan_path), "--mode", mode)
        assert code == 0


def test_coordinator_plan_is_relabelled_multihop(demo_file, tmp_path, capsys):
    code, out = run(capsys, "solve", demo_file, "--mode", "multihop",
                    "--algorithm", "coordinator")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "multihop"
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(doc["plan"]))
    code, out = run(capsys, "verify", demo_file, str(plan_path), "--mode", "multihop")
    assert code == 0
    assert json.loads(out)["satisfied"] is True


def test_verify_reversed_plan_exits_one(demo_file, tmp_path, capsys):
    plan = {"flights": [
        {"remote": 0, "home": 3}, {"remote": 0, "home": 4},
        {"remote": 0, "home": 5}, {"remote": 2, "home": 0},
        {"remote": 1, "home": 0},
    ]}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    code, out = run(capsys, "verify", demo_file, str(plan_path), "--mode", "twohop")
    assert code == 1
    doc = json.loads(out)
    assert doc["satisfied"] is False
    failures = [d for d in doc["demands"] if not d["served"]]
    assert failures


def test_invalid_mode_algorithm_combo(demo_file, capsys):
    code, _ = run(capsys, "solve", demo_file, "--mode", "singlehop",
                  "--algorithm", "coordinator")
    assert code == 2
    code, _ = run(capsys, "solve", demo_file, "--mode", "twohop",
                  "--algorithm", "cycle")
    assert code == 2


def test_parse_error_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _ = run(capsys, "solve", str(bad), "--mode", "twohop",
                  "--algorithm", "coordinator")
    assert code == 3


def test_boolean_endpoints_exit_three(demo_file, tmp_path, capsys):
    graph = tmp_path / "bool_graph.json"
    graph.write_text('{"n": 3, "demands": [[true, 2]]}')
    code, _ = run(capsys, "bounds", str(graph))
    assert code == 3
    plan = tmp_path / "bool_plan.json"
    plan.write_text('{"flights": [{"remote": true, "home": 3}]}')
    code, _ = run(capsys, "verify", demo_file, str(plan), "--mode", "multihop")
    assert code == 3


def test_strict_budget_exits_four(tmp_path, capsys):
    # The 4-cycle needs a search: coordinator 6 against a bound of 4.
    path = tmp_path / "cycle4.json"
    path.write_text(cycle_graph(4).to_json())
    code, _ = run(capsys, "solve", str(path), "--mode", "twohop",
                  "--algorithm", "exact", "--budget", "2", "--strict")
    assert code == 4


def test_bounds(demo_file, capsys):
    code, out = run(capsys, "bounds", demo_file)
    assert code == 0
    assert json.loads(out) == {
        "overall": 3, "per_component": [3], "component_total": 3,
    }


def test_gen_cycle(capsys):
    code, out = run(capsys, "gen", "cycle", "--n", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 6
    assert len(doc["demands"]) == 6


def test_gen_demo_matches_fixture(capsys):
    code, out = run(capsys, "gen", "demo")
    assert code == 0
    assert out == demo_graph().to_json()


def test_gen_random_is_deterministic(capsys):
    args = ("gen", "random", "--n", "5", "--p", "0.4", "--seed", "7")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    assert json.loads(first)["n"] == 5


def test_gen_invalid_params(capsys):
    code, _ = run(capsys, "gen", "cycle", "--n", "1")
    assert code == 2


def test_reduce_vc(tmp_path, capsys):
    path = tmp_path / "vc.json"
    path.write_text('{"n": 4, "edges": [[0,1],[1,2],[0,2],[0,3]]}')
    code, out = run(capsys, "reduce", "vc-to-multihop", str(path), "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["budget"] == 5
    assert len(doc["graph"]["demands"]) == 8


def test_reduce_vc_requires_budget(tmp_path, capsys):
    path = tmp_path / "vc.json"
    path.write_text('{"n": 2, "edges": [[0,1]]}')
    code, _ = run(capsys, "reduce", "vc-to-multihop", str(path))
    assert code == 2


def test_reduce_vc_disconnected_exits_three(tmp_path, capsys):
    path = tmp_path / "vc.json"
    path.write_text('{"n": 4, "edges": [[0,1]]}')
    code, _ = run(capsys, "reduce", "vc-to-multihop", str(path), "--k", "1")
    assert code == 3


def test_reduce_3sat(tmp_path, capsys):
    path = tmp_path / "formula.cnf"
    path.write_text("p cnf 5 2\n1 -3 2 0\n3 4 5 0\n")
    code, out = run(capsys, "reduce", "3sat-to-twohop", str(path))
    assert code == 0
    assert json.loads(out)["budget"] == 693


def test_export_lp(demo_file, capsys):
    code, out = run(capsys, "export-lp", demo_file, "--mode", "multihop")
    assert code == 0
    assert out.startswith("Minimize\n")
    assert "Binary" in out and out.rstrip().endswith("End")


# The size limits of ``solve --algorithm ilp`` (10 nodes, 40 demands): the
# whole graph for 2-hop, the one component for multihop.
@pytest.mark.parametrize(
    "graph, twohop, multihop",
    [
        (cycle_graph(10), 0, 0),
        (cycle_graph(11), 2, 2),
        (DemandGraph.from_pairs(11, [(0, 1)]), 2, 0),
        (DemandGraph.from_pairs(7, list(permutations(range(7), 2))), 2, 2),  # 42 demands
    ],
    ids=["cycle10", "cycle11", "one-demand-on-11-nodes", "complete7"],
)
@pytest.mark.parametrize("mode", ["twohop", "multihop"])
def test_export_lp_applies_the_solver_size_limits(tmp_path, capsys, graph, twohop, multihop, mode):
    path = tmp_path / "graph.json"
    path.write_text(graph.to_json())
    code = main(["export-lp", str(path), "--mode", mode])
    captured = capsys.readouterr()
    assert code == {"twohop": twohop, "multihop": multihop}[mode]
    if code:
        assert_one_error_line(captured)
    else:
        assert captured.out.startswith("Minimize\n")


def test_identical_invocations_are_byte_identical(demo_file, capsys):
    args = ("solve", demo_file, "--mode", "multihop", "--algorithm", "exact")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_main_leaves_the_garbage_collector_on(demo_file, capsys):
    # Only the process entry point pauses it, for its one command.
    assert run(capsys, "bounds", demo_file)[0] == 0
    assert gc.isenabled()


# Runs one command through ``cli.entry_point`` (argv from ``sys.argv``) or
# ``cli.main``, then prints its exit code, whether the collector was on at
# each write, and whether it is on afterwards.
RUN_ENTRY = """
import gc, json, sys
from pigeonpost import cli
seen = []
write = cli._write
def recording_write(path, text):
    seen.append(gc.isenabled())
    write(path, text)
cli._write = recording_write
entry, sys.argv[1:] = sys.argv[1], sys.argv[2:]
if entry == "entry_point":
    try:
        cli.entry_point()
    except SystemExit as exc:
        code = exc.code
else:
    code = cli.main(sys.argv[1:])
print(json.dumps([code, seen, gc.isenabled()]))
"""


def test_entry_point_pauses_the_garbage_collector_and_main_does_not():
    argv = ("gen", "demo", "-o", os.devnull)
    assert json.loads(fresh_python("-c", RUN_ENTRY, "entry_point", *argv)) == [0, [False], False]
    assert json.loads(fresh_python("-c", RUN_ENTRY, "main", *argv)) == [0, [True], True]
    # The console script runs the same entry as ``python -m pigeonpost.cli``.
    assert 'pigeonpost = "pigeonpost.cli:entry_point"' in (ROOT / "pyproject.toml").read_text()


# Runs ``cli.main`` on each argv of a JSON list in this one interpreter,
# then prints how many parsers were built and each call's exit code,
# stdout and stderr.  COLUMNS fixes the width of the help text.
RUN_SEQUENCE = """
import contextlib, io, json, os, sys
os.environ["COLUMNS"] = "80"
from pigeonpost import cli
build = cli.build_parser
builds = []
def counting_build():
    builds.append(1)
    return build()
cli.build_parser = counting_build
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps([len(builds), results]))
"""


def test_the_shared_parser_leaks_nothing_between_calls(demo_file, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(plan_coordinator(demo_graph()).plan.to_json())
    has_scipy = importlib.util.find_spec("scipy") is not None
    sequence = [
        ["solve"],
        ["--help"],
        ["solve", demo_file, "--mode", "twohop", "--algorithm", "exact", "--budget", "0"],
        ["gen", "demo"],
        ["bounds", demo_file],
        *[
            ["solve", demo_file, "--mode", mode, "--algorithm", algorithm]
            for mode, algorithms in VALID_ALGORITHMS.items()
            for algorithm in algorithms
            if algorithm != "ilp" or has_scipy
        ],
        *[["verify", demo_file, str(plan), "--mode", mode] for mode in VALID_ALGORITHMS],
    ]
    builds, results = json.loads(fresh_python("-c", RUN_SEQUENCE, json.dumps(sequence)))
    # One build, counted after the import: importing ``cli`` built none.
    assert builds == 1
    assert [code for code, _, _ in results[:3]] == [2, 0, 2]
    for argv, result in zip(sequence, results):
        assert json.loads(fresh_python("-c", RUN_SEQUENCE, json.dumps([argv]))) == [1, [result]], argv
    assert cli.build_parser() is not cli.build_parser()


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["solve"])  # missing required flags
    assert excinfo.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["twohop", "multihop"])
def test_ilp_over_size_limit_exits_two(tmp_path, capsys, mode):
    path = tmp_path / "cycle12.json"
    path.write_text(cycle_graph(12).to_json())  # one 12-node component
    code, out = run(capsys, "solve", str(path), "--mode", mode, "--algorithm", "ilp")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("algorithm", ["exact", "ilp"])
@pytest.mark.parametrize(
    "flag, value",
    [
        ("--budget", "0"),
        ("--max-nodes", "0"),
        ("--max-demands", "0"),
        ("--time-budget", "-1"),
        ("--time-budget", "nan"),  # NaN compares false, so it would disable the deadline
    ],
)
def test_limit_flag_out_of_range_exits_two(demo_file, capsys, algorithm, flag, value):
    code = main(["solve", demo_file, "--mode", "twohop", "--algorithm", algorithm, flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("n, expected", [(65_536, 0), (65_537, 2), (10**12, 2)])
def test_parsed_node_cap(tmp_path, capsys, n, expected):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": n, "demands": [[0, 1]]}))
    code = main(["bounds", str(path)])
    captured = capsys.readouterr()
    assert code == expected
    if expected:
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    else:
        assert json.loads(captured.out)["overall"] == 1


def test_ilp_without_scipy_exits_two(demo_file, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", None)  # ``import scipy`` now fails
    code = main(["solve", demo_file, "--mode", "twohop", "--algorithm", "ilp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "pigeonpost[solver]" in captured.err


def assert_one_error_line(captured):
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, text",
    [
        (["export-lp", "{path}", "--mode", "multihop"], '{"n": 4, "demands": [[0, 1], [2, 3]]}'),
        (["reduce", "vc-to-multihop", "{path}", "--k", "1"], '{"n": 100000000000, "edges": [[0, 1]]}'),
        (["reduce", "vc-to-multihop", "{path}", "--k", "1"], '{"n": 65537, "edges": [[0, 1]]}'),
        (["reduce", "vc-to-multihop", "{path}", "--k", "-1"], '{"n": 2, "edges": [[0, 1]]}'),
        (["reduce", "3sat-to-twohop", "{path}"], "p cnf 100000000 1\n1 2 3 0\n"),
        (["reduce", "3sat-to-twohop", "{path}"], "p cnf 73 1\n1 2 3 0\n"),
        (["gen", "cycle", "--n", "100000000"], ""),
        (["gen", "star", "--n", "65537"], ""),
        (["gen", "random", "--n", "65537"], ""),
    ],
    ids=["export-lp-two-components", "vc-n-1e11", "vc-n-65537", "vc-negative-k",
         "3sat-1e8-vars", "3sat-73-vars", "gen-cycle-1e8", "gen-star-65537", "gen-random-65537"],
)
def test_refused_input_exits_two(tmp_path, capsys, argv, text):
    path = tmp_path / "input"
    path.write_text(text)
    code = main([arg.format(path=path) for arg in argv])
    assert code == 2
    assert_one_error_line(capsys.readouterr())


def test_gen_random_over_the_demand_cap_exits_two(capsys):
    # 4,000 nodes at p = 0.3 expect 4.8 million demands; refused before any draw.
    code = main(["gen", "random", "--n", "4000", "--p", "0.3"])
    assert code == 2
    assert_one_error_line(capsys.readouterr())


@pytest.mark.parametrize("p, expected", [(0.9, 0), (0.95, 2)])
def test_gen_random_demand_cap_boundary(capsys, monkeypatch, p, expected):
    # 11 nodes expect 110 p demands: 99 are allowed under a cap of 100, 104.5 are not.
    monkeypatch.setattr(cli, "_MAX_RANDOM_DEMANDS", 100)
    code = main(["gen", "random", "--n", "11", "--p", str(p)])
    assert code == expected
    captured = capsys.readouterr()
    if expected:
        assert_one_error_line(captured)
    else:
        assert json.loads(captured.out)["n"] == 11


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3, "edges": [[0, 1, 2]]}',
        '{"n": 3, "edges": [["a", "b"]]}',
        '{"n": 3, "edges": [5]}',
        '{"n": 3, "edges": [[true, 1]]}',
        '{"n": 3.0, "edges": [[0, 1]]}',
        '{"n": true, "edges": [[0, 1]]}',
        '{"n": -1, "edges": []}',
        '{"n": 3, "edges": {"0": 1}}',
    ],
)
def test_malformed_undirected_graph_exits_three(tmp_path, capsys, text):
    path = tmp_path / "graph.json"
    path.write_text(text)
    code = main(["reduce", "vc-to-multihop", str(path), "--k", "1"])
    assert code == 3
    assert_one_error_line(capsys.readouterr())


def test_generated_and_undirected_graphs_at_the_node_cap(capsys):
    code, out = run(capsys, "gen", "cycle", "--n", "65536")
    assert code == 0 and json.loads(out)["n"] == 65_536
    assert parse_undirected_graph('{"n": 65536, "edges": [[0, 1]]}').n == 65_536


def test_ilp_budget_above_highs_32_bit_node_limit(tmp_path, capsys):
    pytest.importorskip("scipy")
    path = tmp_path / "cycle4.json"
    path.write_text(cycle_graph(4).to_json())  # incumbent 6 over bound 4: HiGHS runs
    code, out = run(capsys, "solve", str(path), "--mode", "multihop", "--algorithm", "ilp",
                    "--budget", str(2**31))
    assert code == 0
    doc = json.loads(out)
    assert (doc["count"], doc["proven_optimal"]) == (4, True)


@pytest.mark.parametrize("flights", ["5", "null"])
def test_verify_non_list_flights_exits_three(demo_file, tmp_path, capsys, flights):
    plan = tmp_path / "plan.json"
    plan.write_text(f'{{"flights": {flights}}}')
    code = main(["verify", demo_file, str(plan), "--mode", "twohop"])
    assert code == 3
    assert_one_error_line(capsys.readouterr())


@pytest.mark.parametrize(
    "argv", [["bounds", "{path}"], ["reduce", "3sat-to-twohop", "{path}"]], ids=["bounds", "reduce"]
)
def test_non_utf8_input_exits_three(tmp_path, capsys, argv):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfe" + "p cnf 1 0\n".encode("utf-16-le"))
    code = main([arg.format(path=path) for arg in argv])
    assert code == 3
    assert_one_error_line(capsys.readouterr())


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "{path}"],
        ["verify", "{demo}", "{path}", "--mode", "multihop"],
        ["reduce", "vc-to-multihop", "{path}", "--k", "1"],
    ],
    ids=["bounds", "verify", "reduce"],
)
@pytest.mark.parametrize(
    "text",
    ["[" * 200_000, '{"n": ' + "1" * 5000 + ', "demands": [], "edges": [], "flights": []}'],
    ids=["nested-200000-deep", "int-of-5000-digits"],
)
def test_json_the_decoder_refuses_exits_three(demo_file, tmp_path, capsys, argv, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    code = main([arg.format(path=path, demo=demo_file) for arg in argv])
    assert code == 3
    assert_one_error_line(capsys.readouterr())
