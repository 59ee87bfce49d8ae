"""Fuzz test of ``pigeonpost.cli.main``: every input maps to an exit code.

Generated graph, plan and DIMACS files, random bytes, JSON of the wrong
shape and deeply nested JSON go to ``bounds``, ``verify``, ``reduce`` and
``solve``.  Whatever the files hold, ``main`` must return an exit code in
0..4 with no exception escaping, and any code from 2 up comes with an
``error:`` line.  ``gen random`` is left out: its cost grows with n^2.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pigeonpost.cli import main

LIMITS = ("--max-nodes", "6", "--max-demands", "12", "--budget", "2000")

COMMANDS = [
    ("bounds", "{graph}"),
    *[("verify", "{graph}", "{plan}", "--mode", mode) for mode in ("singlehop", "twohop", "multihop")],
    ("reduce", "3sat-to-twohop", "{cnf}"),
    ("reduce", "vc-to-multihop", "{graph}", "--k", "1"),
    *[
        ("solve", "{graph}", "--mode", mode, "--algorithm", algorithm, *LIMITS)
        for mode, algorithm in (
            ("twohop", "coordinator"),
            ("multihop", "coordinator"),
            ("multihop", "cycle"),
            ("twohop", "exact"),
            ("multihop", "exact"),
        )
    ],
]

json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10), st.floats(), st.text(max_size=3)
)
json_any = st.recursive(
    json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=12,
)
node = st.one_of(st.integers(-1, 8), json_leaf)
pairs = st.one_of(
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=12),
    st.lists(st.lists(node, max_size=3), max_size=6),
    json_any,
)
graph_doc = st.builds(
    lambda n, key, demands: {"n": n, key: demands},
    st.one_of(st.integers(-1, 8), json_leaf),
    st.sampled_from(["demands", "edges"]),
    pairs,
)
flight = st.one_of(
    st.builds(lambda remote, home: {"remote": remote, "home": home}, node, node), json_any
)
plan_doc = st.one_of(st.builds(lambda flights: {"flights": flights}, st.lists(flight, max_size=10)), json_any)
clause_line = st.lists(st.integers(-6, 6), max_size=4).map(lambda lits: " ".join(map(str, lits)))
dimacs = st.builds(
    lambda v, c, lines: "\n".join([f"p cnf {v} {c}", *lines]) + "\n",
    st.integers(-1, 5),
    st.integers(-1, 4),
    st.lists(clause_line, max_size=5),
)
odd_bytes = st.one_of(
    st.binary(max_size=64),
    st.integers(1, 200_000).map(lambda depth: b"[" * depth),
    json_any.map(lambda doc: json.dumps(doc).encode()),
)


def utf8(docs):
    return docs.map(lambda doc: (doc if isinstance(doc, str) else json.dumps(doc)).encode())


DEEP = b"[" * 200_000
DIGITS = b'{"n": ' + b"1" * 5000 + b', "demands": []}'


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(COMMANDS),
    graph=st.one_of(utf8(graph_doc), odd_bytes),
    plan=st.one_of(utf8(plan_doc), odd_bytes),
    cnf=st.one_of(utf8(dimacs), odd_bytes),
)
@example(command=COMMANDS[1], graph=b'{"n": 2, "demands": [[0, 1]]}', plan=b'{"flights": 5}', cnf=b"")
@example(command=COMMANDS[1], graph=b'{"n": 2, "demands": [[0, 1]]}', plan=b'{"flights": null}', cnf=b"")
@example(command=COMMANDS[0], graph=b"\xff\xfe{}", plan=b"", cnf=b"")
@example(command=COMMANDS[4], graph=b"", plan=b"", cnf=b"\xff\xfep cnf 1 0\n")
@example(command=COMMANDS[0], graph=DEEP, plan=b"", cnf=b"")
@example(command=COMMANDS[1], graph=b'{"n": 2, "demands": [[0, 1]]}', plan=DEEP, cnf=b"")
@example(command=COMMANDS[5], graph=DEEP, plan=b"", cnf=b"")
@example(command=COMMANDS[0], graph=DIGITS, plan=b"", cnf=b"")
def test_main_maps_every_input_to_an_exit_code(workdir, command, graph, plan, cnf):
    paths = {}
    for name, data in (("graph", graph), ("plan", plan), ("cnf", cnf)):
        paths[name] = workdir / name
        paths[name].write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.format(**paths) for arg in command])
    assert code in range(5)
    assert code < 2 or err.getvalue().startswith("error:")
