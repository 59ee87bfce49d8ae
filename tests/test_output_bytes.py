"""The bytes the big commands write, pinned by SHA-256.

A 3-CNF reduction is the largest document each of ``reduce``, ``solve``
and ``verify`` writes, and the one whose bytes the canonical encoder
could most easily get wrong.  Each command runs as ``python -m
pigeonpost.cli``, the entry the command line uses, on the reduction of
``data/three_sat.cnf`` (551 nodes, 1,108 demands) and on the plan that
the all-true assignment certifies.  The optimal solvers are pinned on the
demo, where the bound ``max(m - 1, |S|, |D|)`` proves the coordinator plan
optimal without a search.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pigeonpost.instances import demo_graph
from pigeonpost.reductions import (
    parse_dimacs_cnf,
    reduce_3sat_to_twohop,
    satisfying_assignment_plan,
)

SRC = Path(__file__).resolve().parents[1] / "src"
CNF = Path(__file__).resolve().parent / "data" / "three_sat.cnf"

GRAPH_SHA256 = "4c7d0d5b517d14a3359b7adcf2bf19a4e0bd6c34ff5297aa30fdf41c21ae55f8"
PLAN_SHA256 = "9d1e5fa684e5b593fb7bcf7ca89d39db54f9348f8833c075b71cb6f2282f282a"

COMMANDS = {
    "reduce": (
        ("reduce", "3sat-to-twohop", "{cnf}"),
        "a07db52ef678acccb33870c289da6f18dee2a6aab275540f00b238f45684dd57",
    ),
    "solve-coordinator": (
        ("solve", "{graph}", "--mode", "twohop", "--algorithm", "coordinator"),
        "33d7f323b0bc56b66a8e56c04ece1f198ae254d5291cf4f23b7dc9e36fdda6f1",
    ),
    "solve-cycle": (
        ("solve", "{graph}", "--mode", "multihop", "--algorithm", "cycle"),
        "0dfa0c773a7c251535ba874c0cfe8ece53b468f76e0f13323829e88e5aa968e0",
    ),
    "verify-twohop": (
        ("verify", "{graph}", "{plan}", "--mode", "twohop"),
        "cb21c16e88137899514ca6e0722166b8ba02493a39f6a3cc80d44b3ee1d26b97",
    ),
    "verify-multihop": (
        ("verify", "{graph}", "{plan}", "--mode", "multihop"),
        "29c976773042ac2bb72c0cd27a4d0d762cdecef7b2cbd7ad72e17976242892c1",
    ),
    "solve-exact-twohop-demo": (
        ("solve", "{demo}", "--mode", "twohop", "--algorithm", "exact"),
        "32ee5e189da73aad5326239cbea227bc4355840a2b79abcc17ca0d4958c9ae04",
    ),
    "solve-exact-multihop-demo": (
        ("solve", "{demo}", "--mode", "multihop", "--algorithm", "exact"),
        "7edc1be4013c23cdf6d0728ff6d56ea21c97b0b2a4e64e31dc304cb5b64ebeb6",
    ),
    "solve-ilp-twohop-demo": (
        ("solve", "{demo}", "--mode", "twohop", "--algorithm", "ilp"),
        "d987d77d8b493d244f05869245072fe5490b19dec8215082cfcb51502b20c719",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("three_sat")
    formula = parse_dimacs_cnf(CNF.read_text())
    reduction = reduce_3sat_to_twohop(formula)
    graph = root / "graph.json"
    graph.write_text(reduction.graph.to_json())
    plan = root / "plan.json"
    plan.write_text(satisfying_assignment_plan(formula, reduction, (True,) * 3).to_json())
    demo = root / "demo.json"
    demo.write_text(demo_graph().to_json())
    return {"cnf": str(CNF), "graph": graph, "plan": plan, "demo": demo}


def test_input_files_are_pinned(files):
    assert sha256(files["graph"].read_bytes()) == GRAPH_SHA256
    assert sha256(files["plan"].read_bytes()) == PLAN_SHA256


@pytest.mark.parametrize("name", list(COMMANDS))
def test_stdout_is_pinned(files, name):
    argv, digest = COMMANDS[name]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pigeonpost.cli", *(arg.format(**files) for arg in argv)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    text = proc.stdout.decode()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
    assert sha256(proc.stdout) == digest
