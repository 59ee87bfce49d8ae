from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from pigeonpost import DemandGraph, UndirectedGraph, weakly_connected_components
from pigeonpost.instances import demo_graph

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(*args: str) -> str:
    """Stdout of a new interpreter run with ``args`` and this checkout's ``src``; it must exit 0."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def demo():
    return demo_graph()


def random_demand_graph(rng: random.Random, n: int, p: float) -> DemandGraph:
    demands = [
        (a, b) for a in range(n) for b in range(n) if a != b and rng.random() < p
    ]
    return DemandGraph.from_pairs(n, demands)


def spans_all_nodes(g: DemandGraph) -> bool:
    partition = weakly_connected_components(g)
    return len(partition.components) == 1 and len(partition.components[0]) == g.n


def random_connected_demand_graph(rng: random.Random, n: int) -> DemandGraph:
    while True:
        g = random_demand_graph(rng, n, rng.choice([0.2, 0.3, 0.4, 0.5]))
        if spans_all_nodes(g):
            return g


def random_connected_undirected(rng: random.Random, n: int, extra_p: float) -> UndirectedGraph:
    """Random spanning tree plus extra edges; always connected."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for u, v in combinations(range(n), 2):
        if rng.random() < extra_p:
            edges.add((u, v))
    return UndirectedGraph.from_pairs(n, edges)
