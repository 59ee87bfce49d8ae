"""Correctness gate: every op output is checked after the timed region.

An op counts as an error when it crashed, exited with an unexpected code,
produced a plan that does not deliver every demand in its regime,
reported a proven count different from the reference optimum (or any
count below it), or, on ``cli-large``, produced stdout whose SHA-256
differs from the reference digest.  A different optimal plan with the same
proven count is not an error.

Plans are checked with the delivery rules of ``flightplan``'s docstring,
implemented here without witnesses: ``flightplan.verify_multihop`` keeps
one witness per (node, origin) pair reached, which needs gigabytes for the
cycle plan of an 8k-node graph, and a check of its own cannot share a
defect with the program it checks.
"""

from __future__ import annotations

import json

from workloads import REFERENCE, Op


def load_reference(path=REFERENCE) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def undelivered(mode: str, graph, flights: list[tuple[int, int]]) -> int:
    """Demands of ``graph`` that the (remote, home) flight sequence misses.

    Multihop: information moves from ``remote`` to ``home`` with each
    flight, in slot order.  2-hop: a direct flight, or a pickup ``(u, w)``
    in an earlier slot than a delivery ``(w, v)``.
    """
    if mode == "multihop":
        carried = [1 << v for v in range(graph.n)]
        for remote, home in flights:
            carried[home] |= carried[remote]
        return sum(not (carried[v] >> u) & 1 for u, v in graph.demands)
    first: dict[tuple[int, int], int] = {}
    last_into: dict[int, dict[int, int]] = {}
    for slot, (remote, home) in enumerate(flights):
        first.setdefault((remote, home), slot)
        last_into.setdefault(home, {})[remote] = slot
    return sum(
        (u, v) not in first
        and not any(first.get((u, w), slot) < slot for w, slot in last_into.get(v, {}).items())
        for u, v in graph.demands
    )


def check_solve(op: Op, stdout: bytes, reference: dict) -> str | None:
    """Return why a solve op's stdout is wrong, or None when it is right."""
    graph = op.instance.graph
    try:
        doc = json.loads(stdout)
        flights = [(f["remote"], f["home"]) for f in doc["plan"]["flights"]]
        count, proven = doc["count"], doc["proven_optimal"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable solve output: {exc}"
    if doc.get("mode") != op.mode:
        return f"mode {doc.get('mode')!r}, expected {op.mode!r}"
    if count != len(flights):
        return f"count {count} but {len(flights)} flights"
    if any(not (0 <= a < graph.n and 0 <= b < graph.n and a != b) for a, b in flights):
        return "plan has a flight outside the graph or onto its own node"
    missed = undelivered(op.mode, graph, flights)
    if missed:
        return f"plan misses {missed} demands under {op.mode} routing"
    if op.algorithm not in ("exact", "ilp"):
        return None
    entry = reference.get("optima", {}).get(op.instance.key)
    if entry is None:
        return f"no reference optimum for {op.instance.key}"
    if entry["base_sha256"] != op.instance.base_sha256 or entry["mode"] != op.mode:
        return f"reference for {op.instance.key} is for another instance"
    optimum = entry["optimum"]
    if proven and count != optimum:
        return f"proven count {count}, reference optimum {optimum}"
    if count < optimum:
        return f"count {count} below reference optimum {optimum}"
    return None


def check_digest(op: Op, digest: str, reference: dict) -> str | None:
    expected = reference.get("stdout_sha256", {}).get(op.key)
    if expected is None:
        return f"no reference digest for {op.key}"
    if digest != expected:
        return f"stdout digest differs from the reference for {op.key}"
    return None


def check(op: Op, exit_code: int | None, stdout: bytes, digest: str, reference: dict) -> str | None:
    """Check one distinct (op, exit code, stdout) outcome."""
    if exit_code is None:
        return "crashed"
    if exit_code != 0:
        return f"exit code {exit_code}"
    if op.digest:
        reason = check_digest(op, digest, reference)
        if reason is not None:
            return reason
    if op.kind == "solve":
        return check_solve(op, stdout, reference)
    return None
