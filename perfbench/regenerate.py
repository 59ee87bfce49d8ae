"""Regenerate ``perfbench/reference.json``.

Usage (from the repository root):

    python3 perfbench/regenerate.py [--accept-changes]

* ``optima``: the optimal pigeon count of every base instance of the solve
  workloads, proven by the exact solver at a reference budget far above
  the benchmark's, and cross-checked against the ILP wherever the ILP
  proves it within its time cap.
* ``digests``: the SHA-256 of stdout of every deterministic ``cli-large``
  op, for every formula of the pool.  Solve outputs must deliver every
  demand (``gate.undelivered``) and every op must exit 0 before it is
  recorded.

New entries are added.  When an entry differs from the one on disk, the
differences are listed and the file is left unchanged unless
``--accept-changes`` is given.  The optima do not depend on the seed, since
a seed only relabels nodes.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import gate
import workloads
from workloads import CNF_POOL, CNF_SIZES, REFERENCE

# Exact-solver effort for the reference optimum; instances it cannot prove
# do not belong in a workload.
REFERENCE_BUDGET = 40_000_000
# The ILP cross-check runs on instances up to these sizes, capped in time.
ILP_CHECK_NODES = {"twohop": 5, "multihop": 4}
ILP_CHECK_SECONDS = 120.0


def optimum_entry(mode: str, graph) -> dict:
    from pigeonpost.exact import SearchLimits, optimal_multihop, optimal_twohop
    from pigeonpost.ilp import optimal_multihop_ilp, optimal_twohop_ilp

    limits = SearchLimits(max_nodes=12, max_demands=200, expansion_budget=REFERENCE_BUDGET)
    solver = optimal_twohop if mode == "twohop" else optimal_multihop
    result = solver(graph, limits)
    if not result.proven_optimal:
        raise SystemExit(f"exact solver did not prove a {mode} instance within {REFERENCE_BUDGET}")
    if gate.undelivered(mode, graph, [(f.remote, f.home) for f in result.plan.flights]):
        raise SystemExit(f"exact {mode} plan misses demands")
    basis = f"exact, {REFERENCE_BUDGET} expansions"
    if graph.n <= ILP_CHECK_NODES[mode]:
        ilp_limits = SearchLimits(max_nodes=12, max_demands=200, expansion_budget=10**9,
                                  time_budget=ILP_CHECK_SECONDS)
        ilp = (optimal_twohop_ilp if mode == "twohop" else optimal_multihop_ilp)(graph, ilp_limits)
        if ilp.proven_optimal:
            if ilp.count != result.count:
                raise SystemExit(f"exact {result.count} and ILP {ilp.count} disagree on a {mode} instance")
            basis += "; ILP agrees"
        else:
            basis += "; ILP unproven"
    return {"mode": mode, "optimum": result.count, "basis": basis}


def compute_optima() -> dict:
    optima = {}
    for name in ("exact-multihop", "exact-twohop", "ilp-highs"):
        for mode, key, graph in workloads.base_instances(name):
            start = perf_counter()
            entry = optimum_entry(mode, graph)
            optima[key] = {"base_sha256": workloads.sha256_text(graph.to_json()), **entry}
            print(f"{key}: {entry['optimum']} ({entry['basis']}, {perf_counter() - start:.2f} s)",
                  file=sys.stderr)
    return optima


def compute_digests(cli) -> dict:
    digests = {}
    with tempfile.TemporaryDirectory(dir=workloads.ROOT / ".bench_build") as tmp:
        workdir = Path(tmp)
        ops = workloads.demo_ops(workdir)
        for n, m in CNF_SIZES:
            for variant in range(CNF_POOL):
                ops += workloads.cnf_ops(n, m, variant, workdir)
        for op in ops:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(op.argv))
            stdout = out.getvalue().encode()
            reason = gate.check(dataclasses.replace(op, digest=False), code, stdout, "", {})
            if reason is not None:
                raise SystemExit(f"{op.key}: {reason}")
            digests[op.key] = workloads.sha256_bytes(stdout)
            print(f"{op.key}: {digests[op.key][:16]}", file=sys.stderr)
    return digests


def merge(old: dict, new: dict, section: str, accept: bool) -> tuple[dict, list[str]]:
    merged = dict(old)
    changed = []
    for key, value in new.items():
        if key in old and old[key] != value:
            changed.append(f"{section}/{key}: {old[key]} -> {value}")
            if not accept:
                continue
        merged[key] = value
    return merged, changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accept-changes", action="store_true",
                        help="overwrite entries that differ from the file on disk")
    args = parser.parse_args(argv)

    cli = workloads.import_program()
    (workloads.ROOT / ".bench_build").mkdir(exist_ok=True)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference["optima"], changed = merge(reference.get("optima", {}), compute_optima(), "optima",
                                         args.accept_changes)
    reference["stdout_sha256"], diff = merge(reference.get("stdout_sha256", {}), compute_digests(cli),
                                             "stdout_sha256", args.accept_changes)
    changed += diff
    for line in changed:
        print(f"differs: {line}", file=sys.stderr)
    if changed and not args.accept_changes:
        print(f"{len(changed)} entries differ; reference.json left unchanged "
              "(rerun with --accept-changes to overwrite them)", file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
