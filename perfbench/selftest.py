"""Self-test of the benchmark harness, in smoke mode.

Usage (from the repository root): python3 perfbench/selftest.py

1. Runs every workload of BENCHMARK.json with ``--smoke`` (a few cheap
   instances, one pass) under ``--trace 0`` and ``--trace 1``, and checks
   that the last line carries exactly the metrics BENCHMARK.json lists,
   with their units, and no errors; and that the report lines name all
   nine end-to-end metrics of README.md with their units.
2. Shows that the gate bites: a plan with one flight removed, a wrong
   reference optimum and a changed stdout byte each count as an error,
   while the unchanged outputs pass.

Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import gate
import run
import workloads
from workloads import BENCH_DIR, ROOT

NINE = ("latency_s_p50", "latency_s_p90", "ops_per_s", "proven_share", "frontier_nodes",
        "pigeon_ratio", "error_share", "setup_s", "peak_rss_mb")


def check_workload_output(spec: dict) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    units = dict(run.END_TO_END + run.QUALITY)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", "0.1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
            assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, (workload, trace, proc.stderr)
            assert result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected[trace], (workload, trace, set(got) ^ set(expected[trace]))
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (workload, name, metric)
            for name in NINE:
                assert any(line.split()[:1] == [name] and line.rstrip().endswith((units[name], ")"))
                           for line in lines), (workload, name)
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, {result['attempted']} ops")


def check_gate_bites() -> None:
    cli = workloads.import_program()
    reference = gate.load_reference()
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        # A proven-optimal plan with one flight fewer cannot serve every demand.
        solve_op = workloads.build("exact-twohop", 7, Path(tmp) / "solve", smoke=True).ops[0]
        gen_op = next(op for op in workloads.demo_ops(Path(tmp)) if op.key == "demo/gen")
        runner = run.InProcessRunner(cli)
        _, solve_code, solve_out = runner.run(solve_op)
        _, gen_code, gen_out = runner.run(gen_op)
        assert solve_code == 0 and gen_code == 0

        short = json.loads(solve_out)
        assert short["proven_optimal"], "the smoke instance should be proven optimal"
        short["plan"]["flights"].pop()
        short["count"] -= 1
        short_out = json.dumps(short).encode()
        flipped = bytes([gen_out[0] ^ 1]) + gen_out[1:]
        wrong = copy.deepcopy(reference)
        wrong["optima"][solve_op.instance.key]["optimum"] += 1

        # One pass of four ops: two correct outputs and two broken ones.
        workload = workloads.Workload("selftest", 7, [solve_op, solve_op, gen_op, gen_op], [], True)
        outcome = run.Outcome()
        samples = []
        for index, out in enumerate([solve_out, short_out, gen_out, flipped]):
            digest = workloads.sha256_bytes(out)
            outcome.outputs[(index, 0, digest)] = out
            samples.append(run.Sample(index, 0.001, 0, digest))
        outcome.passes.append(run.Pass(samples, 0.004))

        for ref, expected in ((reference, {1, 3}), (wrong, {0, 1, 3})):
            verdicts, parsed = run.judge(workload, outcome, ref)
            caught = {key[0] for key, reason in verdicts.items() if reason is not None}
            assert caught == expected, (caught, verdicts)
            metrics, attempted, failed = run.end_to_end(workload, outcome, verdicts, parsed, [0.1])
            assert (attempted, failed) == (4, len(expected)), (attempted, failed)
            assert metrics["error_share"] == len(expected) / 4
        names = ("correct plan", "flight removed", "correct stdout", "changed stdout byte")
        for index, reason in sorted((k[0], r) for k, r in run.judge(workload, outcome, wrong)[0].items()):
            print(f"ok  {names[index]}: {reason or 'passes'}"
                  + (" (wrong reference optimum)" if index == 0 else ""))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_gate_bites()
    check_workload_output(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
