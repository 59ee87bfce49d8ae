"""Closed-loop latency benchmark of the pigeonpost CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: exact-multihop, exact-twohop, ilp-highs, cli-large (see
``perfbench/README.md``).  One client runs one op at a time.  On the solve
workloads an op is an in-process ``pigeonpost.cli.main(["solve", ...])``
with stdout captured; on ``cli-large`` it is a ``python -m pigeonpost.cli``
process timed from spawn to exit.

The run measures whole passes over the workload's ops until ``--seconds``
have passed and at least 100 ops ran; on the solve workloads every pass
runs fresh labelings of the instances, written before the pass starts.
Every output is checked against ``reference.json`` after the timed region.
Every reported time is rescaled to a reference host speed, measured by
timing a fixed loop between the ops (``hostspeed.py``); the record line
also gives the times as measured.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
per-layer self times and counts, per pass.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

import hostspeed
import workloads
from hostspeed import HostSpeed
from workloads import BENCH_DIR, LIMITS, ROOT, SRC, Op, Workload

SETUP_REPEATS = 9
SETUP_PROBES = 5  # loop timings before each set-up
MIN_OPS = 100

END_TO_END = (
    ("latency_s_p50", "s"),
    ("latency_s_p90", "s"),
    ("ops_per_s", "1/s"),
    ("pigeon_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Reported on every run beside the metrics above; not in the end-to-end
# list of BENCHMARK.json because they do not apply to every workload or are
# zero on a correct run.  With --trace 1 they are per-layer metrics.
QUALITY = (
    ("proven_share", "ratio"),
    ("frontier_nodes", "nodes"),
    ("error_share", "ratio"),
)


@dataclass
class Sample:
    op_index: int
    seconds: float
    exit_code: int | None
    digest: str


@dataclass
class Pass:
    samples: list[Sample]
    seconds: float  # wall time of the pass, bookkeeping between ops included


@dataclass
class Outcome:
    """Everything measured in one run, before the gate."""

    passes: list[Pass] = field(default_factory=list)
    traced_passes: list[Pass] = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)  # loop times between the ops
    outputs: dict = field(default_factory=dict)  # (op index, exit code, digest) -> stdout
    peak_rss_kb: int = 0
    layer_seconds: dict = field(default_factory=dict)
    layer_counts: dict = field(default_factory=dict)
    startup_seconds: float = 0.0


# ------------------------------------------------------------------ runners


class InProcessRunner:
    """Calls ``pigeonpost.cli.main`` in this process, stdout captured."""

    def __init__(self, cli):
        self.cli = cli
        self.first_traceback = None

    def run(self, op: Op) -> tuple[float, int | None, bytes]:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that crashes is an error, not the end of the run
            code = None
            if self.first_traceback is None:
                self.first_traceback = traceback.format_exc()
        elapsed = perf_counter() - start
        return elapsed, code, out.getvalue().encode()

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class ProcessRunner:
    """Runs each op as a fresh ``python -m pigeonpost.cli`` process."""

    def __init__(self, workdir: Path):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.stats_path = workdir / "trace-stats.json"
        self.peak_kb = 0
        self.traced = False
        self.seconds: dict = {}
        self.counts: dict = {}
        self.startup = 0.0

    def run(self, op: Op) -> tuple[float, int | None, bytes]:
        if self.traced:
            self.stats_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(self.stats_path), *op.argv]
        else:
            cmd = [sys.executable, "-m", "pigeonpost.cli", *op.argv]
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=self.env)
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if self.traced and self.stats_path.exists():
            with open(self.stats_path, encoding="utf-8") as handle:
                stats = json.load(handle)
            self.startup += stats["imported_at"] - start
            for key, value in stats["seconds"].items():
                self.seconds[key] = self.seconds.get(key, 0.0) + value
            for key, value in stats["counts"].items():
                self.counts[key] = self.counts.get(key, 0) + value
        return elapsed, (code if code >= 0 else None), stdout

    def peak_rss_kb(self) -> int:
        return self.peak_kb


# ------------------------------------------------------------ measurement


def run_pass(workload: Workload, k: int, runner, outcome: Outcome) -> Pass:
    indices = workload.pass_ops(k)  # writes the pass's inputs, outside the timed region
    speed = outcome.speed
    speed.probe()
    start, probing = perf_counter(), speed.spent
    samples = []
    for index in indices:
        elapsed, code, stdout = runner.run(workload.ops[index])
        digest = workloads.sha256_bytes(stdout)
        outcome.outputs.setdefault((index, code, digest), stdout)
        samples.append(Sample(index, elapsed, code, digest))
        speed.maybe_probe()
    return Pass(samples, perf_counter() - start - (speed.spent - probing))


def measure(workload: Workload, runner, seconds: float, min_ops: int) -> Outcome:
    outcome = Outcome()
    start = perf_counter()
    ops = 0
    while perf_counter() - start < seconds or ops < min_ops:
        outcome.passes.append(run_pass(workload, len(outcome.passes), runner, outcome))
        ops += len(outcome.passes[-1].samples)
    outcome.peak_rss_kb = runner.peak_rss_kb()
    return outcome


def measure_traced(workload: Workload, runner, seconds: float) -> Outcome:
    """Alternate untraced and traced passes over the same inputs; layer figures are per traced pass."""
    from tracer import Tracer

    outcome = Outcome()
    tracer = Tracer()
    start = perf_counter()
    while not outcome.traced_passes or perf_counter() - start < seconds:
        k = len(outcome.passes)
        outcome.passes.append(run_pass(workload, k, runner, outcome))
        if workload.in_process:
            tracer.install()
            try:
                outcome.traced_passes.append(run_pass(workload, k, runner, outcome))
            finally:
                tracer.uninstall()
        else:
            runner.traced = True
            try:
                outcome.traced_passes.append(run_pass(workload, k, runner, outcome))
            finally:
                runner.traced = False
    outcome.peak_rss_kb = runner.peak_rss_kb()
    if workload.in_process:
        outcome.layer_seconds, outcome.layer_counts = dict(tracer.seconds), dict(tracer.counts)
    else:
        outcome.layer_seconds, outcome.layer_counts = runner.seconds, runner.counts
        outcome.startup_seconds = runner.startup
    return outcome


def measure_setup(args, workdir: Path) -> tuple[list[float], HostSpeed]:
    """Spawn-to-exit times of a fresh interpreter doing the whole set-up, and the host speed."""
    times = []
    speed = HostSpeed()
    for repeat in range(SETUP_REPEATS):
        for _ in range(SETUP_PROBES):
            speed.probe()
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(workdir / f"setup-{repeat}")]
        if args.smoke:
            cmd.append("--smoke")
        start = perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            sys.exit(f"perfbench: set-up failed with exit code {proc.returncode}")
        shutil.rmtree(workdir / f"setup-{repeat}", ignore_errors=True)
    return times, speed


def set_up(cli, args, workdir: Path):
    """Generate inputs, write them and run the warm-up ops."""
    workload = workloads.build(args.workload, args.seed, workdir, smoke=args.smoke)
    runner = InProcessRunner(cli) if workload.in_process else ProcessRunner(workdir)
    for op in workload.warmup:
        runner.run(op)
    return workload, runner


# ------------------------------------------------------------------- gate


def judge(workload: Workload, outcome: Outcome, reference: dict):
    """Per-sample error flags, plus the parsed solve output per distinct outcome."""
    import gate

    verdicts = {}
    parsed = {}
    for (index, code, digest), stdout in outcome.outputs.items():
        op = workload.ops[index]
        reason = gate.check(op, code, stdout, digest, reference)
        verdicts[(index, code, digest)] = reason
        if reason is None and op.kind == "solve":
            doc = json.loads(stdout)
            parsed[(index, code, digest)] = (doc["count"], doc["proven_optimal"])
    return verdicts, parsed


# ---------------------------------------------------------------- metrics


def end_to_end(workload: Workload, outcome: Outcome, verdicts, parsed, setup_times):
    """End-to-end metrics (None where one does not apply), ops checked, ops failed.

    The plan-quality metrics (pigeon ratio, proven share, frontier) are taken
    over the first pass, whose inputs depend on the seed alone, so they
    repeat exactly for a seed however many passes the run fits.
    """
    samples = [s for p in outcome.passes for s in p.samples]
    latencies = [s.seconds for s in samples]
    checked = samples + [s for p in outcome.traced_passes for s in p.samples]
    errors = sum(verdicts[(s.op_index, s.exit_code, s.digest)] is not None for s in checked)
    pigeons = bound = proven = searched = 0
    unproven_sizes: list[int] = []
    sizes: list[int] = []
    for s in outcome.passes[0].samples:
        op = workload.ops[s.op_index]
        result = parsed.get((s.op_index, s.exit_code, s.digest))
        if op.kind != "solve":
            continue
        if result is not None:
            pigeons += result[0]
            bound += op.instance.component_bound
        if op.algorithm in ("exact", "ilp"):
            searched += 1
            sizes.append(op.instance.nodes)
            if result is not None and result[1]:
                proven += 1
            else:
                unproven_sizes.append(op.instance.nodes)
    metrics = {
        "latency_s_p50": statistics.median(latencies),
        "latency_s_p90": statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0],
        "ops_per_s": len(samples) / sum(p.seconds for p in outcome.passes),
        "pigeon_ratio": pigeons / bound if bound else None,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": outcome.peak_rss_kb / 1024,
        "proven_share": proven / searched if searched else None,
        "frontier_nodes": None,
        "error_share": errors / len(checked),
    }
    if searched and workload.name.startswith("exact-"):
        # Largest n such that every instance of at most n nodes was proven.
        limit = min(unproven_sizes) if unproven_sizes else max(sizes) + 1
        metrics["frontier_nodes"] = max((n for n in sizes if n < limit), default=0)
    return metrics, len(checked), errors


def at_reference_speed(metrics: dict, run_scale: float, setup_scale: float) -> dict:
    """The end-to-end metrics with op times multiplied by ``run_scale`` and set-up by ``setup_scale``."""
    scaled = dict(metrics)
    for name in ("latency_s_p50", "latency_s_p90"):
        scaled[name] = metrics[name] * run_scale
    scaled["ops_per_s"] = metrics["ops_per_s"] / run_scale
    scaled["setup_s"] = metrics["setup_s"] * setup_scale
    return scaled


def run_scale(workload: Workload, outcome: Outcome) -> float:
    """Factor from measured op times to reference-speed ones.

    Only ops that run in this process, on the thread that times the loop,
    are rescaled.  ``cli-large`` ops run as child processes, often on
    another core than the loop: their times did not follow the loop's
    (correlation 0.19 over 50 s), and rescaling widened their spread, so
    they are reported as measured.
    """
    return outcome.speed.scale() if workload.in_process else 1.0


def per_layer(workload: Workload, outcome: Outcome) -> dict:
    """Per-layer metrics; times are rescaled like the end-to-end ones."""
    from tracer import COUNT_METRICS, TIME_METRICS

    passes = len(outcome.traced_passes)
    traced_ops = sum(len(p.samples) for p in outcome.traced_passes)
    metrics = {name: outcome.layer_seconds.get(name, 0.0) / passes for name in TIME_METRICS}
    for name in COUNT_METRICS:
        metrics[name] = outcome.layer_counts.get(name, 0) / passes
    metrics["demand.calls"] = outcome.layer_counts.get("demand.calls", 0) / traced_ops
    metrics["cli.startup_s"] = outcome.startup_seconds / passes
    untraced = statistics.fmean(p.seconds for p in outcome.passes)
    traced = statistics.fmean(p.seconds for p in outcome.traced_passes)
    metrics["trace.overhead_s"] = traced - untraced
    scale = run_scale(workload, outcome)
    return {name: value * scale if layer_unit(name) == "s" else value for name, value in metrics.items()}


def layer_unit(name: str) -> str:
    if name == "jsonutil.bytes":
        return "bytes"
    return "s" if name.endswith("_s") else "count"


# ------------------------------------------------------------ environment


def environment(args, workload: Workload) -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    sources = sorted((SRC / "pigeonpost").glob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": workloads.sha256_bytes(b"".join(p.read_bytes() for p in sources)),
        "limits": dict(zip(("budget", "max_nodes", "max_demands"), LIMITS[args.workload])),
        **workload.meta,
    }


# ------------------------------------------------------------------- main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few cheap instances and no minimum op count (self-test)")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = workloads.import_program()
    if args.setup_only:
        set_up(cli, args, Path(args.setup_only))
        return 0

    import gate

    reference = gate.load_reference()
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup_times, setup_speed = measure_setup(args, workdir)
        workload, runner = set_up(cli, args, workdir / "run")
        min_ops = 1 if args.smoke else MIN_OPS
        if args.trace:
            outcome = measure_traced(workload, runner, args.seconds)
        else:
            outcome = measure(workload, runner, args.seconds, min_ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if getattr(runner, "first_traceback", None):
        sys.stderr.write(runner.first_traceback)

    verdicts, parsed = judge(workload, outcome, reference)
    raw, attempted, failed = end_to_end(workload, outcome, verdicts, parsed, setup_times)
    metrics = at_reference_speed(raw, run_scale(workload, outcome), setup_speed.scale())
    for (index, _code, _digest), reason in sorted(verdicts.items(), key=lambda kv: kv[0][0]):
        if reason is not None:
            print(f"error: {workload.ops[index].key}: {reason}", file=sys.stderr)

    units = dict(END_TO_END + QUALITY)
    timed = sum(len(p.samples) for p in outcome.passes)
    print(f"perfbench {args.workload} seed={args.seed}: {attempted} ops checked in "
          f"{len(outcome.passes)} untraced and {len(outcome.traced_passes)} traced passes, {failed} errors")
    for name, unit in END_TO_END + QUALITY:
        value = metrics[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        extra = f"  (samples={timed})" if name.startswith("latency") else ""
        print(f"  {name:<16} {shown:>12} {unit}{extra}")
    host = {"loop_s_run": outcome.speed.loop_s(), "loop_s_setup": setup_speed.loop_s(),
            "reference_s": hostspeed.REFERENCE_S, "probes": len(outcome.speed.times)}
    print(f"  times above are at reference host speed{'' if workload.in_process else ' (set-up only)'}; reference loop median "
          f"{host['loop_s_run'] * 1e3:.4g} ms in the run, {host['loop_s_setup'] * 1e3:.4g} ms in set-up, "
          f"reference {hostspeed.REFERENCE_S * 1e3:g} ms; as measured: "
          + ", ".join(f"{name} {raw[name]:.6g}" for name in ("latency_s_p50", "latency_s_p90", "ops_per_s", "setup_s")))
    record = {"environment": environment(args, workload), "end_to_end": metrics,
              "end_to_end_as_measured": raw, "host_speed": host}
    if args.trace:
        layers = per_layer(workload, outcome)
        for name in ("proven_share", "frontier_nodes", "error_share"):
            layers[name] = metrics[name] if metrics[name] is not None else 0.0
        for name in sorted(layers):
            print(f"  {name:<30} {layers[name]:>14.6g} {units.get(name) or layer_unit(name)}")
        record["per_layer"] = layers
        reported = {name: {"value": value, "unit": units.get(name) or layer_unit(name)}
                    for name, value in layers.items()}
    else:
        reported = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
