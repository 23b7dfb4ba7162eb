"""qkdrates benchmark: seeded workloads timed end to end, checked against
references, and traced per layer in a separate run.

Usage, from the root of a checkout (the package need not be installed):

    python3 bench/run.py --workload figure-sweeps --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --all            # every workload at the default seed

Each workload is a single-process closed loop: one caller, the next op
starts when the previous one returns, no think time. After one untimed
warm-up op, each op runs on the program and on the frozen baseline in
bench/baseline, until all op times sum to --seconds; every output of the
program is checked after its op, outside the timed region.

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json. With --trace 1 the ops of one fixed
pass (the first ops of the seeded sequence) run alternately untraced and
traced until --seconds have passed; the metrics are the per-layer ones:
counts of the first traced pass and median times over traced passes.
Earlier lines give the workload-specific metrics, the tail percentile and
its sample count, the measured input properties and the environment; the
full record goes to bench/out/results/ and spans to bench/out/traces/.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Pin BLAS and OpenMP pools to one thread before anything imports numpy, so
# the closed loop never runs more threads than it has cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import time
from collections import Counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
BASELINE_DIR = ROOT / "bench" / "baseline"
WORKLOAD_NAMES = ("figure-sweeps", "point-queries", "verify-all")
# Statistics of the frozen baseline (bench/baseline, the package as it was
# when the benchmark was defined) on the defining host in a quiet minute. They
# fix the unit of the time metrics: a program as fast as the baseline reads
# these values whatever the host's speed during the run.
BASELINE_REFERENCE = {
    "setup_s": 0.095,
    "figure-sweeps": {"op_ms_p50": 78.0, "ops_per_s": 7.3},
    "point-queries": {"op_ms_p50": 0.70, "ops_per_s": 336.0},
    "verify-all": {"op_ms_p50": 1800.0, "ops_per_s": 0.55},
}
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _execute(op, tracer=None, call=None):
    """Run one op: (seconds, result or None, error or None). prepare is untimed.

    call defaults to op.call; pass op.baseline to time the frozen baseline.
    """
    if op.prepare is not None:
        op.prepare()
    call = call or op.call
    if tracer is not None:
        call = tracer.span("bench.op", call)
    start = time.perf_counter()
    try:
        result = call()
    except Exception as err:  # a failing op is counted, and the loop goes on
        return time.perf_counter() - start, None, f"raised {err!r}"
    return time.perf_counter() - start, result, None


class Ledger:
    """Counts attempted and failed ops, their problems and input tallies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.tallies: Counter = Counter()

    def judge(self, op, result, error, tally: bool = True) -> None:
        """Check one op's outcome; tally its input properties if tally is set."""
        self.attempted += 1
        if error is None:
            try:
                problems, tallies = op.check(result)
            except Exception as err:  # a check that breaks is a failed op
                problems, tallies = [f"check raised {err!r}"], {}
        else:
            problems, tallies = [error], {}
        if tally:
            self.tallies.update(op.tallies)
            self.tallies.update(tallies)
        if problems:
            self.fail(f"{op.kind}: {'; '.join(problems)}")

    def fail(self, problem: str) -> None:
        """Count one failed op, keeping the first 20 problems."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def timed_run(workload, seconds: float, ledger: Ledger, setup: tuple) -> dict:
    """Time the seeded op sequence on the program and on the frozen baseline.

    Each op runs on both, in alternating order, until all op times sum to
    seconds. A time metric is the program's statistic scaled by the
    baseline's reference value over the baseline's statistic from the same
    run, so a slowdown of the host that lasts the whole run cancels.
    """
    from metrics import median, tail

    warm_up = workload.op(0)
    ledger.judge(warm_up, *_execute(warm_up)[1:], tally=False)
    _execute(warm_up, call=warm_up.baseline)
    samples = []
    index = 0
    spent = 0.0
    while spent < seconds:
        op = workload.op(index)
        began = time.perf_counter()
        if index % 2:
            base = _execute(op, call=op.baseline)
        elapsed, result, error = _execute(op)
        if not index % 2:
            base = _execute(op, call=op.baseline)
        spent += elapsed + base[0]
        samples.append((op.kind, elapsed, base[0], began))
        ledger.judge(op, result, error)
        if base[2] is not None:
            ledger.fail(f"baseline {op.kind}: {base[2]}")
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for op in workload.reference_ops():
        ledger.judge(op, *_execute(op)[1:], tally=False)

    times = [s[1] for s in samples]
    base_times = [s[2] for s in samples]
    reference = BASELINE_REFERENCE[workload.name]
    p50, base_p50 = median(times), median(base_times)
    rate, base_rate = len(times) / sum(times), len(base_times) / sum(base_times)
    setup_times, base_setup_times = setup
    setup_s = median(setup_times) * BASELINE_REFERENCE["setup_s"] / median(base_setup_times)

    op_tail = tail(times)
    by_kind: dict = {}
    for kind, s, b, _ in samples:
        by_kind.setdefault(kind, ([], []))
        by_kind[kind][0].append(s)
        by_kind[kind][1].append(b)
    extra = {
        "raw.setup_s": (median(setup_times), "s"),
        "raw.op_ms_p50": (p50 * 1e3, "ms"),
        "raw.ops_per_s": (rate, "1/s"),
        "baseline.setup_s": (median(base_setup_times), "s"),
        "baseline.op_ms_p50": (base_p50 * 1e3, "ms"),
        "baseline.ops_per_s": (base_rate, "1/s"),
        "raw.op_ms_tail": (op_tail["value"] * 1e3, "ms"),
        "raw.op_ms_tail.percentile": (op_tail["percentile"], "%"),
        "raw.op_ms_tail.beyond": (op_tail["beyond"], "count"),
        "ops_timed": (len(times), "count"),
    }
    counts = ledger.tallies
    if workload.name == "figure-sweeps":
        extra["raw.sweep_rows_per_s"] = (counts["rows"] / sum(times), "1/s")
        extra["optimized_row_share"] = (counts["optimized_rows"] / counts["rows"], "ratio")
        extra["zero_rate_optimization_share"] = (
            counts["zero_rate_optimized_rows"] / counts["optimized_rows"], "ratio")
    if workload.name == "point-queries":
        for kind, scale, unit in (("rate", 1e6, "us"), ("optimize", 1e3, "ms"), ("cutoff", 1e3, "ms")):
            own, base = (median(v) for v in by_kind[kind])
            extra[f"raw.{kind}_{unit}_p50"] = (own * scale, unit)
            extra[f"{kind}_vs_baseline"] = (own / base, "ratio")
        extra["zero_rate_optimization_share"] = (
            counts["zero_rate_optimizations"] / counts["optimize_queries"], "ratio")
    extra["failed_share"] = (ledger.failed / ledger.attempted, "ratio")
    return {
        "metrics": {
            "setup_s": setup_s,
            "op_ms_p50": p50 / base_p50 * reference["op_ms_p50"],
            "ops_per_s": rate / base_rate * reference["ops_per_s"],
            "peak_rss_mb": peak_rss_mb,
        },
        "extra": extra,
        "samples": [list(s) for s in samples],
        "setup_samples": {"program": setup_times, "baseline": base_setup_times},
    }


def traced_run(workload, seconds: float, ledger: Ledger) -> dict:
    """Alternate untraced and traced passes of a fixed op list."""
    import tracing
    from qkdrates import cli

    namespaces = tracing.namespaces()
    ops = [workload.op(i) for i in range(workload.trace_pass_len)]

    def one_pass(tracer=None):
        wall = 0.0
        outcomes = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            elapsed, result, error = _execute(op, tracer)
            wall += elapsed
            outcomes.append((op, result, error))
        return wall, outcomes

    def judge_all(outcomes, tally):
        for op, result, error in outcomes:
            ledger.judge(op, result, error, tally)

    judge_all(one_pass()[1], tally=False)
    tracer = tracing.Tracer()
    untraced, traced, per_pass, recorded = [], [], [], []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        wall, outcomes = one_pass()
        untraced.append(wall)
        judge_all(outcomes, tally=not traced)
        tracer.install(namespaces, cli.VERIFY_SUITES)
        try:
            wall, outcomes = one_pass(tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        judge_all(outcomes, tally=False)
        spans, counters = tracer.drain()
        per_pass.append(tracing.layer_metrics(spans, counters))
        recorded.append({
            "spans": spans,
            "counters": [[name, parent, *values] for (name, parent), values in counters.items()],
        })
    for op in workload.reference_ops():
        ledger.judge(op, *_execute(op)[1:], tally=False)

    metrics, unstable = tracing.combine_passes(per_pass)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
    return {
        "metrics": metrics,
        "extra": {
            "traced_passes": (len(traced), "count"),
            "ops_per_pass": (len(ops), "count"),
            "failed_share": (ledger.failed / ledger.attempted, "ratio"),
        },
        "unstable_counts": unstable,
        "trace_record": recorded,
    }


def run_workload(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BASELINE_DIR)]
    import metrics
    import workloads

    load = os.getloadavg()
    env = metrics.environment(ROOT, args.seed, load)
    scratch = OUT / "inputs" / f"{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    try:
        baseline = workloads.library("qkdrates_baseline")
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, scratch, baseline)
        if args.trace:
            run = traced_run(workload, args.seconds, ledger)
        else:
            run = timed_run(workload, args.seconds, ledger, metrics.measure_setup(ROOT))
    finally:
        for leftover in scratch.iterdir():
            leftover.unlink()
        scratch.rmdir()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_record = run.pop("trace_record", None)
    if trace_record is not None:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        (OUT / "traces" / f"{tag}.json").write_text(json.dumps({"passes": trace_record}))
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        **run,
        "tallies": dict(sorted(ledger.tallies.items())),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))

    units = END_TO_END if not args.trace else {}
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(env)}")
    for name, (value, unit) in run["extra"].items():
        print(f"{name}: {value:.6g} {unit}")
    if ledger.tallies:
        print(f"# tallies {json.dumps(dict(sorted(ledger.tallies.items())))}")
    if run.get("unstable_counts"):
        print(f"# counts differing between passes: {run['unstable_counts']}")
    for problem in ledger.problems:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, _layer_unit(name))}
            for name, value in run["metrics"].items()
        },
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_share") or name.endswith("_per_call"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            status = 1
            continue
        summary = json.loads(done.stdout.splitlines()[-1])
        record = json.loads((OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        for metric, entry in summary["metrics"].items():
            rows.append((name, metric, entry["value"], entry["unit"]))
        for metric, (value, unit) in record["extra"].items():
            rows.append((name, metric, value, unit))
        for tally, value in record["tallies"].items():
            rows.append((name, f"tally.{tally}", value, "count"))
        status |= 0 if summary["correct"] else 1
    print(f"{'workload':<15} {'metric':<58} {'value':>14}  unit")
    for name, metric, value, unit in rows:
        print(f"{name:<15} {metric:<58} {value:>14.6g}  {unit}")
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "qkdrates" / "cli.py").is_file():
        print(f"error: no qkdrates sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
