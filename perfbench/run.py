"""Benchmark of rydqudit: one workload, timed or traced, one JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client and one op in flight.  It
runs for S seconds, and at least until every input of its pool has run once.
Every op's outputs are checked.  With --trace 0 the last line of standard
output carries the end-to-end metrics of BENCHMARK.json; with --trace 1 it
carries the per-layer metrics, measured with the span tracer on every other
op.  The line before it is a report with provenance and sample counts.
Spans and reports are also written under .perfbench_out/ in the checkout.
If an op fails a check, the result says correct=false, leaves out the
metrics that cannot be computed, and the exit code is 1.
"""

import os

# Fixed before numpy loads OpenBLAS; 1 is at most nproc on any machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("RYDQUDIT_OUTPUT_DIR", None)     # cli.write_atomic would redirect

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 5
TAIL_BEYOND = 10    # op_tail_s: highest percentile with this many samples beyond it


def measure_setup() -> list[float]:
    """Seconds from launching a fresh interpreter to its being ready for an op."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        out = subprocess.run([sys.executable, probe, ROOT], capture_output=True,
                             text=True, timeout=60, check=True)
        samples.append((int(out.stdout.split()[-1]) - t0) / 1e9)
    return samples


def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with TAIL_BEYOND samples above it.

    With no more than TAIL_BEYOND samples no rank qualifies; the maximum is
    returned at percentile 100.
    """
    s = sorted(samples)
    rank = len(s) - TAIL_BEYOND if len(s) > TAIL_BEYOND else len(s)
    return s[rank - 1], 100.0 * rank / len(s)


def timed_run(runner, order, seconds, setup) -> tuple[dict, dict]:
    times, compile_s, simulate_s = [], [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < len(order):
        result = runner.run(order[i % len(order)])
        i += 1
        if result is not None:
            times.append(result[0])
            compile_s.append(result[1]["compile"])
            simulate_s.append(result[1]["simulate"])
    loop_s = time.perf_counter() - start
    passed = {inp.key: runner.outcomes[inp.key] for inp in order if inp.key in runner.outcomes}
    refs = {inp.key: passed[inp.key] for inp in order if inp.reference and inp.key in passed}
    every_ref = len(refs) == sum(inp.reference for inp in order)
    seeded = [passed[inp.key].error for inp in order if not inp.reference and inp.key in passed]
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": (runner.attempted - runner.failed) / runner.attempted,
    }
    report = {
        "op_samples": len(times),
        "samples_s": {"op": times, "compile": compile_s, "simulate": simulate_s},
        "loop_s": loop_s,
        "setup_samples_s": setup,
        "fail_frac": runner.failed / runner.attempted,
        "inputs_never_passed": [inp.key for inp in order if inp.key not in passed],
        "error_max_seeded": max(seeded, default=None),
        "schedule_sha256": {k: o.schedule_sha256 for k, o in refs.items() if o.schedule_sha256},
    }
    if times:
        tail_s, report["op_tail_percentile"] = tail(times)
        metrics.update(
            op_p50_s=statistics.median(times),
            op_tail_s=tail_s,
            ops_per_s=len(times) / math.fsum(times),
            compile_p50_s=statistics.median(compile_s),
            simulate_p50_s=statistics.median(simulate_s),
        )
    if every_ref:
        metrics.update(
            schedule_T=math.fsum(o.duration for o in refs.values()) / len(refs),
            error_max=max(o.error for o in refs.values()),
        )
    return metrics, report


def traced_run(runner, order, seconds, names) -> tuple[dict, dict]:
    """Untraced and traced ops alternate on the same inputs."""
    untraced, traced = [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        inp = order[i % len(order)]
        result = runner.run(inp)
        if result is not None:
            untraced.append(result[0])
        result = runner.run(inp, op_id=i)
        if result is not None:
            traced.append(result[0])
        i += 1
    own = {"trace.op_p50_s", "trace.overhead"}
    metrics = runner.tracer.summary([n for n in names if n not in own])
    if traced:
        metrics["trace.op_p50_s"] = statistics.median(traced)
        if untraced:
            metrics["trace.overhead"] = (statistics.median(traced)
                                         / statistics.median(untraced) - 1.0)
    report = {"traced_ops": len(traced), "untraced_ops": len(untraced),
              "spans": len(runner.tracer.spans)}
    return metrics, report


def main() -> int:
    loadavg = os.getloadavg()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "rydqudit", "__init__.py")):
        print(f"error: no rydqudit sources under {SRC}", file=sys.stderr)
        return 2

    setup = measure_setup() if args.trace == 0 else []
    sys.path.insert(0, SRC)
    import rydqudit

    if not os.path.abspath(rydqudit.__file__).startswith(SRC + os.sep):
        print(f"error: rydqudit was imported from {rydqudit.__file__}", file=sys.stderr)
        return 2
    import provenance
    import tracer
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.make(args.workload, OUT_DIR)
    order = workload.inputs(args.seed)
    random.Random(args.seed).shuffle(order)
    runner = workloads.Runner(workload, tracer.Tracer(rydqudit) if args.trace else None)
    runner.run(order[0])                    # warm-up: fills first-call caches

    if args.trace:
        names = spec["per_layer"]
        values, report = traced_run(runner, order, args.seconds, [m["name"] for m in names])
    else:
        names = spec["end_to_end"]
        values, report = timed_run(runner, order, args.seconds, setup)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names if m["name"] in values}
    correct = runner.failed == 0
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, attempted=runner.attempted, failed=runner.failed,
                  provenance=provenance.collect(ROOT, loadavg, BLAS_THREADS))
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        runner.tracer.write(stem + "-spans.tsv")
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    with open(stem + ".json", "w") as fh:
        json.dump({"report": report, "result": result}, fh, indent=2)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
