"""Interleaved timing of one operation in two checkouts, in one interpreter.

Usage: python3 tools/ab_time.py PARENT_ROOT [CHANGE_ROOT] [--op OP] [--n N]
                                [--pairs N] [--warmup N]

Loads rydqudit from PARENT_ROOT/src and from CHANGE_ROOT/src (default: the
checkout holding this script) as two packages of their own names, through
importlib spec loading (the package imports its own modules relatively, so
the two copies never mix).  Each side builds its own inputs.  Then the op
runs alternately on the two sides, --pairs times each, the side that goes
first alternating from pair to pair, and the script prints, as JSON, each
side's median time and the quartiles of the paired ratio change / parent.

Separate benchmark runs on a shared 2-CPU host read unchanged code up to
x1.35 apart, which hides small changes; pairs taken microseconds apart
share the host's slow and fast phases, so their ratio is far steadier.

The ops, all on the generalized Hadamard at ratio 1e-2 and N = --n (default
9, whose schedule holds 668 pulses):
  schedule_operator     the realized operator of the compiled schedule
  extract_gate          the gate and its infidelity to the target, read off
                        the schedule as read back from its JSON document,
                        as the benchmark's simulate step does
  compile_unitary       compiling the gate
  compile_unitary_cold  compiling the gate after clearing every functools
                        cache defined in the side's rydqudit.core and
                        rydqudit.compiler (found by their cache_clear, so the
                        sides may name them differently); the clearing is
                        timed with the compile
  schedule_from_json    reading the schedule's JSON document back

BLAS runs on one thread unless the environment says otherwise.
"""

import argparse
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

RATIO = 1e-2


def load(root: Path, name: str):
    """rydqudit from root/src, imported as the package `name`."""
    package = root / "src" / "rydqudit"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def make_op(rq, op: str, N: int):
    """A no-argument callable running op at N atoms with rq's own inputs."""
    goal = rq.hadamard_target(N)
    opts = rq.CompileOptions(omega_01=RATIO)
    if op == "compile_unitary":
        return lambda: rq.compile_unitary(goal, opts)
    if op == "compile_unitary_cold":
        caches = [f for module in (rq.core, rq.compiler) for f in vars(module).values()
                  if hasattr(f, "cache_clear") and f.__module__ == module.__name__]

        def cold():
            for f in caches:
                f.cache_clear()
            rq.compile_unitary(goal, opts)
        return cold
    schedule = rq.compile_unitary(goal, opts)
    if op == "schedule_operator":
        return lambda: rq.schedule_operator(schedule)
    text = rq.schedule_to_json(schedule)
    if op == "schedule_from_json":
        return lambda: rq.schedule_from_json(text)
    if op == "extract_gate":
        back = rq.schedule_from_json(text)
        return lambda: rq.extract_gate(back, goal)
    raise ValueError(f"unknown op {op!r}")


def timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?",
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--op", default="schedule_operator",
                        choices=("schedule_operator", "extract_gate", "compile_unitary",
                                 "compile_unitary_cold", "schedule_from_json"))
    parser.add_argument("--n", type=int, default=9)
    parser.add_argument("--pairs", type=int, default=300)
    parser.add_argument("--warmup", type=int, default=5)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.warmup < 0:
        parser.error("--pairs must be >= 1 and --warmup >= 0")
    calls = [make_op(load(root.resolve(), name), args.op, args.n)
             for root, name in ((args.parent, "rydqudit_parent"),
                                (args.change, "rydqudit_change"))]
    for _ in range(args.warmup):      # fills each side's caches
        for call in calls:
            call()
    times: list[list[float]] = [[], []]
    for k in range(args.pairs):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        for side in order:
            times[side].append(timed(calls[side]))
    ratios = [c / p for p, c in zip(*times)]
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(json.dumps({
        "op": args.op,
        "N": args.n,
        "pairs": args.pairs,
        "parent_median_s": statistics.median(times[0]),
        "change_median_s": statistics.median(times[1]),
        "ratio_quartiles": [q1, median, q3],
        "change_faster_frac": sum(r < 1.0 for r in ratios) / len(ratios),
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
