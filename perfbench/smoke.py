"""Smoke test of the benchmark itself.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json for one second, timed and traced.
Each run must exit 0 with a correct result, no failed op, and every metric
of its mode printed by name with the unit BENCHMARK.json gives it; every
end-to-end metric must be non-zero.  Then runs the benchmark in a directory
that holds only BENCHMARK.json and the benchmark's files, where it must
exit non-zero without printing a result.  Exits 1 if anything failed.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted={result.get('attempted')}")
    named = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    extra = set(metrics) - {m["name"] for m in named}
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    for m in named:
        entry = metrics.get(m["name"])
        if entry is None:
            problems.append(f"{where}: {m['name']} missing")
            continue
        value = entry.get("value")
        if entry.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {entry.get('unit')!r} != {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} value {value!r}")
        elif not trace and value == 0:
            problems.append(f"{where}: {m['name']} is 0")
    if not trace and metrics.get("pass_frac", {}).get("value") != 1.0:
        problems.append(f"{where}: some ops failed (pass_frac != 1)")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    bare = os.path.join(ROOT, ".perfbench_out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit code {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_result(spec, workload["name"], trace)
            print(f"{'FAIL' if found else 'ok'}: {workload['name']} --trace {trace}")
            problems += found
    found = check_bare_directory(spec)
    print(f"{'FAIL' if found else 'ok'}: directory without sources")
    problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
