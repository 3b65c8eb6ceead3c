#!/usr/bin/env python3
"""Self-test of the stratrec-serve benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Checks, with one-second runs:
- every workload prints, with --trace 0, exactly the end_to_end metrics of
  BENCHMARK.json and, with --trace 1, exactly its per_layer metrics, each
  with its unit and a finite value, from a correct run with no failures;
- a run whose reference has one corrupted answer exits non-zero and
  reports correct: false;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def check(cond, message, detail=""):
    if not cond:
        sys.exit(f"selftest: FAILED: {message}\n{detail}")
    print(f"selftest: ok: {message}", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            code, result, err = run(["--workload", workload, "--seed", "7",
                                     "--seconds", "1", "--trace", str(trace)])
            what = f"{workload} --trace {trace}"
            check(code == 0 and result is not None, f"{what} exits 0 with a result", err)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{what} is correct with no failures")
            metrics = result["metrics"]
            check(set(metrics) == set(expected[trace]), f"{what} prints every named metric")
            for name, unit in expected[trace].items():
                value = metrics[name]["value"]
                check(metrics[name]["unit"] == unit and isinstance(value, (int, float))
                      and math.isfinite(value), f"{what} {name} = {value} {unit}")

    code, result, _ = run(["--workload", "hot-cache", "--seed", "7", "--seconds", "1",
                           "--trace", "0", "--corrupt-reference"])
    check(code != 0 and result is not None and result["correct"] is False,
          "a corrupted reference answer fails the run")

    bare = os.path.join(ROOT, "perfbench", "_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_run", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env_free = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "hot-cache", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, env=env_free, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and proc.stdout.strip() == "",
          "without the repository the benchmark fails without a result")


if __name__ == "__main__":
    main()
