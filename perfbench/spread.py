#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--seconds 20] [--workloads hot-cache ...] [--out FILE]
    python3 perfbench/spread.py --traced FILE [--seconds 10] [--workloads ...]
    python3 perfbench/spread.py --compare FIRST LATER... [--out FILE]

Runs perfbench/run.py --trace 0 once per seed (seeds first-seed onwards) on each
workload, one run at a time, and reports for every end-to-end metric the
median, the quartiles (statistics.quantiles(values, n=4)) and the
interquartile range as a share of the median, next to the metric's bound
from BENCHMARK.json. Writes the table as JSON to --out when given, with
nproc and the load average before and after the runs.

--traced runs each workload once with --trace 1 (seed 1) and writes each
result line, with the run's summary line from stderr, to FILE.

--compare reads such tables, taken at different times, and reports per
workload and metric how far each later median lies from the first, as a
share of the first: in either direction, and in the metric's worse
direction, each against the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

def utc_now():
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace=0):
    """The run's result object and its summary line from stderr."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"spread: {workload} seed {seed} failed with exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"spread: {workload} seed {seed} was not correct")
    summary = [l for l in proc.stderr.splitlines() if "answers checked" in l]
    return result, summary[-1] if summary else None


def compare(bench, first_path, later_paths):
    """Medians of each later table against the first, per workload and metric."""
    def load(path):
        with open(path) as f:
            return json.load(f)

    first = load(first_path)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"first": first_path, "later": {}}
    for path in later_paths:
        later = load(path)
        workloads = {}
        for workload, table in first["workloads"].items():
            rows = {}
            for name, a in table.items():
                b = later["workloads"][workload][name]
                change = (b["median"] - a["median"]) / a["median"]
                worse = change if better[name] == "lower" else -change
                rows[name] = {
                    "first_median": a["median"], "later_median": b["median"],
                    "change": change, "worse_share": worse, "bound": bounds[name],
                    "within_bound_both_ways": abs(change) <= bounds[name],
                    "within_bound_worse_way": worse <= bounds[name],
                }
                print(f"{path}: {workload:15s} {name:24s} {a['median']:12.4f} -> "
                      f"{b['median']:12.4f}  change {change:+7.4f}  bound {bounds[name]}",
                      flush=True)
            workloads[workload] = rows
        report["later"][path] = workloads
    return report


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out")
    parser.add_argument("--traced")
    parser.add_argument("--compare", nargs="+", metavar="TABLE")
    args = parser.parse_args()

    if args.compare:
        if len(args.compare) < 2:
            parser.error("--compare needs the first table and at least one later one")
        report = compare(bench, args.compare[0], args.compare[1:])
        if args.out:
            with open(args.out, "w") as f:
                json.dump(report, f, indent=1)
                f.write("\n")
        return
    if args.traced:
        report = {"nproc": os.cpu_count(), "loadavg_before": os.getloadavg(),
                  "seed": 1, "seconds": args.seconds, "workloads": {}}
        for workload in args.workloads:
            result, summary = run_once(workload, 1, args.seconds, trace=1)
            report["workloads"][workload] = {"summary": summary, "result": result}
        report["loadavg_after"] = os.getloadavg()
        with open(args.traced, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
        return

    report = {
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "started": utc_now(),
        "runs": args.runs,
        "seconds": args.seconds,
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "workloads": {},
    }
    for workload in args.workloads:
        values = {}
        for seed in report["seeds"]:
            result, _ = run_once(workload, seed, args.seconds)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        table = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            table[name] = {
                "median": med, "q1": q1, "q3": q3,
                "iqr_share": (q3 - q1) / med, "bound": bounds.get(name), "values": vs,
            }
            print(f"{workload:15s} {name:24s} median {med:12.4f}  IQR/median {(q3 - q1) / med:7.4f}"
                  f"  bound {bounds.get(name)}", flush=True)
        report["workloads"][workload] = table
    report["loadavg_after"] = os.getloadavg()
    report["finished"] = utc_now()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
