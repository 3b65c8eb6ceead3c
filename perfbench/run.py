#!/usr/bin/env python3
"""Benchmark entry point for stratrec-serve.

Run from the repository root:

    python3 perfbench/run.py --workload hot-cache --seed 1 --seconds 10 --trace 0

Builds the daemon (bin/stratrec_serve.exe) and the benchmark binary
(perfbench/perfbench.exe) from source with dune, then runs the binary,
which starts fresh daemons, drives them over a Unix socket, checks every
answer against an in-process reference and prints one JSON result line.
The build directory is $CARGO_TARGET_DIR when set, else _build.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("cold-adpar", "hot-cache")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--corrupt-reference",
        action="store_true",
        help="alter one reference answer; the run must then fail (self-test)",
    )
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune is not on PATH")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    targets = ["./bin/stratrec_serve.exe", "./perfbench/perfbench.exe"]
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--build-dir", build_dir, *targets],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: build timed out")
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    def built(target):
        return os.path.join(build_dir, "default", target[2:])

    command = [
        built(targets[1]),
        "--server", built(targets[0]),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    # One core for the client, another for the daemon: left to itself the
    # scheduler often stacks the two ping-ponging processes on one core.
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2 and shutil.which("taskset"):
        os.sched_setaffinity(0, {cpus[0]})
        command += ["--server-cpu", str(cpus[1])]
    # perfbench.exe reaps every daemon it starts. It runs in a process group
    # of its own so that a timeout or a signal here stops its daemons too.
    run = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def stop(*_):
        try:
            os.killpg(run.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        run.wait()
        sys.exit("perfbench: run stopped")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
    sys.stdout.write(out)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
