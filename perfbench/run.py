#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload oracle|fig7|fleet --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perfbench/bench.exe with
dune into .bench_build, runs the workload in its own process, then runs
the exact-count segment again in a second process with the same seed
and checks that every exact count repeats.  Prints the machine
fingerprint, the exact counts and the timings before host-speed scaling
(see NOTES.md), and as the last line one JSON object
with the keys correct, attempted, failed and metrics.  Exits non-zero
without a result when the checkout cannot be built or a run fails.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ("oracle", "fig7", "fleet")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 150
COUNT_TIMEOUT_S = 45


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a source checkout (dune-project and lib/ not found)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "./perfbench/bench.exe"]
    try:
        p = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die("dune not found")
    except subprocess.TimeoutExpired:
        die("build timed out")
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        die("build failed")


def bench(args, count_only, timeout):
    # Both processes get command lines of equal length (see bench.ml).
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--count-only", "1" if count_only else "0"]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die("%s run timed out" % args.workload)
    if p.returncode != 0 or not p.stdout.strip():
        sys.stderr.write(p.stderr)
        die("%s run failed with exit code %d" % (args.workload, p.returncode))
    return json.loads(p.stdout.strip().splitlines()[-1])


def first_line(path, key):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def fingerprint(res):
    mem = first_line("/proc/meminfo", "MemTotal")
    return {
        "nproc": os.cpu_count(),
        "mem_total_kb": int(mem.split()[0]) if mem else None,
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "ocaml": res["ocaml"],
        "domains": res["domains"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")

    build()
    res = bench(args, count_only=False, timeout=RUN_TIMEOUT_S)
    again = bench(args, count_only=True, timeout=COUNT_TIMEOUT_S)

    problems = list(res["errors"])
    # Counts are compared as printed (17 significant digits): exact.
    if json.dumps(res["counts"], sort_keys=True) != json.dumps(again["counts"], sort_keys=True):
        problems.append("exact counts differ between two runs of seed %d: %s vs %s"
                        % (args.seed, res["counts"], again["counts"]))
    for msg in res["failures"]:
        print("perfbench: failed operation: " + msg, file=sys.stderr)
    for msg in problems:
        print("perfbench: " + msg, file=sys.stderr)
    for name, m in res["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            die("metric %s was not measured (%s)" % (name, "; ".join(problems)))

    print(json.dumps({"machine": fingerprint(res)}))
    info = {k: res[k] for k in ("workload", "seed", "counts", "unscaled", "op_ms_per_op", "self_ms_per_op")
            if k in res}
    print(json.dumps(info))
    attempted, failed = int(res["attempted"]), int(res["failed"])
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": res["metrics"],
    }))


if __name__ == "__main__":
    main()
