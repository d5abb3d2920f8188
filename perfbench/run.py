#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (the system's libraries from src/ plus the benchmark binary) into
.bench_build/perfbench; later runs rebuild only what changed. The binary's
report goes to stdout and its last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer metrics.
A traced run also writes .bench_out/trace_NAME.json and merges every
workload's spans found there into .bench_out/trace.json, which
chrome://tracing and Perfetto open. `--workload all` runs the five
workloads one after another and prints a summary table.
"""
import argparse
import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ["f100_table2", "tcp_small", "tcp_array", "lines_churn", "mc_gate"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no system sources next to perfbench/ (src/ is missing); run "
             "from the root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   stdout=sys.stderr, check=True)


def run_one(workload, seed, seconds, trace, echo=True):
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--out", OUT],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s printed a malformed result" % workload)
    if echo:
        print("\n".join(lines[:-1]))
    return result


def merge_traces():
    events = []
    files = sorted(glob.glob(os.path.join(OUT, "trace_*.json")))
    for pid, path in enumerate(files, start=1):
        with open(path) as f:
            for event in json.load(f)["traceEvents"]:
                event["pid"] = pid
                events.append(event)
    merged = os.path.join(OUT, "trace.json")
    with open(merged, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    print("merged %d span files into %s" % (len(files), merged))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
        if args.trace:
            merge_traces()
        print(json.dumps(result))
        return

    results = {}
    for workload in WORKLOADS:
        results[workload] = run_one(workload, args.seed, args.seconds,
                                    args.trace, echo=bool(args.trace))
    if args.trace:
        merge_traces()
    names = list(results[WORKLOADS[0]]["metrics"])
    print("%-38s" % "metric" + "".join("%14s" % w[:13] for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        row = "".join("%14.5g" % results[w]["metrics"][name]["value"]
                      for w in WORKLOADS)
        print("%-38s%s" % ("%s [%s]" % (name, unit), row))
    print("%-38s" % "correct / failed" + "".join(
        "%14s" % ("%s/%d" % (results[w]["correct"], results[w]["failed"]))
        for w in WORKLOADS))
    print(json.dumps(results))


if __name__ == "__main__":
    main()
