#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and
builds perfbench (and the rfl library it measures) under .bench_build/;
later runs only rebuild what changed. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid-stream", "grid-latency")


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: the rfl sources (CMakeLists.txt, src/) are not "
              "next to perfbench/; nothing to build", file=sys.stderr)
        return 2

    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".bench_build", "perfbench-out")
    proc = subprocess.run(
        [os.path.join(build_dir, "perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--out", out_dir,
         "--reference", os.path.join(HERE, "reference_digests.json")],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        print("perfbench: no result", file=sys.stderr)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)

    # The harness prints every metric it measured; the result line
    # carries exactly the ones BENCHMARK.json lists for this mode.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace == "1"
                              else "end_to_end"]
    result = json.loads(lines[-1])
    missing = [m["name"] for m in listed
               if m["name"] not in result["metrics"]]
    if missing:
        print(f"perfbench: metrics not measured: {missing}",
              file=sys.stderr)
        return proc.returncode or 1
    result["metrics"] = {m["name"]: result["metrics"][m["name"]]
                         for m in listed}
    print(json.dumps(result))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
