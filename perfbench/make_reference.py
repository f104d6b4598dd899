#!/usr/bin/env python3
"""Write perfbench/reference_digests.json, the expected analysis digests.

    python3 perfbench/make_reference.py [first_seed last_seed]

Run from the root of a source checkout. For every workload and every
seed from first_seed to last_seed (default 0 to 63), plus the held-out
seed 9001, the perfbench binary runs the workload's grid and its served
grid cold and prints their analysis.json digests. A benchmark run fails
when its digests differ from the table's, so regenerate the table only
with a change that is meant to alter simulated results.
"""

import json
import os
import subprocess
import sys

import run

HELD_OUT_SEED = 9001


def main():
    first, last = (int(a) for a in sys.argv[1:3]) if len(sys.argv) > 2 \
        else (0, 63)
    build_dir = os.path.join(run.ROOT, ".bench_build", "perfbench")
    run.build(build_dir)
    out_dir = os.path.join(run.ROOT, ".bench_build", "perfbench-out")
    table = {}
    for workload in run.WORKLOADS:
        for seed in list(range(first, last + 1)) + [HELD_OUT_SEED]:
            proc = subprocess.run(
                [os.path.join(build_dir, "perfbench"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", "0", "--out", out_dir,
                 "--digests", "1"],
                stdout=subprocess.PIPE, text=True, check=True)
            row = json.loads(proc.stdout.splitlines()[-1])
            table.setdefault(workload, {})[str(seed)] = {
                "grid": row["grid"], "served": row["served"]}
            print(workload, seed, row["grid"], row["served"],
                  file=sys.stderr)
    with open(os.path.join(run.HERE, "reference_digests.json"), "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
