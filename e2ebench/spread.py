#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end benchmark.

    python3 e2ebench/spread.py --workload zoo-serial --seeds 1-10 [--trace 0]

Runs e2ebench/run.py once per seed (sequentially), keeps every run
record under .bench_build/e2ebench/records/, and prints for each metric
the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the bound BENCHMARK.json gives it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    records = os.path.join(ROOT, ".bench_build", "e2ebench", "records")
    os.makedirs(records, exist_ok=True)

    values = {}
    for seed in args.seeds:
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]),
                   "--trace", args.trace]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
        name = "%s-s%d-t%s.txt" % (args.workload, seed, args.trace)
        with open(os.path.join(records, name), "w") as f:
            f.write(done.stdout)
        if done.returncode != 0 or not last.startswith("{"):
            print("seed %d: exit %d" % (seed, done.returncode))
            continue
        record = json.loads(last)
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, record["correct"], record["attempted"], record["failed"]))
        for metric, entry in record["metrics"].items():
            values.setdefault(metric, []).append(entry["value"])

    for metric, sample in values.items():
        mid = statistics.median(sample)
        q = statistics.quantiles(sample, n=4) if len(sample) > 1 else [mid] * 3
        share = (q[2] - q[0]) / mid if mid else 0.0
        bound = bounds.get(metric)
        print("%-32s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s" % (
            metric, mid, q[0], q[2], share,
            "" if bound is None else "  (bound %.2f)" % bound))


if __name__ == "__main__":
    main()
