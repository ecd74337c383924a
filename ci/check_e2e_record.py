#!/usr/bin/env python3
"""Gate on metrics of an e2ebench run record.

e2ebench prints one run record as the last line of standard output:
{"correct", "attempted", "failed", "metrics": {NAME: {"value", "unit"}}}.
This script reads a saved output file, prints the named metrics and
fails (exit 1) when one of them is absent or nonzero, e.g.

    python3 e2ebench/run.py --workload zoo-serial --seed 1 --seconds 1 \
        --trace 1 > zoo-serial.out
    check_e2e_record.py zoo-serial.out --zero check.verdict_mismatch_frac
"""

import argparse
import json
import sys


def last_record(path):
    with open(path) as f:
        lines = [line for line in f if line.startswith("{")]
    if not lines:
        sys.exit(f"{path}: no run record")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("output", help="saved standard output of e2ebench")
    ap.add_argument("--zero", action="append", required=True,
                    metavar="METRIC", help="metric that must read 0")
    args = ap.parse_args()

    metrics = last_record(args.output).get("metrics", {})
    failed = False
    for name in args.zero:
        if name not in metrics:
            print(f"FAIL {name}: missing from the record")
            failed = True
            continue
        value = metrics[name]["value"]
        status = "ok" if value == 0 else "FAIL"
        print(f"{status} {name} = {value}")
        failed = failed or value != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
