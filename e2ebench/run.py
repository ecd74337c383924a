#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see e2ebench/README.md).

    python3 e2ebench/run.py --workload zoo-serial --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the benchmark package (Release) on
first use into $CARGO_TARGET_DIR/e2ebench, or .bench_build/e2ebench when
that variable is unset, then runs one workload. The last line of standard
output is the run record: {"correct", "attempted", "failed", "metrics"}.

    python3 e2ebench/run.py --selftest    # build and run the logic tests
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "e2ebench")


def build(out, env):
    """Configures and builds the package; build output goes to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            sys.exit("e2ebench: build failed: " + " ".join(step))


def main(argv):
    out = build_dir()
    # Temporary files (the compiler's too) stay inside the build tree.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    build(out, env)
    if argv == ["--selftest"]:
        return subprocess.run([os.path.join(out, "e2ebench_selftest")],
                              env=env).returncode
    command = [
        os.path.join(out, "e2ebench"),
        "--reference", os.path.join(HERE, "reference"),
        "--out", os.path.join(out, "out"),
    ] + argv
    return subprocess.run(command, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
