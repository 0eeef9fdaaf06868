#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The driver is built with dune into
$CARGO_TARGET_DIR (default .bench_build) under the checkout; spans of
traced runs and temporary trace files go to <that dir>/perfbench.  The
driver's last line of output is the JSON result.  See README.md here.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sim-stat", "reach-untimed", "reach-timed", "replicate-isa")

# A run measures for --seconds, then runs its checks (and, traced, its
# ablations); nothing it does takes this long on a working build.
RUN_TIMEOUT_S = 170


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: dune not found")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = os.getcwd()
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "dune")
    out_dir = os.path.join(build_root, "perfbench")
    os.makedirs(out_dir, exist_ok=True)

    build = dune_command() + [
        "build", "--root", root, "--build-dir", build_dir,
        "--profile", "release", "--cache", "disabled", "-j", "2",
        "--display", "quiet",
        "./perfbench/driver.exe",
    ]
    if subprocess.run(build, cwd=root, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: building the driver failed")

    driver = os.path.join(build_dir, "default", "perfbench", "driver.exe")
    cmd = [
        driver, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", out_dir,
    ]
    try:
        code = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("run.py: driver exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
