#!/usr/bin/env python3
"""Build and run the hetflow benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload pegasus-hpc --seed 7 --seconds 10 --trace 0

The first call configures and builds perfbench/ (the hetflow libraries
from src/ plus hetflow_perfbench) into .bench_build/ (or $CARGO_TARGET_DIR);
later calls rebuild only what changed. Build output goes to standard
error, so the last line of standard output is hetflow_perfbench's JSON result.
With --trace 1 the span log is written to .bench_build/spans/.

hetflow_perfbench runs with address-space randomization off where the kernel
allows it: the runtime's pools use 2 MiB huge pages, and where a random
base falls against the 2 MiB grid moves peak RSS by up to a fifth between
runs of one seed.
"""
import argparse
import ctypes
import os
import subprocess
import sys

WORKLOADS = ("pegasus-hpc", "pegasus-workstation", "cluster-observed",
             "serve-tenants")
ADDR_NO_RANDOMIZE = 0x0040000


def build(source_dir, build_dir, env):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", source_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "hetflow_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return os.path.join(build_dir, "hetflow_perfbench")


def fixed_address_space():
    """Runs in the child before exec; failure leaves randomization on."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xffffffff)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(source_dir)
    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    # Keep compiler temporaries inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        binary = build(source_dir, os.path.join(out_dir, "perfbench"), env)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"error: build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(command, env=env,
                          preexec_fn=fixed_address_space).returncode


if __name__ == "__main__":
    sys.exit(main())
