#!/usr/bin/env python3
"""Run one workload of the diogenes end-to-end benchmark.

    python3 perfbench/run.py --workload <cuibm_paper|als_paper|serve_mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `diogenes` binary and the
benchmark package (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the benchmark binary, whose last stdout line
is the JSON result. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["cuibm_paper", "als_paper", "serve_mix"]
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(os.path.basename(HERE), "out")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = p.parse_args()
    if a.seed < 0 or not 1 <= a.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in 1..3600")

    root = os.path.dirname(HERE)
    for need in ["Cargo.toml", "crates/diogenes/Cargo.toml", "crates/core/Cargo.toml"]:
        if not os.path.isfile(os.path.join(root, need)):
            fail(f"{need} not found: run from a checkout of the repository")

    target = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "diogenes", "--bin", "diogenes"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr; stdout carries only the result.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))

    bench = os.path.join(target, "release", "perfbench")
    cmd = [bench, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--diogenes", os.path.join(target, "release", "diogenes"),
           "--out", OUT]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
