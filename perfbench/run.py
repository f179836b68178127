#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload <certify|sweep|simulate|serve|all> \
        --seed <n> --seconds <s> --trace <0|1>

The release build goes to $CARGO_TARGET_DIR (default: .bench_build at the
repository root). Build output goes to stderr, so the benchmark's result
stays the last line of stdout. Exits non-zero without printing a result
when the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "roccc-perfbench")
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
