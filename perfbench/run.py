#!/usr/bin/env python3
"""Build the session benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload navigate --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --spec > BENCHMARK.json

The build honours CARGO_TARGET_DIR (default: perfbench/target) and never
touches the network. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. The exit code is the benchmark's:
non-zero when the build fails, the run cannot be made, or a correctness
gate fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "isis-perfbench")
    run = subprocess.run([exe, "--out", os.path.join(HERE, "out"), *sys.argv[1:]])
    return 0 if run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
