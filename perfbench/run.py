#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default perfbench/target); its
output goes to standard error, so the last line of standard output is
the benchmark's JSON result. Exits non-zero, printing no result, when
the build or any output check fails.
"""

import os
import subprocess
import sys


def main():
    manifest = os.path.join("perfbench", "Cargo.toml")
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join("perfbench", "target"))
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
