#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go build cache and the binary live under .bench_build/ (or
$CARGO_TARGET_DIR when set) in the current directory, so a run reads and
writes nothing outside the checkout. The exit code is the benchmark's.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
    )
    exe = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([exe, *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
