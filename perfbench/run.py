#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run it.

Run from the repository root:

    python3 perfbench/run.py --workload churn-flashcrowd --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary (see main.go). The Go
build cache, the binary and the span files all live under .bench_build
at the repository root, so the benchmark writes nothing outside the
checkout. The build needs the repository's own sources next to this
directory: in a directory that holds only the benchmark it fails, and
this script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
