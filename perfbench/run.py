#!/usr/bin/env python3
"""Builds and runs the optabs benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-expected --seed N

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the library sources under src/. It is configured and built into
$CARGO_TARGET_DIR (default .bench_build) on every call; after the first
build that takes a second or two. Build output goes to standard error, so
the last line of standard output is the benchmark's JSON result. A failed
build exits with code 2 and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, env):
    """Configures and builds the benchmark binary; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--target", "optabs_perfbench",
              "-j", jobs]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                  stderr=sys.stderr)
        except OSError as err:
            print(f"perfbench: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def main(argv):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep compiler and benchmark temporaries inside the checkout.
    env = dict(os.environ, TMPDIR=tmp)
    if not build(build_dir, env):
        return 2
    binary = os.path.join(build_dir, "optabs_perfbench")
    cmd = [binary, *argv, "--scratch", build_dir]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
