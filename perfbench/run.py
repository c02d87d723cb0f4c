#!/usr/bin/env python3
"""Outside-in editing benchmark: build the benchmark from source, run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/ (or
$CARGO_TARGET_DIR when set); later runs only re-check the build. The
benchmark's JSON rows and its final summary line go to stdout; build
output and the human-readable table go to stderr. Exit status is the
benchmark's: 0 when every correctness check passed.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main(argv):
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
