#!/usr/bin/env python3
"""Build ladderbench from source and run it.

Run from the root of a checkout:

    python3 ladderbench/run.py --workload dram320-t1 --seed 1 --seconds 25 --trace 0

The first call configures and builds the library and the benchmark into
$CARGO_TARGET_DIR/ladderbench (default .bench_build/ladderbench); later
calls only re-check the build.  Every argument is passed on to the
ladderbench binary, whose last stdout line is the JSON result.  Build
output goes to stderr.  Exit code: the binary's, or 3 when the build fails
(for example in a directory that does not hold the library's sources).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "ladderbench")


def build(out):
    """Configures (once) and builds the ladderbench target; True on success."""
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "ladderbench", "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return True


def main(argv):
    out = build_dir()
    if not build(out):
        # A failed configure must not leave a cache that skips it next time.
        cache = os.path.join(out, "CMakeCache.txt")
        if os.path.exists(cache):
            os.remove(cache)
        print("ladderbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(out, "ladderbench")
    record = os.path.join(out, "records.jsonl")
    proc = subprocess.Popen([binary, "--record", record] + argv)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
