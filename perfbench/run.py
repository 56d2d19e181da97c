#!/usr/bin/env python3
"""Build the engine benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and
builds a Release build of the program's libraries and the benchmark
binary, perfbench_engine, into .bench_build/ (or $CARGO_TARGET_DIR);
later runs only check that the build is current.  Build output goes
to standard error; the workload's output, ending in its JSON result
line, goes to standard output.  The arguments go to the binary as
they are; it checks them.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run exits well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds perfbench_engine; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configure until a configure has succeeded; after that the
        # build step re-runs CMake itself when a CMakeLists.txt changes.
        if not os.path.exists(os.path.join(out, "Makefile")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        jobs = str(max(1, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                        "perfbench_engine"], stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench_engine")


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 1
    # The binary checks the arguments and prints its usage on a bad one.
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: the run did not finish within %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
