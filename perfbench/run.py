#!/usr/bin/env python3
"""Build and run the frame-path benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

perfbench/ is a CMake project of its own that builds the library from the
checkout it sits in, Release, into .bench_build/ at the checkout root. Build
output goes to stderr, so the last line on stdout is the benchmark's result
object. --self-test builds and runs the benchmark's own tests instead.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build(target):
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for command in (configure, ["cmake", "--build", BUILD, "--target", target, "-j", jobs]):
        subprocess.run(command, stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def main(argv):
    target = "perfbench_tests" if argv == ["--self-test"] else "perfbench"
    try:
        binary = build(target)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    args = [] if target == "perfbench_tests" else argv
    os.chdir(ROOT)
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
