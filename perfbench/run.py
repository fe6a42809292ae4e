#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <lifecycle|fleet|align|recovery> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench_driver from the repository's sources into .bench_build/
(incrementally; the first build takes a few minutes), runs it from the
repository root, and relays its standard output, whose last line is the
driver's JSON result. Build output goes to standard error. Exits non-zero
when the sources are missing, the build fails, a check fails, or the
driver overruns its time limit. --self-test builds and runs the
benchmark's own unit tests instead.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("lifecycle", "fleet", "align", "recovery")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds `target`; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: repository sources not found next to perfbench/",
              file=sys.stderr)
        return False
    commands = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        commands.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    commands.append(["cmake", "--build", BUILD_DIR, "--target", target,
                     "-j", jobs])
    for command in commands:
        try:
            result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                                    stderr=sys.stderr,
                                    timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"perfbench: build failed: {error}", file=sys.stderr)
            return False
        if result.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def run_driver(args):
    work_dir = os.path.join(BUILD_ROOT, "work",
                            f"{args.workload}-{os.getpid()}")
    tmp_dir = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    command = [os.path.join(BUILD_DIR, "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--trace-dir", os.path.join(BUILD_ROOT, "traces")]
    try:
        result = subprocess.run(command, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver overran its time limit", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(result.stdout.decode("utf-8", "replace"))
    sys.stdout.flush()
    return result.returncode


def self_test():
    if not build("perfbench_tests"):
        return 2
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_ROOT, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return subprocess.run([os.path.join(BUILD_DIR, "perfbench_tests")],
                          cwd=ROOT, env=env).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=38)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if not build("perfbench_driver"):
        return 2
    return run_driver(args)


if __name__ == "__main__":
    sys.exit(main())
