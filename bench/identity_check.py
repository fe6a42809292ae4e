#!/usr/bin/env python3
"""Byte-identity check of the figure benches between two builds.

    python3 bench/identity_check.py --base <build-dir> --change <build-dir>

A simplification is accepted when the paper's figure benches produce the
same outputs before and after it. Each bench in RUNS runs from each
build's `bench/` directory in a fresh temporary directory; stdout and
every file the run wrote are compared byte for byte. Stderr is ignored:
log lines carry source line numbers, which move with any edit.

Prints `same` or `DIFF` per artifact. Exits 1 on any difference or on a
bench that exits non-zero, 2 on bad arguments.
"""

import argparse
import os
import subprocess
import sys
import tempfile

STORM = ["--partition-storm", "--comms-json=comms.json"]
# (label, bench binary, arguments); output paths are relative to the
# run's temporary directory.
RUNS = [
    ("fig4", "fig4_granularity", []),
    ("fig5", "fig5_shared_lifecycle",
     ["--timeline=timeline.csv", "--spans=spans.jsonl", "--chrome=chrome.json",
      "--report=report.txt", "--lineage=lineage.jsonl"]),
    ("fig5-storm", "fig5_shared_lifecycle", STORM),
    ("fig6", "fig6_nonshared_lifecycle", []),
    ("fig6-storm", "fig6_nonshared_lifecycle", STORM),
    ("table1", "table1_all_vs_all", []),
]


def run_bench(build, binary, args):
    """Returns (exit code, {artifact: bytes}) for one run: its stdout and
    every file it left in its fresh working directory."""
    path = os.path.join(os.path.abspath(build), "bench", binary)
    with tempfile.TemporaryDirectory(prefix="identity_check_") as cwd:
        result = subprocess.run([path] + args, cwd=cwd, check=False,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        artifacts = {"stdout": result.stdout}
        for root, _, files in os.walk(cwd):
            for name in files:
                with open(os.path.join(root, name), "rb") as f:
                    artifacts[os.path.relpath(f.name, cwd)] = f.read()
    return result.returncode, artifacts


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="parent build dir")
    parser.add_argument("--change", required=True, help="changed build dir")
    args = parser.parse_args()
    for build in (args.base, args.change):
        if not os.path.isdir(os.path.join(build, "bench")):
            parser.error(f"{build}: no bench/ directory")

    failures = 0
    for label, binary, bench_args in RUNS:
        sides = {side: run_bench(build, binary, bench_args)
                 for side, build in (("base", args.base),
                                     ("change", args.change))}
        for side, (code, _) in sides.items():
            if code != 0:
                print(f"{label}: {side} exited {code}")
                failures += 1
        base, change = sides["base"][1], sides["change"][1]
        for name in sorted(set(base) | set(change)):
            same = base.get(name) == change.get(name)
            failures += not same
            print(f"{label} {name}: {'same' if same else 'DIFF'}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
