#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark between two checkouts.

    python3 bench/ab_pairs.py --base <dir> --change <dir> --workload fleet \
        [--seed 38] [--pairs 10] [--seconds <s>]

Runs `python3 <dir>/perfbench/run.py --workload W --seed S --seconds S
--trace 0` for the base and the change checkout, N pairs, alternating
which side runs first so a drift in machine load hits both sides alike.
Build the driver once in each checkout first (any short run does it), or
the first pair also times the build.

For every end-to-end metric in the change checkout's BENCHMARK.json
(read only) it prints the base and change median [Q1-Q3], the ratio of
the medians, how many pairs the change won, and whether the change is
worse than the metric's bound. It also prints whether the gain rule
holds: the change wins at least 9 of 10 pairs and the medians differ, in
the change's favour, by more than the base's interquartile range.

Exits 1 if any run reports `correct: false` or fails to produce a
result, 2 on bad arguments.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    """One benchmark run; returns the driver's parsed JSON result."""
    command = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, check=False)
    lines = result.stdout.decode("utf-8", "replace").strip().splitlines()
    if result.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run exited {result.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    """(Q1, median, Q3) with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def better(a, b, direction):
    """True when value `a` beats value `b` in the metric's direction."""
    return a > b if direction == "higher" else a < b


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=38)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    args.base = os.path.abspath(args.base)
    args.change = os.path.abspath(args.change)

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    seconds = args.seconds or benchmark["run_seconds"]
    metrics = benchmark["end_to_end"]

    runs = {"base": [], "change": []}
    incorrect = 0
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            checkout = args.base if side == "base" else args.change
            try:
                result = run_once(checkout, args.workload, args.seed, seconds)
            except (RuntimeError, ValueError) as error:
                print(f"ab_pairs: {error}", file=sys.stderr)
                return 1
            if not result.get("correct", False):
                incorrect += 1
            runs[side].append(result)
        summary = "  ".join(
            f"{side}={runs[side][-1]['metrics']['tasks_per_s']['value']:.1f}"
            for side in ("base", "change")
            if "tasks_per_s" in runs[side][-1].get("metrics", {}))
        print(f"pair {pair + 1}/{args.pairs} ({order[0]} first)  {summary}",
              file=sys.stderr, flush=True)

    print(f"workload={args.workload} seed={args.seed} seconds={seconds} "
          f"pairs={args.pairs}")
    for side in ("base", "change"):
        failed = sum(r.get("failed", 0) for r in runs[side])
        attempted = sum(r.get("attempted", 0) for r in runs[side])
        correct = sum(1 for r in runs[side] if r.get("correct", False))
        print(f"{side}: correct {correct}/{args.pairs}, "
              f"failed {failed}/{attempted} operations")
    header = (f"{'metric':<16} {'base median [Q1-Q3]':>30} "
              f"{'change median [Q1-Q3]':>30} {'ratio':>6} {'wins':>6} "
              f"{'worse>bound':>11} {'gain rule':>9}")
    print(header)
    for metric in metrics:
        name, direction = metric["name"], metric["better"]
        base = [r["metrics"][name]["value"] for r in runs["base"]
                if name in r.get("metrics", {})]
        change = [r["metrics"][name]["value"] for r in runs["change"]
                  if name in r.get("metrics", {})]
        if len(base) != args.pairs or len(change) != args.pairs:
            print(f"{name:<16} (not reported on every run)")
            continue
        b_q1, b_med, b_q3 = quartiles(base)
        c_q1, c_med, c_q3 = quartiles(change)
        ratio = c_med / b_med if b_med else float("nan")
        wins = sum(1 for b, c in zip(base, change) if better(c, b, direction))
        if direction == "higher":
            worse = c_med < b_med * (1.0 - metric["bound"])
        else:
            worse = c_med > b_med * (1.0 + metric["bound"])
        gain = (wins >= 0.9 * args.pairs and better(c_med, b_med, direction)
                and abs(c_med - b_med) > b_q3 - b_q1)
        print(f"{name:<16} {f'{b_med:.4g} [{b_q1:.4g}-{b_q3:.4g}]':>30} "
              f"{f'{c_med:.4g} [{c_q1:.4g}-{c_q3:.4g}]':>30} "
              f"{ratio:>6.3f} {f'{wins}/{args.pairs}':>6} "
              f"{'YES' if worse else 'no':>11} "
              f"{'holds' if gain else 'no':>9}")
    if incorrect:
        print(f"ab_pairs: {incorrect} run(s) reported correct: false",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
