#!/usr/bin/env python3
"""Run one workload on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload serve-inproc --seconds 45 --seeds 1-10

Run from the root of the source tree. For every end-to-end metric in
BENCHMARK.json it prints the median over the runs and the spread: the
distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound. Exits 1 if a run failed or a spread, other than
setup_s's, is over its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()

    with open("BENCHMARK.json") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    values = {name: [] for name in bounds}
    ok = True
    for seed in args.seeds:
        run = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"], capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            print("seed %d: failed (exit %d)" % (seed, run.returncode))
            ok = False
            continue
        metrics = result["metrics"]
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.4g" % (name, metrics[name]["value"]) for name in bounds)),
            flush=True)
        for name in bounds:
            values[name].append(metrics[name]["value"])

    for name, bound in bounds.items():
        if len(values[name]) < 2:
            continue
        quartiles = statistics.quantiles(values[name], n=4)
        median = statistics.median(values[name])
        spread = (quartiles[2] - quartiles[0]) / median
        over = spread > bound and name != "setup_s"
        ok = ok and not over
        print("%-18s median %12.4f  spread %.3f  bound %.2f%s" %
              (name, median, spread, bound, "  OVER" if over else ""))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
