#!/usr/bin/env python3
"""Run-to-run spread of the pipeline benchmark's end-to-end metrics.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 10 [--workloads mouse_flows,...] [--traced]

Runs every workload once per seed (seeds 1..N) and prints, per metric, the
median and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, beside the
metric's bound from BENCHMARK.json. --traced adds one traced run per workload
(seed 1) and reports the traced-vs-untraced pkt_rate overhead.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, False) for s in range(1, args.seeds + 1)]
        print("%s (%d seeds)" % (workload, len(runs)))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, share = spread(values)
            worst = max(worst, share / bound)
            flag = "" if share < bound / 3 else ("  above bound/3" if share <= bound else "  ABOVE BOUND")
            print("  %-22s median %14.4f  spread %6.2f%%  bound %5.1f%%%s" %
                  (name, median, 100 * share, 100 * bound, flag))
            print("  %22s %s" % ("", " ".join("%.4g" % v for v in values)))
        if args.traced:
            traced = run_once(workload, 1, args.seconds, True)
            plain = statistics.median(r["metrics"]["pkt_rate"]["value"] for r in runs)
            rate = traced["metrics"]["traced.pkt_rate"]["value"]
            print("  traced pkt_rate %.0f vs untraced median %.0f: overhead %.3fx" %
                  (rate, plain, plain / rate))
    print("worst spread / bound: %.2f" % worst)


if __name__ == "__main__":
    main()
