#!/usr/bin/env python3
"""Diff a bench --json output against a committed baseline.

Usage:
    tools/check_bench.py CURRENT.json BASELINE.json [--threshold 0.15]

Compares every metric of two kinds present in BOTH files and exits non-zero
if any regressed by more than the threshold (default 15%):

* throughput (keys matching ``_rate``): higher is better;
* byte densities (keys containing ``bytes_per_``): lower is better. At a
  fixed smoke workload they are set by the wire and state formats alone, so
  a rise is a format regression, not noise.

Other keys are ignored: counts and quantiles are workload properties, not
performance, and ``_speedup`` ratios are derived from rates already being
compared (gating a ratio of two noisy numbers only doubles the noise).

Keys present in only one file are reported but never fail the check, so
adding or renaming a metric doesn't require a lockstep baseline update.

CI wires this behind a skip label (``skip-bench-check``) and a widened
threshold, because shared runners are noisy neighbors and smoke-sized runs
amplify timing jitter (the 15% default is calibrated for full-size runs on
a quiet box). A genuine regression reproduces locally with
``bench/bench_collector_throughput --json`` against ``bench/baseline/``;
a phantom one doesn't. Refresh baselines whenever a deliberate perf change
lands: take the BENCH_*.json artifacts from a green main build (same
machines the gate runs on) — or locally, the per-key minimum over a few
smoke runs — and commit them (docs/PERFORMANCE.md records the history).
"""

import argparse
import json
import re
import sys

HIGHER_IS_BETTER = re.compile(r"_rate($|_)")
LOWER_IS_BETTER = re.compile(r"bytes_per_")


def is_compared(key):
    return bool(HIGHER_IS_BETTER.search(key) or LOWER_IS_BETTER.search(key))


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"check_bench: cannot read {path}: {e}")
    if not isinstance(data, dict):
        sys.exit(f"check_bench: {path}: expected a flat JSON object")
    return data


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="max tolerated fractional regression (default 0.15)")
    args = parser.parse_args()

    current = load(args.current)
    baseline = load(args.baseline)

    compared = sorted(
        k for k in current.keys() & baseline.keys()
        if is_compared(k)
        and isinstance(current[k], (int, float))
        and isinstance(baseline[k], (int, float))
    )
    if not compared:
        sys.exit("check_bench: no comparable *_rate or *bytes_per_* keys in both files")

    regressions = []
    width = max(len(k) for k in compared)
    print(f"{'metric':<{width}}  {'baseline':>14}  {'current':>14}  {'delta':>8}")
    for key in compared:
        base, cur = float(baseline[key]), float(current[key])
        if base <= 0:
            continue  # a skipped stage (e.g. unix_socket_rate 0 in CI sandboxes)
        delta = cur / base - 1.0
        lower = bool(LOWER_IS_BETTER.search(key))
        flag = ""
        if (delta if lower else -delta) > args.threshold:
            regressions.append((key, base, cur, delta))
            flag = "  << REGRESSION"
        digits = 3 if lower else 0
        print(f"{key:<{width}}  {base:>14.{digits}f}  {cur:>14.{digits}f}  {delta:>+7.1%}{flag}")

    only = sorted((current.keys() ^ baseline.keys()) & set(
        k for k in current.keys() | baseline.keys() if is_compared(k)))
    for key in only:
        where = "current" if key in current else "baseline"
        print(f"note: {key} only in {where} (not compared)")

    if regressions:
        print(f"\ncheck_bench: {len(regressions)} metric(s) regressed more than "
              f"{args.threshold:.0%}", file=sys.stderr)
        return 1
    print(f"\ncheck_bench: OK ({len(compared)} metrics within {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
