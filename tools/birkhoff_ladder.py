"""Time the Birkhoff metric of interval systems up the Z_2^k ladder.

    PYTHONPATH=src python tools/birkhoff_ladder.py [--max-exp 18] [--check-max-exp 12]

Builds the interval system of Z_2^k (scale 2^k / 4, d = 2, auto depth) with
system_from_balls and runs birkhoff_metric on it, for k = 10 .. --max-exp.
Prints, per group, the seconds of each of the two calls, the distinct finite
distances the metric attains, and each call's work: "dil", its dilations
(bourgain._window_min calls); "runs", the translations they made, one per
run of a level along cycle 0 (the tile corners bourgain._runs returns);
"passes", their other minima over the grid, the window minima's doubling
(log2 of the longest run, rounded down) and one last shifted minimum per
distinct run length; and "sums", its sumsets (bourgain.sumset calls), the
threshold sums of the dilations included.

With --check-max-exp N, each rung with k <= N also compares the bytes of
rho* and rho with oracles.dijkstra_rho, the metric's per-element oracle, and
the tool exits 1 after the ladder if any differ.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter

import numpy as np

from addcomb import bourgain, oracles
from addcomb.groups import FinAbGroup

WORK = ("dil", "runs", "passes", "sums")


def counted(call):
    """(seconds, result, work) of call(), with its work as in WORK."""
    work = Counter()
    sumset, window_min, runs = bourgain.sumset, bourgain._window_min, bourgain._runs

    def counted_sumset(*args, **kwargs):
        work["sums"] += 1
        return sumset(*args, **kwargs)

    def counted_window_min(*args, **kwargs):
        work["dil"] += 1
        return window_min(*args, **kwargs)

    def counted_runs(*args, **kwargs):
        corners = runs(*args, **kwargs)
        work["runs"] += sum(len(group) for by_offset in corners.values()
                            for group in by_offset.values())
        work["passes"] += max(corners).bit_length() - 1 + len(corners)
        return corners

    bourgain.sumset, bourgain._window_min, bourgain._runs = (
        counted_sumset, counted_window_min, counted_runs)
    try:
        t0 = time.perf_counter()
        out = call()
        seconds = time.perf_counter() - t0
    finally:
        bourgain.sumset, bourgain._window_min, bourgain._runs = sumset, window_min, runs
    return seconds, out, work


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-exp", type=int, default=18)
    ap.add_argument("--check-max-exp", type=int, default=None,
                    help="compare rho* and rho with the oracle up to Z_2^N")
    args = ap.parse_args()
    if not 10 <= args.max_exp <= 22:
        ap.error("--max-exp must lie in 10..22 (the group order cap is 2^22)")
    if args.check_max_exp is not None and not 10 <= args.check_max_exp <= args.max_exp:
        ap.error("--check-max-exp must lie in 10..--max-exp")
    work_head = " ".join(f"{r:>7}" for r in WORK)
    print(f"{'group':>8} {'depth':>5} {'system s':>9} {work_head} "
          f"{'metric s':>9} {'dists':>6} {work_head} {'oracle':>6}")
    mismatches = []
    for k in range(10, args.max_exp + 1):
        g = FinAbGroup([2 ** k])
        family = bourgain.interval_family(g, 2 ** k / 4)
        build_s, system, build_work = counted(
            lambda: bourgain.system_from_balls(family, d=2.0))
        metric_s, metric, metric_work = counted(lambda: bourgain.birkhoff_metric(system))
        distances = len(np.unique(metric.rho[np.isfinite(metric.rho)]))
        verdict = "-"
        if args.check_max_exp is not None and k <= args.check_max_exp:
            levels = [system.levels[r] for r in system.ternary_radii()]
            rho_star, rho = oracles.dijkstra_rho(g, levels, system.core)
            same = (metric.rho_star.tobytes() == rho_star.tobytes()
                    and metric.rho.tobytes() == rho.tobytes())
            verdict = "same" if same else "DIFF"
            if not same:
                mismatches.append(f"Z_2^{k}")
        print(f"{'Z_2^' + str(k):>8} {system.depth:>5} {build_s:>9.3f} "
              + " ".join(f"{build_work[r]:>7}" for r in WORK)
              + f" {metric_s:>9.3f} {distances:>6} "
              + " ".join(f"{metric_work[r]:>7}" for r in WORK)
              + f" {verdict:>6}", flush=True)
    if mismatches:
        print("rho differs from oracles.dijkstra_rho on " + ", ".join(mismatches),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
