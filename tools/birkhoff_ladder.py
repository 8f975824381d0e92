"""Time the Birkhoff metric of interval systems up the Z_2^k ladder.

    PYTHONPATH=src python tools/birkhoff_ladder.py [--max-exp 18]

Builds the interval system of Z_2^k (scale 2^k / 4, d = 2, auto depth) with
system_from_balls and runs birkhoff_metric on it, for k = 10 .. --max-exp.
Prints, per group, the seconds of each of the two calls, the metric's rounds
(one per distinct finite distance it settles), and its sumsets by the route
each call took: "zero" when the result is an operand itself or empty (an
empty or {0} operand, which runs no route), "spectral" when the call ran
fourier.convolve, else "direct". The sumsets are counted through the module
attribute bourgain.sumset, the one the metric calls.
"""

from __future__ import annotations

import argparse
import time
from collections import Counter

import numpy as np

from addcomb import bourgain, fourier
from addcomb.groups import FinAbGroup

ROUTES = ("zero", "direct", "spectral")


def timed_metric(system) -> tuple[float, int, Counter]:
    """(seconds, rounds, sumsets by route) of one birkhoff_metric call."""
    routes = Counter()
    sumset, convolve = bourgain.sumset, fourier.convolve
    convolutions = 0

    def counted_convolve(*args, **kwargs):
        nonlocal convolutions
        convolutions += 1
        return convolve(*args, **kwargs)

    def counted_sumset(A, B, *args, **kwargs):
        before = convolutions
        out = sumset(A, B, *args, **kwargs)
        if out is A or out is B or len(out) == 0:
            routes["zero"] += 1
        else:
            routes["spectral" if convolutions > before else "direct"] += 1
        return out

    bourgain.sumset, fourier.convolve = counted_sumset, counted_convolve
    try:
        t0 = time.perf_counter()
        metric = bourgain.birkhoff_metric(system)
        seconds = time.perf_counter() - t0
    finally:
        bourgain.sumset, fourier.convolve = sumset, convolve
    rounds = len(np.unique(metric.rho[np.isfinite(metric.rho)]))
    return seconds, rounds, routes


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-exp", type=int, default=18)
    args = ap.parse_args()
    if not 10 <= args.max_exp <= 22:
        ap.error("--max-exp must lie in 10..22 (the group order cap is 2^22)")
    print(f"{'group':>8} {'depth':>5} {'system s':>9} {'metric s':>9} {'rounds':>7} "
          + " ".join(f"{r:>8}" for r in ROUTES))
    for k in range(10, args.max_exp + 1):
        g = FinAbGroup([2 ** k])
        t0 = time.perf_counter()
        system = bourgain.system_from_balls(bourgain.interval_family(g, 2 ** k / 4), d=2.0)
        build_s = time.perf_counter() - t0
        metric_s, rounds, routes = timed_metric(system)
        print(f"{'Z_2^' + str(k):>8} {system.depth:>5} {build_s:>9.3f} {metric_s:>9.3f} "
              f"{rounds:>7} " + " ".join(f"{routes[r]:>8}" for r in ROUTES), flush=True)


if __name__ == "__main__":
    main()
