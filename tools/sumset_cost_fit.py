"""Fit the constants of the sumset cost model (addcomb.sets.SUMSET_COST).

    PYTHONPATH=src python tools/sumset_cost_fit.py [--repeats 3]

Times both exact sumset routes on a grid of groups and operand sizes
(random sets, single thread, best of --repeats), then fits

    direct   ~ |small| * (c0 + c1 * |big| * rank)
    spectral ~ c2 * |G| * log2|G| + c3

by least squares on relative error. Prints one row per timed instance, the
fitted constants, and the instances on which the fitted model and the
current SUMSET_COST pick a route slower than the faster one by over 10%.

Then, as a report only (the fit above uses random sets, which fill their
group), times the spectral route on intervals and boxes of the same sizes:
the grid points its convolution used (the operands' bounding box, or |G|)
and its time against a convolution over all of G.
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np

from addcomb.fourier import convolve
from addcomb.groups import FinAbGroup
from addcomb.sets import SUMSET_COST, GroupSet, _spectral_box, _sumset_route, sumset

GROUPS = ([256], [4096], [65536], [2 ** 18], [729], [3 ** 11], [64, 64], [81, 81],
          [256, 256], [16, 16, 16], [9, 9, 9], [32, 32, 32])
SMALL = (1, 4, 16, 64, 256, 1024)
BIG_FRACTIONS = (1 / 256, 1 / 32, 1 / 4)


def best_of(repeats: int, fn) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def random_set(rng, g: FinAbGroup, size: int) -> GroupSet:
    return GroupSet.from_indices(g, rng.choice(g.order, size=size, replace=False))


def local_set(g: FinAbGroup, size: int) -> GroupSet:
    """An interval (rank 1) or a box, sides from 0, of about size points."""
    side = max(1, round(size ** (1 / g.rank)))
    grid = np.zeros(g.invariants[::-1], dtype=bool)
    grid[tuple(slice(min(n, side)) for n in g.invariants[::-1])] = True
    return GroupSet(g, grid.ravel())


def box_report(repeats: int) -> None:
    """Time the spectral route on localized operands of the fit sizes."""
    print(f"{'group':>14} {'|small|':>8} {'|big|':>8} {'points':>8} {'fft ms':>8} "
          f"{'all-G ms':>9}")
    for cycles in GROUPS:
        g = FinAbGroup(cycles)
        for frac in BIG_FRACTIONS:
            B = local_set(g, max(1, int(g.order * frac)))
            for small in SMALL:
                A = local_set(g, small)
                if len(A) > len(B):
                    continue
                box = _spectral_box(A, B, None)
                points = g.order if box is None else math.prod(m for m, _, _ in box)
                spectral = best_of(repeats, lambda: sumset(A, B, method="spectral"))
                full = best_of(repeats, lambda: convolve(A, B, snap_integers=False) >= 0.5)
                print(f"{g!r:>14} {len(A):>8} {len(B):>8} {points:>8} "
                      f"{spectral * 1e3:>8.3f} {full * 1e3:>9.3f}")


def fit(rows: list[tuple[float, ...]], times: list[float]) -> np.ndarray:
    """Least squares of times on rows, weighted to relative error."""
    X, t = np.asarray(rows, dtype=float), np.asarray(times, dtype=float)
    coef, *_ = np.linalg.lstsq(X / t[:, None], np.ones_like(t), rcond=None)
    return coef


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    rng = np.random.default_rng(0)
    samples = []  # (group, small, big, direct_s, spectral_s)
    print(f"{'group':>14} {'|small|':>8} {'|big|':>8} {'direct ms':>10} {'fft ms':>8}")
    for cycles in GROUPS:
        g = FinAbGroup(cycles)
        for frac in BIG_FRACTIONS:
            big = max(1, int(g.order * frac))
            for small in SMALL:
                if small > big:
                    continue
                A, B = random_set(rng, g, small), random_set(rng, g, big)
                direct = best_of(args.repeats, lambda: sumset(A, B, method="direct"))
                spectral = best_of(args.repeats, lambda: sumset(A, B, method="spectral"))
                samples.append((g, small, big, direct, spectral))
                print(f"{g!r:>14} {small:>8} {big:>8} {direct * 1e3:>10.3f} "
                      f"{spectral * 1e3:>8.3f}")
    c0, c1 = fit([(s, s * b * g.rank) for g, s, b, _, _ in samples],
                 [d for *_, d, _ in samples])
    spectral_by_group = {g: [] for g, *_ in samples}
    for g, *_, sp in samples:
        spectral_by_group[g].append(sp)
    groups = list(spectral_by_group)
    c2, c3 = fit([(g.order * math.log2(g.order), 1.0) for g in groups],
                 [float(np.median(spectral_by_group[g])) for g in groups])
    fitted = (float(c0), float(c1), float(c2), float(c3))
    print("fitted SUMSET_COST =", tuple(float(f"{c:.3g}") for c in fitted))
    for label, cost in (("fitted", fitted), ("current", SUMSET_COST)):
        misses = []
        for g, s, b, d, sp in samples:
            pick = _sumset_route(s, b, g, cost)
            taken = sp if pick == "spectral" else d
            if taken > 1.1 * min(d, sp):
                misses.append(f"{g!r} {s}x{b}: {pick} {taken * 1e3:.3f} ms "
                              f"vs best {min(d, sp) * 1e3:.3f} ms")
        print(f"{label} model: {len(misses)} of {len(samples)} picks over 10% slower")
        for m in misses:
            print("  ", m)
    box_report(args.repeats)


if __name__ == "__main__":
    main()
