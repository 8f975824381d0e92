"""Fit the constants of the sumset cost model (addcomb.sets.SUMSET_COST).

    PYTHONPATH=src python tools/sumset_cost_fit.py [--repeats 3]

Times both exact sumset routes on a grid of groups and operand sizes
(random sets, single thread, best of --repeats), then fits

    direct   ~ |small| * (c0 + c1 * |big| * rank)
    spectral ~ c2 * |G| * log2|G| + c3

by least squares on relative error. Prints one row per timed instance, the
fitted constants, and the instances on which sumset's auto route, under the
fitted constants and under the current SUMSET_COST, picks a route slower
than the faster one by over 10%. The auto route is the one sumset takes,
box probe included (addcomb.sets._auto_route).

Then, as a report only (the fit above uses random sets, which fill their
group), times both routes on intervals and boxes of the same sizes: the
grid points P the spectral convolution used (the operands' bounding box,
or |G|), its time beside the current model's c2 * P * log2 P + c3, a
convolution over all of G, and the direct route. The auto route's picks
on these sets are checked the same way.
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np

from addcomb.fourier import convolve
from addcomb.groups import FinAbGroup
from addcomb.sets import SUMSET_COST, GroupSet, _auto_route, _spectral_box, sumset

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


def misroutes(samples, cost) -> list[str]:
    """The samples (A, B, direct_s, spectral_s) on which the auto route under
    cost takes a route over 10% slower than the faster one."""
    out = []
    for A, B, d, sp in samples:
        pick, _ = _auto_route(A, B, None, cost)
        taken = sp if pick == "spectral" else d
        if taken > 1.1 * min(d, sp):
            out.append(f"{A.group!r} {len(A)}x{len(B)}: {pick} {taken * 1e3:.3f} ms "
                       f"vs best {min(d, sp) * 1e3:.3f} ms")
    return out


def box_report(repeats: int) -> None:
    """Time both routes on localized operands of the fit sizes."""
    c2, c3 = SUMSET_COST[2:]
    print(f"{'group':>14} {'|small|':>8} {'|big|':>8} {'points':>8} {'fft ms':>8} "
          f"{'model ms':>9} {'all-G ms':>9} {'direct ms':>10}")
    samples = []
    for cycles in GROUPS:
        g = FinAbGroup(cycles)
        for frac in BIG_FRACTIONS:
            B = local_set(g, max(1, int(g.order * frac)))
            for small in SMALL:
                A = local_set(g, small)
                if len(A) > len(B):
                    continue
                box = _spectral_box(A, B)
                points = g.order if box is None else math.prod(m for m, _, _ in box)
                spectral = best_of(repeats, lambda: sumset(A, B, method="spectral"))
                full = best_of(repeats, lambda: convolve(A, B, snap_integers=False) >= 0.5)
                direct = best_of(repeats, lambda: sumset(A, B, method="direct"))
                model = c2 * points * math.log2(points) + c3
                if len(A) > 1:  # a local set of one point is {0}, which runs no route
                    samples.append((A, B, direct, spectral))
                print(f"{g!r:>14} {len(A):>8} {len(B):>8} {points:>8} "
                      f"{spectral * 1e3:>8.3f} {model * 1e3:>9.3f} {full * 1e3:>9.3f} "
                      f"{direct * 1e3:>10.3f}")
    misses = misroutes(samples, SUMSET_COST)
    print(f"current model on local sets: {len(misses)} of {len(samples)} picks over 10% slower")
    for m in misses:
        print("  ", m)


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
    samples = []  # (A, B, direct_s, spectral_s)
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
                samples.append((A, B, direct, spectral))
                print(f"{g!r:>14} {small:>8} {big:>8} {direct * 1e3:>10.3f} "
                      f"{spectral * 1e3:>8.3f}")
    c0, c1 = fit([(len(A), len(A) * len(B) * A.group.rank) for A, B, _, _ in samples],
                 [d for *_, d, _ in samples])
    spectral_by_group = {A.group: [] for A, *_ in samples}
    for A, *_, sp in samples:
        spectral_by_group[A.group].append(sp)
    groups = list(spectral_by_group)
    c2, c3 = fit([(g.order * math.log2(g.order), 1.0) for g in groups],
                 [float(np.median(spectral_by_group[g])) for g in groups])
    fitted = (float(c0), float(c1), float(c2), float(c3))
    print("fitted SUMSET_COST =", tuple(float(f"{c:.3g}") for c in fitted))
    for label, cost in (("fitted", fitted), ("current", SUMSET_COST)):
        misses = misroutes(samples, cost)
        print(f"{label} model: {len(misses)} of {len(samples)} picks over 10% slower")
        for m in misses:
            print("  ", m)
    box_report(args.repeats)


if __name__ == "__main__":
    main()
