"""Time run_freiman and its sieved Bohr tables up the Z_2^k ladder.

    PYTHONPATH=src python tools/bohr_sieve_ladder.py [--max-exp 22] [--repeats 1]
                                                     [--shares 0.25]

Runs run_freiman on the interval {-16..16} of Z_2^k (d = 1, epsilon = 0.05)
for k = 16 .. --max-exp, once for each value of bohr.GATHER_SHARE in
--shares (a share of 0 never gathers: every row runs over all of G and the
sieve only cuts the result). Prints, per run, the best wall seconds of
--repeats, the seconds inside bohr_distance_table, the phases the tables
evaluated per element of G (cells / |G|), and mu(B). The table calls are
counted through the module attribute bohr.bohr_distance_table, the one the
pipeline calls.
"""

from __future__ import annotations

import argparse
import math
import time

from addcomb import bohr
from addcomb.groups import FinAbGroup
from addcomb.pipeline import FreimanConfig, run_freiman
from addcomb.sets import GroupSet

CONFIG = FreimanConfig(d=1.0, epsilon=0.05)


def timed_run(A: GroupSet) -> tuple[float, float, int, int]:
    """(wall s, table s, cells, mu(B)) of one run_freiman call."""
    table_s, cells = 0.0, 0
    table = bohr.bohr_distance_table

    def counted(*args, **kwargs):
        nonlocal table_s, cells
        t0 = time.perf_counter()
        out = table(*args, **kwargs)
        table_s += time.perf_counter() - t0
        cells += out.cells
        return out

    bohr.bohr_distance_table = counted
    try:
        t0 = time.perf_counter()
        report = run_freiman(A, CONFIG)
        wall = time.perf_counter() - t0
    finally:
        bohr.bohr_distance_table = table
    return wall, table_s, cells, report.ball.measure


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-exp", type=int, default=22)
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument("--shares", type=float, nargs="+", default=[bohr.GATHER_SHARE])
    args = ap.parse_args()
    if not 16 <= args.max_exp <= 22:
        ap.error("--max-exp must lie in 16..22 (the group order cap is 2^22)")
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    default = bohr.GATHER_SHARE
    print(f"{'group':>8} {'share':>6} {'wall s':>8} {'table s':>8} {'cells/|G|':>10} {'mu(B)':>7}")
    try:
        for k in range(16, args.max_exp + 1):
            A = GroupSet.interval(FinAbGroup([2 ** k]), 16)
            for share in args.shares:
                bohr.GATHER_SHARE = share
                best = (math.inf,)
                for _ in range(args.repeats):
                    best = min(best, timed_run(A))
                wall, table_s, cells, mu_B = best
                print(f"{'Z_2^' + str(k):>8} {share:>6.3g} {wall:>8.3f} {table_s:>8.3f} "
                      f"{cells / 2 ** k:>10.2f} {mu_B:>7}", flush=True)
    finally:
        bohr.GATHER_SHARE = default


if __name__ == "__main__":
    main()
