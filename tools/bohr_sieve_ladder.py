"""Time run_freiman and its sieved Bohr tables up the Z_2^k ladder and on a
rank-2 box.

    PYTHONPATH=src python tools/bohr_sieve_ladder.py [--max-exp 22] [--repeats 1]
                                                     [--shares 0.25]

Runs run_freiman on the interval {-16..16} of Z_2^k (d = 1, epsilon = 0.05)
for k = 16 .. --max-exp, and, when --max-exp is 18 or more, on the box
{-1..1}^2 of Z_512^2 (d = 2, epsilon = 0.03), whose tables run the dense,
the pre-sieved and gathered, and the survivor routes on a rank-2 group with
an even first cycle. Each run is made once for each value of
bohr.GATHER_SHARE in --shares, each on the spectrum grid the run picks (a
zoom, at these sizes) and again with the full transform forced
(spectrum.GRID_COST rebound so that no zoom is cheaper). A share of 0 never
gathers, so every table stays dense: its exact rows run over all of G and
it holds every element at cap 1/2. Prints, per run, the share, the grid of
the index of lA, the best wall seconds of --repeats, the seconds inside
bohr_distance_table and mu(B), then one line per table the run built, in
call order (the spectrum's, the ball's on it, then the chain's on the
ball's): its radius cap, the elements it holds numerators of (its
survivors, or |G| for a dense table), and the phases it evaluated per
element of G, split into the 16-bit pre-sieve's phases (coarse_cells / |G|)
and the exact int32 ones (cells / |G|). A row over G runs on one element
of each pair {x, -x} (the half x_0 <= n_0 / 2), so it counts about 1/2
per element of G, half of what a row over every element would. The table
calls are counted through the module
attribute bohr.bohr_distance_table, the one the pipeline calls.

Exits 1 when two shares or the two grids give a group different mu(B) or
different report bytes (serialize.dumps of the report), so `--shares 0
0.25` cross-checks the dense route against the gathered one, and every run
the zoom against the full transform, end to end.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from addcomb import bohr, pipeline, spectrum
from addcomb.groups import FinAbGroup
from addcomb.pipeline import FreimanConfig, run_freiman
from addcomb.serialize import dumps
from addcomb.sets import GroupSet

CONFIG = FreimanConfig(d=1.0, epsilon=0.05)

#: The rank-2 rung: a box whose ball table is pre-sieved and gathered at
#: the default share, and whose chain table runs on its survivors.
BOX = (GroupSet.linf_ball(FinAbGroup([512, 512]), 1), FreimanConfig(d=2.0, epsilon=0.03))

#: spectrum.GRID_COST for each grid: the count's own prices, or prices
#: under which no zoom is cheaper than the full transform.
GRIDS = {"picked": spectrum.GRID_COST, "full": (math.inf,) * 3}


def timed_run(A: GroupSet, config: FreimanConfig) -> tuple[
        float, float, int, str, list[bohr.DistanceTable], tuple[int, ...]]:
    """(wall s, table s, mu(B), report bytes, the tables built, the grid of
    the index of lA) of one run_freiman call."""
    table_s, tables, grids = 0.0, [], []
    table, index = bohr.bohr_distance_table, pipeline.spectrum_index

    def counted(*args, **kwargs):
        nonlocal table_s
        t0 = time.perf_counter()
        out = table(*args, **kwargs)
        table_s += time.perf_counter() - t0
        tables.append(out)
        return out

    def recorded(*args, **kwargs):
        out = index(*args, **kwargs)
        grids.append(out.grid)
        return out

    bohr.bohr_distance_table, pipeline.spectrum_index = counted, recorded
    try:
        t0 = time.perf_counter()
        report = run_freiman(A, config)
        wall = time.perf_counter() - t0
    finally:
        bohr.bohr_distance_table, pipeline.spectrum_index = table, index
    return (wall, table_s, report.ball.measure, dumps(report.to_jsonable()), tables,
            grids[0])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-exp", type=int, default=22)
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument("--shares", type=float, nargs="+", default=[bohr.GATHER_SHARE])
    args = ap.parse_args()
    if not 16 <= args.max_exp <= 22:
        ap.error("--max-exp must lie in 16..22 (the group order cap is 2^22)")
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    default, differ = bohr.GATHER_SHARE, False
    print("# 16-bit/|G| and exact/|G|: phases evaluated per element of G; a row over G "
          "runs on the half x_0 <= n_0 / 2, about 1/2 per element")
    print(f"{'group':>8} {'share':>6} {'grid':>8} {'wall s':>8} {'table s':>8} {'mu(B)':>7} "
          f"{'cap':>8} {'survivors':>9} {'16-bit/|G|':>10} {'exact/|G|':>10}")
    rungs = [(f"Z_2^{k}", GroupSet.interval(FinAbGroup([2 ** k]), 16), CONFIG)
             for k in range(16, args.max_exp + 1)]
    if args.max_exp >= 18:
        rungs.append(("Z_512^2", *BOX))
    try:
        for name, A, config in rungs:
            outputs = set()
            for share in args.shares:
                for cost in GRIDS.values():
                    bohr.GATHER_SHARE, spectrum.GRID_COST = share, cost
                    best = (math.inf,)
                    for _ in range(args.repeats):
                        best = min(best, timed_run(A, config), key=lambda run: run[0])
                    wall, table_s, mu_B, text, tables, grid = best
                    outputs.add((mu_B, text))
                    print(f"{name:>8} {share:>6.3g} {'x'.join(map(str, grid)):>8} "
                          f"{wall:>8.3f} {table_s:>8.3f} {mu_B:>7}", flush=True)
                    for t in tables:
                        held = t.size if t.at is None else t.at.size
                        print(f"{'':>50} {t.r_cap:>8.4g} {held:>9} "
                              f"{t.coarse_cells / t.size:>10.2f} {t.cells / t.size:>10.2f}",
                              flush=True)
            if len(outputs) > 1:
                differ = True
                print(f"{name}: the shares or the grids give different mu(B) or report bytes",
                      file=sys.stderr)
    finally:
        bohr.GATHER_SHARE, spectrum.GRID_COST = default, GRIDS["picked"]
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
