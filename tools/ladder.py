"""Time the engine's routes up a ladder of groups, and cross-check them.

    PYTHONPATH=src python tools/ladder.py [sumset] [bohr] [birkhoff]
        [--max-exp 18] [--check-max-exp N] [--repeats 3] [--shares 0.25 ...]

Runs the named sections (default all) on groups of order at most
2^--max-exp and prints one JSON object per row: times in seconds, best of
--repeats calls; every other field a deterministic count. Each section is a
differential test: the tool exits 1 after its rows when two routes disagree,
naming each such instance on stderr. Routes are forced, and calls counted,
by rebinding the module attributes the library reads at call time.

sumset: both sumset routes, each forced by a SUMSET_COST under which it is
free, on random and local sets (intervals, boxes) of GROUPS. A local row
adds the points of the box the spectral route plans, the current model's
price for it, a convolution over all of G and the current pick. The last
row fits SUMSET_COST to the random sets by least squares on relative error,
direct ~ |small| (c0 + c1 |big| rank), spectral ~ c2 |G| log2|G| + c3, and
lists the picks over 10% slower than the faster route. Check: same sets.

bohr: run_freiman on the interval {-16..16} of Z_2^16 .. (d = 1, epsilon =
0.05) and on {-1..1}^2 (d = 2, epsilon = 0.03) in Z_256 x Z_512 from 2^17
and in Z_512^2 from 2^18, whose ball tables are gathered at the default
share and so show a sieve that drops an element at its cap, at
each GATHER_SHARE of --shares (0 keeps every table dense, at cap 1/2) and
on the picked spectrum grid and the full one. A row gives lA's index grid,
the seconds in bohr_distance_table, mu(B), and per table in call order its
cap, held elements, and exact (cells) and 16-bit (coarse_cells) phases, a
row over G running on one of each {x, -x}. Check: same mu(B) and report
bytes across shares and grids.

birkhoff: system_from_balls on the interval family of Z_2^10 .. (scale
|G| / 4, d = 2) and birkhoff_metric on it: the distinct finite distances and
each call's dil (bourgain._window_min calls), runs (tile corners
bourgain._runs returns, one translation each), passes (log2 of the longest
run, rounded down, plus one per distinct run length) and sums (sumsets).
Check, up to Z_2^--check-max-exp: the bytes of oracles.dijkstra_rho.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from collections import Counter
from unittest import mock

import numpy as np

from addcomb import bohr, bourgain, oracles, pipeline, sets, spectrum
from addcomb.fourier import convolve
from addcomb.groups import FinAbGroup
from addcomb.pipeline import FreimanConfig, run_freiman
from addcomb.serialize import dumps
from addcomb.sets import GroupSet, _auto_route, sumset

GROUPS = ([256], [4096], [65536], [2 ** 18], [729], [3 ** 11], [64, 64], [81, 81],
          [256, 256], [16, 16, 16], [9, 9, 9], [32, 32, 32])
SMALL = (1, 4, 16, 64, 256, 1024)
BIG_FRACTIONS = (1 / 256, 1 / 32, 1 / 4)

#: The constants under which each route is free and the other is not.
FREE_ROUTE = {"direct": (0.0, 0.0, 1.0, 1.0), "spectral": (1.0, 1.0, 0.0, 0.0)}


@contextlib.contextmanager
def counting(module, **tallies):
    """Each function of module named in tallies rebound to count its calls:
    the yielded Counter adds 1 at name and the call's seconds at name_s, and
    tallies[name](result, counter), when not None, adds its own counts."""
    work = Counter()

    def counted(name, call, tally):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = call(*args, **kwargs)
            work[name] += 1
            work[name + "_s"] += time.perf_counter() - t0
            if tally is not None:
                tally(out, work)
            return out
        return wrapper

    with mock.patch.multiple(module, **{name: counted(name, getattr(module, name), tally)
                                        for name, tally in tallies.items()}):
        yield work


def best_of(repeats: int, call) -> tuple[float, object]:
    """(seconds, result) of the fastest of repeats calls of call()."""
    best = (math.inf, None)
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = call()
        best = min(best, (time.perf_counter() - t0, out), key=lambda run: run[0])
    return best


def emit(section: str, **row) -> None:
    print(json.dumps({"section": section, **row}), flush=True)


def local_set(g: FinAbGroup, size: int) -> GroupSet:
    """An interval (rank 1) or a box, sides from 0, of about size points."""
    side = max(1, round(size ** (1 / g.rank)))
    grid = np.zeros(g.invariants[::-1], dtype=bool)
    grid[tuple(slice(min(n, side)) for n in g.invariants[::-1])] = True
    return GroupSet(g, grid.ravel())


def slow_picks(samples, cost) -> list[str]:
    """The samples (A, B, direct_s, spectral_s) on which the auto route under
    cost takes a route over 10% slower than the faster one."""
    out = []
    for A, B, d, sp in samples:
        with mock.patch.multiple(sets, SUMSET_COST=cost):
            pick = _auto_route(A, B)[0]
        if (sp if pick == "spectral" else d) > 1.1 * min(d, sp):
            out.append(f"{A.group!r} {len(A)}x{len(B)} {pick}")
    return out


def fit(rows: list[tuple[float, ...]], times: list[float]) -> np.ndarray:
    """Least squares of times on rows, weighted to relative error."""
    X, t = np.asarray(rows, dtype=float), np.asarray(times, dtype=float)
    coef, *_ = np.linalg.lstsq(X / t[:, None], np.ones_like(t), rcond=None)
    return coef


def operands(rng, g: FinAbGroup):
    """The sumset section's (kind, A, B) on g: random sets of each size
    small <= big, then local sets of those sizes with |A| <= |B|."""
    for kind in ("random", "local"):
        for frac in BIG_FRACTIONS:
            big = max(1, int(g.order * frac))
            for small in SMALL:
                if kind == "local":
                    A, B = local_set(g, small), local_set(g, big)
                elif small <= big:
                    A, B = (GroupSet.from_indices(g, rng.choice(g.order, size, replace=False))
                            for size in (small, big))
                else:
                    continue
                if len(A) <= len(B):
                    yield kind, A, B


def sumset_section(args) -> list[str]:
    rng, mismatches = np.random.default_rng(0), []
    fitted, local = [], []  # samples (A, B, direct_s, spectral_s)
    c2, c3 = sets.SUMSET_COST[2:]
    for g in (FinAbGroup(c) for c in GROUPS if math.prod(c) <= 2 ** args.max_exp):
        for kind, A, B in operands(rng, g):
            runs = []
            for cost in FREE_ROUTE.values():
                with mock.patch.multiple(sets, SUMSET_COST=cost):
                    runs.append(best_of(args.repeats, lambda: sumset(A, B)))
            (direct_s, direct), (spectral_s, spectral) = runs
            if direct != spectral:
                mismatches.append(f"sumset {kind} {g!r} {len(A)}x{len(B)}")
            row = dict(sets=kind, group=repr(g), small=len(A), big=len(B),
                       direct_s=direct_s, spectral_s=spectral_s)
            if kind == "local":
                with mock.patch.multiple(sets, SUMSET_COST=FREE_ROUTE["spectral"]):
                    points = math.prod(m for m, _, _ in _auto_route(A, B)[1])
                row.update(points=points, model_s=c2 * points * math.log2(points) + c3,
                           all_g_s=best_of(args.repeats, lambda: convolve(
                               A, B, snap_integers=False) >= 0.5)[0],
                           pick=_auto_route(A, B)[0])
            emit("sumset", **row)
            # a local set of one point is {0}, which runs no route
            if kind == "random" or len(A) > 1:
                (fitted if kind == "random" else local).append((A, B, direct_s, spectral_s))
    direct_fit = fit([(len(A), len(A) * len(B) * A.group.rank) for A, B, _, _ in fitted],
                     [d for *_, d, _ in fitted])
    by_group = {}
    for A, *_, sp in fitted:
        by_group.setdefault(A.group, []).append(sp)
    spectral_fit = fit([(g.order * math.log2(g.order), 1.0) for g in by_group],
                       [float(np.median(times)) for times in by_group.values()])
    cost = tuple(float(c) for c in (*direct_fit, *spectral_fit))
    emit("sumset", fitted_cost=cost, random=len(fitted), local=len(local),
         slow_fitted=slow_picks(fitted, cost),
         slow_current=slow_picks(fitted, sets.SUMSET_COST),
         slow_local=slow_picks(local, sets.SUMSET_COST))
    return mismatches


def _freiman(A: GroupSet, config: FreimanConfig):
    """(report, the tables built, the grids of lA's index, the table seconds)
    of one run_freiman call."""
    tables, grids = [], []
    with counting(bohr, bohr_distance_table=lambda t, _: tables.append(t)) as work, \
            counting(pipeline, spectrum_index=lambda i, _: grids.append(i.grid)):
        report = run_freiman(A, config)
    return report, tables, grids, work["bohr_distance_table_s"]


def bohr_section(args) -> list[str]:
    rungs = [(f"Z_2^{k}", GroupSet.interval(FinAbGroup([2 ** k]), 16),
              FreimanConfig(d=1.0, epsilon=0.05)) for k in range(16, args.max_exp + 1)]
    rungs += [(name, GroupSet.linf_ball(FinAbGroup(cycles), 1), FreimanConfig(d=2.0, epsilon=0.03))
              for name, cycles in (("Z_256 x Z_512", [256, 512]), ("Z_512^2", [512, 512]))
              if math.prod(cycles) <= 2 ** args.max_exp]
    mismatches = []
    for name, A, config in rungs:
        outputs = set()
        for share in args.shares:
            # the picked grid, and prices under which no zoom beats the full one
            for cost in (spectrum.GRID_COST, (math.inf,) * 3):
                with mock.patch.multiple(bohr, GATHER_SHARE=share), \
                        mock.patch.multiple(spectrum, GRID_COST=cost):
                    wall, (report, tables, grids, table_s) = best_of(
                        args.repeats, lambda: _freiman(A, config))
                outputs.add((report.ball.measure, dumps(report.to_jsonable())))
                emit("bohr", group=name, share=share, grid=grids[0], wall_s=wall,
                     table_s=table_s, mu_B=report.ball.measure,
                     tables=[dict(cap=t.r_cap, held=t.size if t.at is None else t.at.size,
                                  cells=t.cells, coarse_cells=t.coarse_cells)
                             for t in tables])
        if len(outputs) > 1:
            mismatches.append(f"bohr {name}: the shares or grids give different mu(B) "
                              "or report bytes")
    return mismatches


def _runs_work(corners, work: Counter) -> None:
    work["runs"] += sum(len(group) for by_offset in corners.values()
                        for group in by_offset.values())
    work["passes"] += max(corners).bit_length() - 1 + len(corners)


def _birkhoff_work(call):
    """(result, {dil, runs, passes, sums}) of call()."""
    with counting(bourgain, sumset=None, _window_min=None, _runs=_runs_work) as work:
        out = call()
    return out, dict(dil=work["_window_min"], runs=work["runs"], passes=work["passes"],
                     sums=work["sumset"])


def birkhoff_section(args) -> list[str]:
    mismatches = []
    for k in range(10, args.max_exp + 1):
        g = FinAbGroup([2 ** k])
        family = bourgain.interval_family(g, 2 ** k / 4)
        system_s, (system, system_work) = best_of(args.repeats, lambda: _birkhoff_work(
            lambda: bourgain.system_from_balls(family, d=2.0)))
        metric_s, (metric, metric_work) = best_of(args.repeats, lambda: _birkhoff_work(
            lambda: bourgain.birkhoff_metric(system)))
        oracle = None
        if args.check_max_exp is not None and k <= args.check_max_exp:
            levels = [system.levels[r] for r in system.ternary_radii()]
            rho_star, rho = oracles.dijkstra_rho(g, levels, system.core)
            oracle = (metric.rho_star.tobytes() == rho_star.tobytes()
                      and metric.rho.tobytes() == rho.tobytes())
            if not oracle:
                mismatches.append(f"birkhoff Z_2^{k}: rho differs from oracles.dijkstra_rho")
        emit("birkhoff", group=f"Z_2^{k}", depth=system.depth, system_s=system_s,
             **{f"system_{key}": v for key, v in system_work.items()},
             metric_s=metric_s,
             distances=len(np.unique(metric.rho[np.isfinite(metric.rho)])),
             **{f"metric_{key}": v for key, v in metric_work.items()}, oracle=oracle)
    return mismatches


SECTIONS = {"sumset": sumset_section, "bohr": bohr_section, "birkhoff": birkhoff_section}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sections", nargs="*", metavar="section",
                    help=f"any of {', '.join(SECTIONS)} (default: all)")
    ap.add_argument("--max-exp", type=int, default=18,
                    help="largest group order, as a power of 2 (10..22)")
    ap.add_argument("--check-max-exp", type=int, default=None,
                    help="compare rho* and rho with the oracle up to Z_2^N")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--shares", type=float, nargs="+", default=[bohr.GATHER_SHARE],
                    help="the bohr.GATHER_SHARE values of the bohr section, in [0, 1]")
    args = ap.parse_args(argv)
    unknown = [s for s in args.sections if s not in SECTIONS]
    if unknown:
        ap.error(f"unknown sections {unknown}; choose from {list(SECTIONS)}")
    if not 10 <= args.max_exp <= 22:
        ap.error("--max-exp must lie in 10..22 (the group order cap is 2^22)")
    if args.check_max_exp is not None and not 10 <= args.check_max_exp <= args.max_exp:
        ap.error("--check-max-exp must lie in 10..--max-exp")
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if not all(0 <= share <= 1 for share in args.shares):
        ap.error("--shares must lie in [0, 1]")
    mismatches = [m for name in args.sections or SECTIONS for m in SECTIONS[name](args)]
    for m in mismatches:
        print(m, file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
