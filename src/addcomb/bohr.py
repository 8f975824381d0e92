"""Bohr sets, the sup-norm Bohr pseudo-metric, and ball-dimension estimation.

Bohr(Gamma, delta) is the set of x whose character phases stay within delta
of zero (in the circle norm) for every frequency in Gamma. Memberships come
from exact integer phase numerators, so two runs agree bit for bit; a 1e-9
inclusion slack keeps borderline radii deterministic when the radius itself
arrives as a float. bohr_distance_table gives the elements' distances to 0
at once; `oracles.bohr_distance` evaluates one distance frequency by
frequency and is its cross-check.

The table takes one phase row per pair {gamma, -gamma} in the frequency set
(||-theta|| = ||theta||). Each row comes from short digit tables, one pair
of sqrt(n)-long tables per cycle Z_n, so no full-length modulo is taken;
entries stay below 2M for M = lcm(n_1..n_k) <= |G| <= 2^22 (the group order
cap), so the rows are int32.

A table may be sieved at a radius cap r_cap. Every ball of radius >= 1/2 is
all of G, so a caller that reads no radius in (r_cap, 1/2) needs the exact
distance only of the elements within r_cap, and of the few it keeps. A
16-bit pre-sieve first finds those survivors cheaply: each digit table is
scaled to 2^16 units and floored, so a row over all of G is one uint16 outer
sum (which wraps mod 2^16 for free) and one compare. Each of a phase's
2 * rank floored digits loses less than one unit, so an element is cleared
only when its coarse circle distance passes floor(cap * 2^16 / M) + 2 * rank
units, which no element within the cap reaches. The pre-sieve stops once
fewer than STOP_SHARE of G is alive. If GATHER_SHARE or more is still alive,
the exact rows run over all of G; otherwise the exact numerators are
gathered from the same digit tables at the survivors alone, row-major, and
each element is dropped once its running maximum passes the cap. Reading a
sieved table at a radius in (r_cap, 1/2) raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .groups import FinAbGroup, _check_number
from .serialize import set_to_json
from .sets import GroupSet, Multiples

INCLUSION_SLACK = 1e-9

#: dimension grids never descend more than this many dyadic levels.
DIM_GRID_CAP = 40

#: int32 cells in one block of phase rows (rows of small groups are batched,
#: and a sieve compacts its survivors after each block).
BLOCK_CELLS = 1 << 20

#: A sieved table evaluates its exact rows over all of G while at least this
#: share of G survives the 16-bit pre-sieve, and gathers them at the
#: survivors alone below it (set from tools/bohr_sieve_ladder.py).
GATHER_SHARE = 0.25

#: The 16-bit pre-sieve stops once fewer than this share of G is alive (set
#: from tools/bohr_sieve_ladder.py).
STOP_SHARE = 0.08


class DistanceTable(np.ndarray):
    """Bohr distances to 0, one float64 per element of G, exact up to r_cap.

    An element x within the cap (num / M <= r_cap + INCLUSION_SLACK, the
    readers' own test) or kept holds its exact ratio num / M. Every other
    element holds inf, which says only that its distance is above r_cap.
    With r_cap >= 1/2 nothing is sieved. covers holds the indices of the
    frequencies the table is over. The table's call evaluated cells exact
    int32 phases and coarse_cells 16-bit ones (a phase is one row at one
    element); only a sieved table runs 16-bit rows.
    """

    r_cap: float
    covers: frozenset[int] | None
    cells: int
    coarse_cells: int

    def __array_finalize__(self, obj):
        self.r_cap = getattr(obj, "r_cap", 0.5)
        self.covers = getattr(obj, "covers", None)
        self.cells = getattr(obj, "cells", 0)
        self.coarse_cells = getattr(obj, "coarse_cells", 0)

    def ball(self, radius: float) -> np.ndarray:
        """The mask {x : dist(x) <= radius}; radii in (r_cap, 1/2) raise."""
        if self._whole(radius):
            return np.ones(self.shape, dtype=bool)
        return self.view(np.ndarray) <= radius + INCLUSION_SLACK

    def measure(self, radius: float) -> int:
        """mu(ball(radius)), counted on the table itself (inf, an element past
        the cap, compares false); radii in (r_cap, 1/2) raise."""
        if self._whole(radius):
            return self.size
        return int(np.count_nonzero(self.view(np.ndarray) <= radius + INCLUSION_SLACK))

    def _whole(self, radius: float) -> bool:
        """Whether the ball of radius is all of G; raises between r_cap and 1/2."""
        if radius >= 0.5:
            return True
        if radius > self.r_cap:
            raise ValueError(f"radius {radius} lies between the table's cap "
                             f"{self.r_cap} and 1/2")
        return False

    def exact(self, members: GroupSet) -> np.ndarray:
        """The exact distances of members, which must all be kept or within r_cap."""
        values = self.view(np.ndarray)[members.mask]
        if not np.isfinite(values).all():
            raise ValueError("an element above the table's cap was neither kept nor "
                             "within it")
        return values


def bohr_distance_table(freqs: GroupSet, r_cap: float = 0.5,
                        keep: GroupSet | None = None,
                        base: DistanceTable | None = None) -> DistanceTable:
    """max_{gamma in freqs} ||gamma(x)|| for every x, as exact ratios.

    Elements whose distance is above r_cap come back as inf unless keep
    holds them. With base, a table of other frequencies over the same group
    sieved at the same r_cap and exact on keep, the result is the table of
    the union: the rows of freqs are evaluated only where base is exact, and
    when base covers every row already, the result shares base's distances.

    An empty frequency set constrains nothing (sup over the empty set is 0),
    and neither does the trivial character. Since ||-theta|| = ||theta||, a
    gamma whose negative is covered already (by base, or in freqs at a
    smaller index) adds nothing and gets no row. The numerators stay below
    2M < 2^31, so they are int32.
    """
    if not r_cap >= 0:
        raise ValueError(f"bohr_distance_table needs r_cap >= 0, got {r_cap}")
    g = freqs.group
    M = g.phase_denominator
    cap = _cap_numerator(r_cap, M)
    kept = None if keep is None or cap is None else keep.mask
    idx = freqs.indices()
    coords = g.decode_array(idx)
    neg = g.encode_array(-coords)
    covered = freqs.mask[neg] & (neg < idx)
    if base is not None:
        if base.covers is None or base.shape != (g.order,) or base.r_cap != r_cap:
            raise ValueError("the base table needs the same group and r_cap")
        covered |= np.array([m in base.covers for m in neg.tolist()], dtype=bool)
    coords = coords[:, ~covered & coords.any(axis=0)]
    covers = frozenset(idx.tolist()) | (frozenset() if base is None else base.covers)
    rows, coarse_rows, at = coords.shape[1], 0, None
    if base is not None and not rows:
        # base covers every row already, so its distances are the union's
        out = base.view(DistanceTable)
        out.r_cap, out.cells, out.coarse_cells, out.covers = float(r_cap), 0, 0, covers
        return out
    if cap is not None and rows:
        alive = (np.ones(g.order, dtype=bool) if base is None
                 else np.isfinite(base.view(np.ndarray)))
        # rows of independent uniform phases would each keep 2 r_cap of G; when
        # even they would leave GATHER_SHARE alive, the exact rows run densely
        if np.count_nonzero(alive) * (2 * r_cap) ** rows < GATHER_SHARE * g.order:
            coarse_rows = _presieve(g, coords, cap, alive)
            if kept is not None:
                alive |= kept  # where base is inf, the max with it stays inf
            if np.count_nonzero(alive) < GATHER_SHARE * g.order:
                at = np.flatnonzero(alive)
    if at is None:
        best = np.zeros(g.order, dtype=np.int32)
        step = max(1, BLOCK_CELLS // g.order)
        for start in range(0, rows, step):
            _fold(best, _phase_sums(g, coords[:, start:start + step]), M)
        cells = rows * g.order
        table = best / M
        if base is not None:
            np.maximum(table, base.view(np.ndarray), out=table)
        if cap is not None and best.max() > cap:
            table[~_within(best, cap, kept)] = np.inf
    else:
        # the rows the pre-sieve did not reach go first: they drop the most
        at, best, cells = _sieve(g, np.roll(coords, -coarse_rows, axis=1), at,
                                 None if kept is None else kept[at], cap)
        values = best / M
        if base is not None:
            np.maximum(values, base.view(np.ndarray)[at], out=values)
        table = np.full(g.order, np.inf)
        table[at] = values
    out = table.view(DistanceTable)
    out.r_cap, out.covers = float(r_cap), covers
    out.cells, out.coarse_cells = cells, coarse_rows * g.order
    return out


def _presieve(g: FinAbGroup, coords: np.ndarray, cap: np.int32, alive: np.ndarray) -> int:
    """Clear in alive each element whose 16-bit phase on a row of coords lies
    more than floor(cap * 2^16 / M) + 2 * rank units from 0 (a margin no
    element within the cap passes; see the module docstring), until fewer
    than STOP_SHARE of G is alive. Returns the number of rows run; blocks
    start at one row and double."""
    M = g.phase_denominator
    slack = (int(cap) << 16) // M + 2 * g.rank
    if 2 * slack >= 0xFFFF:  # every coarse distance passes
        return 0
    top = np.uint16(2 * slack)
    start, size, rows = 0, 1, coords.shape[1]
    while start < rows and np.count_nonzero(alive) >= STOP_SHARE * g.order:
        block = coords[:, start:start + size]
        alive &= _coarse_sums(g, block, slack).max(axis=0) <= top
        start += block.shape[1]
        size = min(2 * size, max(1, BLOCK_CELLS // g.order))
    return start


def _sieve(g: FinAbGroup, coords: np.ndarray, at: np.ndarray, held: np.ndarray | None,
           cap: np.int32) -> tuple[np.ndarray, np.ndarray, int]:
    """The numerators over the rows coords of the elements at, gathered in
    blocks that start at one row and double up to about BLOCK_CELLS cells;
    before each block and after the last, drop every element past cap that
    held does not mark. Returns the survivors, their numerators and the
    cells evaluated."""
    M = g.phase_denominator
    digits = _digits(g, at)
    best = np.zeros(at.size, dtype=np.int32)
    start, size, cells = 0, 1, 0
    while True:
        alive = _within(best, cap, held)
        if not alive.all():
            at, best = at[alive], best[alive]
            held = None if held is None else held[alive]
            digits = [(a[alive], b[alive]) for a, b in digits]
        if start == coords.shape[1] or not at.size:
            return at, best, cells
        block = coords[:, start:start + size]
        _fold(best, _gathered_sums(g, block, digits), M)
        cells += block.shape[1] * at.size
        start += block.shape[1]
        size = min(2 * size, max(1, BLOCK_CELLS // at.size))


def _cap_numerator(r_cap: float, M: int) -> np.int32 | None:
    """The largest numerator num with num / M <= r_cap + INCLUSION_SLACK, or
    None when every numerator (at most M/2) passes and nothing is sieved."""
    t = r_cap + INCLUSION_SLACK
    if t >= 0.5:
        return None
    k = math.floor(t * M)
    while (k + 1) / M <= t:
        k += 1
    while k >= 0 and k / M > t:
        k -= 1
    return None if k >= M // 2 else np.int32(k)


def _within(best: np.ndarray, cap: np.int32, kept: np.ndarray | None) -> np.ndarray:
    """Which numerators pass the cap, or belong to kept elements."""
    alive = best <= cap
    if kept is not None:
        alive |= kept
    return alive


def _fold(best: np.ndarray, u: np.ndarray, M: int) -> None:
    """best = max(best, the circle-norm numerators of u over its rows, axis 0).

    An entry s of u in [0, 2M) stands for r = s mod M. w = |s - M| is r or
    M - r, so the numerator d = min(r, M - r) = min(w, M - w) satisfies
    |2w - M| = M - 2d: u becomes e = |2w - M| in place (no temporary), and
    the largest d is (M - the least e) / 2. Every step stays in [-M, 2M].
    """
    top = np.int32(M)
    u -= top
    np.abs(u, out=u)
    u <<= 1
    u -= top
    np.abs(u, out=u)
    d = u.min(axis=0)
    np.subtract(top, d, out=d)
    d >>= 1
    np.maximum(best, d, out=best)


def _digit_tables(m: np.ndarray, n: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Phase tables of the multipliers m (k,) on one cycle Z_n.

    Coordinate x = a*B + b (B = ceil(sqrt(n))) has phase (m*B*a mod n +
    m*b mod n) * M/n = hi[:, a] + lo[:, b], with both tables in [0, M).
    """
    B = math.isqrt(n - 1) + 1
    m = m[:, None]
    hi = (m * B * np.arange(-(-n // B)) % n * (M // n)).astype(np.int32)
    lo = (m * np.arange(B) % n * (M // n)).astype(np.int32)
    return hi, lo


def _phase_sums(g: FinAbGroup, mc: np.ndarray) -> np.ndarray:
    """Phase numerators of the characters with coordinates mc (rank, k) at
    every element, plus 0 or M: a (k, order) array with entries in [0, 2M).

    Each cycle's row is the outer sum of its digit tables (padded to
    ceil(n/B)*B and cut back to n), coordinate 0 fastest; each sum that
    feeds another is brought back into [0, M) by one conditional subtract.
    """
    M = g.phase_denominator
    total = None
    for m, n in zip(mc, g.invariants):
        hi, lo = _digit_tables(m, n, M)
        row = _outer_sum(hi, lo)[:, :n]
        total = row if total is None else _outer_sum(_mod(row, M), _mod(total, M))
    return total


def _digits(g: FinAbGroup, at: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per cycle, the digits (a, b) of the coordinates x = a*B + b of the
    elements at, in int32 (first coordinate fastest, as in the indexing)."""
    rest = at.astype(np.int32)
    out = []
    for n in g.invariants:
        B = math.isqrt(n - 1) + 1
        quot = rest // n
        x = rest - quot * n
        a = x // B
        out.append((a, x - a * B))
        rest = quot
    return out


def _gathered_sums(g: FinAbGroup, mc: np.ndarray, digits) -> np.ndarray:
    """_phase_sums at the elements whose digits are given: a (k, len) array,
    gathered from the digit tables one row at a time."""
    M = g.phase_denominator
    total = None
    for m, n, (a, b) in zip(mc, g.invariants, digits):
        hi, lo = _digit_tables(m, n, M)
        row = np.take(hi, a, axis=1)
        row += np.take(lo, b, axis=1)
        total = row if total is None else _mod(row, M) + _mod(total, M)
    return total


def _coarse_sums(g: FinAbGroup, mc: np.ndarray, shift: int) -> np.ndarray:
    """_phase_sums in 2^16 units, plus shift: a (k, order) uint16 array.

    Each digit v becomes floor(v * 2^16 / M), and shift joins the first
    cycle's low digits. Every operand is uint16, so the outer sums wrap
    mod 2^16 with no reduction step.
    """
    M = g.phase_denominator
    total = None
    for m, n in zip(mc, g.invariants):
        hi, lo = _digit_tables(m, n, M)
        hi = ((hi.astype(np.int64) << 16) // M).astype(np.uint16)
        lo = (((lo.astype(np.int64) << 16) // M + shift) & 0xFFFF).astype(np.uint16)
        shift = 0  # the first cycle's low digits carried it
        row = _outer_sum(hi, lo)[:, :n]
        total = row if total is None else _outer_sum(row, total)
    return total


def _outer_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise outer sums: out[i, j * b.shape[1] + l] = a[i, j] + b[i, l]."""
    return (a[:, :, None] + b[:, None, :]).reshape(len(a), -1)


def _mod(s: np.ndarray, M: int) -> np.ndarray:
    """s mod M in place, for entries in [0, 2M)."""
    s -= (s >= M) * s.dtype.type(M)
    return s


def bohr_family(freqs: GroupSet) -> Callable[[float], GroupSet]:
    """radius -> Bohr(freqs, radius), sharing one distance table."""
    return table_family(freqs.group, bohr_distance_table(freqs))


def table_family(g: FinAbGroup, table: DistanceTable) -> Callable[[float], GroupSet]:
    """radius -> the Bohr set cut from a precomputed distance table over g.

    A radius between the table's cap and 1/2 raises (DistanceTable.ball).
    """

    def family(radius: float) -> GroupSet:
        return GroupSet(g, table.ball(radius))

    return family


@dataclass(frozen=True)
class BohrSet:
    """Bohr(frequencies, radius) with its member set materialized."""

    frequencies: GroupSet  # over the dual
    radius: float
    members: GroupSet      # over G

    @property
    def measure(self) -> int:
        return self.members.measure

    def to_jsonable(self) -> dict:
        return {
            "frequencies": set_to_json(self.frequencies),
            "radius": self.radius,
            "members": set_to_json(self.members),
        }


def bohr_set(freqs: GroupSet, delta: float,
             families: dict[GroupSet, Callable[[float], GroupSet]] | None = None) -> BohrSet:
    """The Bohr set of the given frequency set; delta >= 1/2 gives all of G.

    families, when given, maps frequency sets to their Bohr families and is
    filled in as it goes, so a caller that cuts one frequency set at many
    radii builds its distance table once.
    """
    _check_number(delta, "bohr_set", "delta", 0)
    families = {} if families is None else families
    if freqs not in families:
        families[freqs] = bohr_family(freqs)
    return BohrSet(freqs, float(delta), families[freqs](delta))


# -- dimension estimation ---------------------------------------------------------


@dataclass(frozen=True)
class DimensionEstimate:
    """log2 growth ratios mu(B_{2d'})/mu(B_{d'}) over a radius grid."""

    grid: tuple[float, ...]                    # radii actually used
    measures: tuple[tuple[float, int, int], ...]  # (delta', mu(B_delta'), mu(B_2delta'))
    empirical_dim: float
    excluded: tuple[float, ...]                # zero-measure radii, flagged out

    def to_jsonable(self) -> dict:
        return {
            "grid": list(self.grid),
            "measures": [list(m) for m in self.measures],
            "ratios": [[d, math.log2(m2 / m1)] for d, m1, m2 in self.measures],
            "empirical_dim": self.empirical_dim,
            "excluded": list(self.excluded),
        }


def dimension_estimate(measure: Callable[[float], int],
                       grid: Sequence[float]) -> DimensionEstimate:
    """Empirical ball dimension of a monotone radius family on a grid.

    measure maps a radius to the measure of its ball: DistanceTable.measure,
    or lambda r: family(r).measure for a family of sets. Each grid point
    reads it at delta and at 2 delta, so on a dyadic grid most radii are
    read twice here and once more by dyadic_dimension_grid; a cached measure
    (functools.cache) counts each radius once. Zero-measure grid points are
    excluded and flagged; a measure decreasing in the radius violates the
    monotonicity precondition and raises.
    """
    used, measures, excluded = [], [], []
    for delta in grid:
        m1 = measure(delta)
        if m1 == 0:
            excluded.append(float(delta))
            continue
        m2 = measure(2 * delta)
        if m2 < m1:
            raise ValueError(f"family is not monotone at radius {delta}")
        used.append(float(delta))
        measures.append((float(delta), m1, m2))
    if not measures:
        raise ValueError("no grid point had positive measure")
    dim = max(math.log2(m2 / m1) for _, m1, m2 in measures)
    return DimensionEstimate(tuple(used), tuple(measures), dim, tuple(excluded))


def dyadic_dimension_grid(measure: Callable[[float], int], delta: float,
                          cap: int = DIM_GRID_CAP) -> list[float]:
    """Default grid delta * 2^{-j}: descend while mu > 1, stop at the cap.

    measure maps a radius to the measure of its ball, as in
    dimension_estimate, and is read once per level. The first level whose
    ball shrinks to a single element (or empties) is excluded; at desk
    scale those bottom ratios only measure discreteness.
    """
    grid = []
    d = float(delta)
    for _ in range(cap + 1):
        if measure(d) <= 1:
            break
        grid.append(d)
        d /= 2.0
    if not grid:
        grid = [float(delta)]
    return grid


# -- rounding and nesting (radius rescaling) -----------------------------------------


def nearest_int_dist(x):
    """<x>: distance to the nearest integer, round-half-even at the boundary.

    x is a float or a float array; the result has its shape.
    """
    return abs(x - np.rint(x))


@dataclass(frozen=True)
class RoundingCheck:
    """Python bools for scalar arguments; else bool arrays of their broadcast shape."""

    premise: bool      # <r t> <= k delta for all r = 1..k
    conclusion: bool   # <t> <= delta
    applicable: bool   # k delta < 1/3, the regime with a guarantee


def rounding_check(t, k, delta) -> RoundingCheck:
    """Multiples staying near integers force t itself near an integer.

    Whenever the premise holds and k*delta < 1/3, the conclusion must hold.
    t, k and delta are scalars or arrays that broadcast together. Every
    entry must have t finite, k an integer >= 1 (not a bool) and delta in
    (0, 1]; otherwise ValueError names the argument.
    """
    t_arr, k_arr, delta_arr = np.broadcast_arrays(
        np.asarray(t, dtype=np.float64), np.asarray(k), np.asarray(delta, dtype=np.float64))
    bad = ~np.isfinite(t_arr)
    if bad.any():
        raise ValueError(f"rounding_check needs a finite t, got {t_arr[bad][0]}")
    if k_arr.dtype.kind not in "iu":
        raise ValueError(f"rounding_check needs an integer k, not a bool, got {k!r}")
    bad = k_arr < 1
    if bad.any():
        raise ValueError(f"rounding_check needs k >= 1, got {k_arr[bad][0]}")
    bad = ~((delta_arr > 0) & (delta_arr <= 1))
    if bad.any():
        raise ValueError(f"rounding_check needs delta in (0, 1], got {delta_arr[bad][0]}")
    bound = k_arr * delta_arr
    premise = np.ones(bound.shape, dtype=bool)
    # r runs to the largest k; each entry is held to the r up to its own k
    for r in range(1, int(k_arr.max(initial=0)) + 1):
        premise &= (nearest_int_dist(r * t_arr) <= bound) | (r > k_arr)
        if not premise.any():
            break
    conclusion = nearest_int_dist(t_arr) <= delta_arr
    applicable = bound < 1 / 3
    if premise.ndim == 0:
        return RoundingCheck(bool(premise), bool(conclusion), bool(applicable))
    return RoundingCheck(premise, conclusion, applicable)


@dataclass(frozen=True)
class NestedBohrAudit:
    """Bohr(k Lambda, k delta) against Bohr(Lambda, delta); equal under the guard."""

    equal: bool | None
    skipped_reason: str | None
    left: BohrSet | None   # Bohr(k Lambda, k delta)
    right: BohrSet | None  # Bohr(Lambda, delta)


def nested_bohr_audit(Lambda: GroupSet, k: int, delta: float,
                      multiples: Multiples | None = None,
                      families: dict[GroupSet, Callable[[float], GroupSet]] | None = None,
                      ) -> NestedBohrAudit:
    """Exact set equality of the rescaled Bohr sets; skipped when the guard fails.

    A caller auditing one Lambda on a grid of (k, delta) passes the same
    multiples (a Multiples(Lambda)) and families (see bohr_set) to every
    call, so each kLambda and each distance table is built once.
    """
    if k < 1:
        raise ValueError(f"nested_bohr_audit needs k >= 1, got {k}")
    if multiples is not None and multiples.A != Lambda:
        raise ValueError("nested_bohr_audit needs the multiples of Lambda")
    if not Lambda.contains_zero():
        return NestedBohrAudit(None, "trivial character not in Lambda", None, None)
    if k * delta >= 1 / 3:
        return NestedBohrAudit(None, f"k*delta = {k * delta} >= 1/3", None, None)
    kLambda = (Multiples(Lambda) if multiples is None else multiples)[k]
    left = bohr_set(kLambda, k * delta, families)
    right = bohr_set(Lambda, delta, families)
    return NestedBohrAudit(left.members == right.members, None, left, right)
