"""Bohr sets, the sup-norm Bohr pseudo-metric, and ball-dimension estimation.

Bohr(Gamma, delta) is the set of x whose character phases stay within delta
of zero (in the circle norm) for every frequency in Gamma. Memberships come
from exact integer phase numerators, so two runs agree bit for bit; a 1e-9
inclusion slack keeps borderline radii deterministic when the radius itself
arrives as a float. bohr_distance_table gives the elements' distances to 0
at once; `oracles.bohr_distance` evaluates one distance frequency by
frequency and is its cross-check.

The table takes one phase row per pair {gamma, -gamma} in the frequency set
(||-theta|| = ||theta||). Every pass over G runs on the half domain x_0 <=
n_0 / 2, the layout of the real FFT's half spectrum: one element of each
pair {x, -x} (both when x_0 is 0 or n_0 / 2). This is exact, as ||gamma(-x)||
and ||gamma(x)|| have the same integer numerator. A dense table is mirrored
back to G by groups.mirrored, the reversed-slice copies that fill the half
spectrum; survivors come back as x and -x.

A pass over the half takes its rows from short digit tables, one pair of
sqrt(L)-long tables per cycle Z_n (L = n_0 // 2 + 1 on the first cycle, n
on the others), so no full-length modulo is taken; entries stay below 2M
for M = lcm(n_1..n_k) <= |G| <= 2^22 (the group order cap), so the rows are
int32. A call builds its digit tables once, and only when a row runs over
the half: the dense rows, the 16-bit pre-sieve and the gather of the
pre-sieve's survivors read them. A call that runs no row over G (a table on
a base held as survivors, or one whose base leaves few enough elements
alive that no pre-sieve row runs) builds none: it takes the exact phases
sum_j m_j x_j M/n_j mod M in int64 at its survivors alone. worst_distance
takes the same direct phases at a few given elements (A - A in a Freiman
run), and builds no table.

A table may be sieved at a radius cap r_cap. Every ball of radius >= 1/2 is
all of G, so a caller that reads no radius in (r_cap, 1/2) needs the exact
distance only of the elements within r_cap. A 16-bit pre-sieve first finds
those survivors cheaply: each digit table is scaled to 2^16 units and
floored, so a row over the half is one uint16 outer sum (which wraps mod
2^16 for free) and one compare. Each of a phase's 2 * rank floored digits
loses less than one unit, so an element is cleared only when its coarse
circle distance passes floor(cap * 2^16 / M) + 2 * rank units, which no
element within the cap reaches. The pre-sieve stops once fewer than
STOP_SHARE of the half is alive. If GATHER_SHARE or more is still alive,
the exact rows run over the whole half; otherwise the exact numerators are
gathered at the survivors alone, row-major in blocks that double, and each
element is dropped once its running maximum passes the cap.

A DistanceTable is exact at every element it holds. A table whose rows ran
over the whole half holds every element and states the cap 1/2; only a
table gathered at survivors holds fewer: exactly the elements within its
cap (their sorted indices), so its balls and measures cost as many steps as
it has survivors, and reading it at a radius in (r_cap, 1/2) raises. A
table may be built on a base table of other frequencies, dense or capped at
r_cap or above, and is then evaluated where the base holds numerators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .groups import FinAbGroup, _check_number, mirrored
from .serialize import set_to_json
from .sets import GroupSet, Multiples

INCLUSION_SLACK = 1e-9

#: dimension grids never descend more than this many dyadic levels.
DIM_GRID_CAP = 40

#: int32 cells in one block of phase rows (rows of small groups are batched,
#: and a sieve compacts its survivors after each block).
BLOCK_CELLS = 1 << 20

#: A sieved table evaluates its exact rows over the whole half domain while
#: at least this share of it survives the 16-bit pre-sieve, and gathers them
#: at the survivors alone below it (set from tools/ladder.py's bohr section).
#: Spot-checked on the half-domain kernel, 2 cores: the freiman_spectral +
#: freiman_growth instances (sum of best-of-7 walls) took 59-62 / 61-62 /
#: 62-63 / 61-64 / 75-83 ms at 0.125 / 0.25 / 0.375 / 0.5 / 0.0625, the
#: Z_2^22 interval r = 16 run 0.13-0.15 / 0.135-0.141 / 0.14-0.15 / 0.13-0.14 / 6-7 s.
GATHER_SHARE = 0.25

#: The 16-bit pre-sieve stops once fewer than this share of the half domain is
#: alive. Swept on 2 cores: the freiman_spectral + freiman_growth instances took
#: 104 / 106 / 108 ms at 0.08 / 0.25 / 0, the Z_2^22 interval r = 16 run
#: 0.43-0.50 / 0.47-0.61 / 4.3-5.5 s; on the half-domain kernel 60-62 / 61-63 /
#: 64-68 ms and 0.135-0.141 / 0.149-0.154 / 1.70-1.77 s.
STOP_SHARE = 0.08


class DistanceTable:
    """Bohr distances to 0 over G, exact at every element held, up to r_cap.

    num holds the int32 numerators (a distance is num / M, M the group's
    phase denominator) of the elements the table holds: every element of G
    when at is None (a dense table, whose cap is 1/2), else the elements
    at, sorted indices (the survivors of a sieved table: exactly the
    elements within r_cap). covers holds the indices of the
    frequencies the table is over. The table's call evaluated cells exact
    int32 phases and coarse_cells 16-bit ones (a phase is one row at one
    element); only a sieved table runs 16-bit rows.
    """

    __slots__ = ("group", "r_cap", "covers", "cells", "coarse_cells", "num", "at")

    def __init__(self, group: FinAbGroup, r_cap: float, covers: frozenset[int],
                 num: np.ndarray, at: np.ndarray | None = None,
                 cells: int = 0, coarse_cells: int = 0):
        self.group, self.covers, self.num, self.at = group, covers, num, at
        self.r_cap = 0.5 if at is None else float(r_cap)
        self.cells, self.coarse_cells = cells, coarse_cells

    @property
    def size(self) -> int:
        """|G|, the elements the table is over."""
        return self.group.order

    def ball(self, radius: float) -> GroupSet:
        """{x : dist(x) <= radius}; radii in (r_cap, 1/2) raise."""
        g = self.group
        k = self._numerator(radius)
        if k is None:
            return GroupSet.full(g)
        inside = self.num <= k
        if self.at is None:
            return GroupSet(g, inside)
        return GroupSet.from_sorted(g, self.at[inside])

    def measure(self, radius: float) -> int:
        """mu(ball(radius)), counted on the numerators; radii in (r_cap, 1/2)
        raise."""
        k = self._numerator(radius)
        return self.size if k is None else int(np.count_nonzero(self.num <= k))

    def _numerator(self, radius: float) -> np.int32 | None:
        """The largest numerator within radius (_cap_numerator), None when the
        ball is all of G; raises between r_cap and 1/2."""
        if radius >= 0.5:
            return None
        if radius > self.r_cap:
            raise ValueError(f"radius {radius} lies between the table's cap "
                             f"{self.r_cap} and 1/2")
        return _cap_numerator(radius, self.group.phase_denominator)

    def distances(self) -> np.ndarray:
        """Every element's distance as float64, inf where the table holds none."""
        M = self.group.phase_denominator
        if self.at is None:
            return self.num / M
        out = np.full(self.size, np.inf)
        out[self.at] = self.num / M
        return out


def bohr_distance_table(freqs: GroupSet, r_cap: float = 0.5,
                        base: DistanceTable | None = None) -> DistanceTable:
    """max_{gamma in freqs} ||gamma(x)|| for every x, as exact ratios.

    The result holds exactly the elements within r_cap, or, when its rows
    ran over all of G, every element at cap 1/2. With base, a table of other
    frequencies over the same group that is dense or capped at r_cap or
    above, the result is the table of the union: the rows of freqs are
    evaluated only where base holds numerators (all of G, or its
    survivors), and when base covers every row already, the result holds
    base's numerators at base's cap.

    An empty frequency set constrains nothing (sup over the empty set is 0),
    and neither does the trivial character. Since ||-theta|| = ||theta||, a
    gamma whose negative is covered already (by base, or in freqs at a
    smaller index) adds nothing and gets no row. The numerators stay below
    2M < 2^31, so they are int32.
    """
    if not r_cap >= 0:
        raise ValueError(f"bohr_distance_table needs r_cap >= 0, got {r_cap}")
    g = freqs.group
    if base is not None and (base.group != g or not base.r_cap >= min(r_cap, 0.5)):
        raise ValueError("the base table needs the same group and a cap at or above r_cap")
    covers = frozenset(freqs.indices().tolist()) | (
        frozenset() if base is None else base.covers)
    coords = _rows(freqs, frozenset() if base is None else base.covers)
    rows = coords.shape[1]
    if not rows:
        # base covers every row already, so its distances are the union's;
        # with no base, every distance is 0
        if base is not None:
            return DistanceTable(g, base.r_cap, covers, base.num, base.at)
        return DistanceTable(g, r_cap, covers, np.zeros(g.order, dtype=np.int32))
    cap = _cap_numerator(r_cap, g.phase_denominator)
    if base is not None and base.at is not None:
        # no row runs over G: exact phases at the base's survivors
        at, best, cells = _sieve(g, partial(_direct_sums, g, coords),
                                 _weights(g, base.at, g.invariants), base.at, cap,
                                 base.num.copy(), rows)
        return DistanceTable(g, r_cap, covers, best, at, cells)
    # every pass over G runs on the half domain x_0 <= n_0 / 2, one element
    # of each pair {x, -x} (both when x_0 is 0 or n_0 / 2)
    half = (g.invariants[0] // 2 + 1,) + g.invariants[1:]
    size = math.prod(half)
    best = np.zeros(size, dtype=np.int32) if base is None else (
        base.num.reshape(g.invariants[::-1])[..., :half[0]].flatten())
    at, tables, coarse_rows = None, None, 0
    if cap is not None:
        alive = best <= cap
        # rows of independent uniform phases would each keep 2 r_cap of G; when
        # even they would leave GATHER_SHARE alive, the exact rows run densely
        if np.count_nonzero(alive) * (2 * r_cap) ** rows < GATHER_SHARE * size:
            tables, coarse_rows = _presieve(g, coords, half, cap, alive)
        if np.count_nonzero(alive) < GATHER_SHARE * size:
            at = np.flatnonzero(alive)
    if at is None:
        if tables is None:
            tables = _digit_rows(g, coords, half)
        best = mirrored(_dense(g, tables, half, best).reshape(half[::-1]), g)
        return DistanceTable(g, r_cap, covers, best, None, rows * size, coarse_rows * size)
    if tables is None:
        # no row ran over G, so no digit table is built
        sums, state = partial(_direct_sums, g, coords), _weights(g, at, half)
    else:
        # the rows the pre-sieve did not reach go first: they drop the most
        tables = [(np.roll(hi, -coarse_rows, axis=0), np.roll(lo, -coarse_rows, axis=0))
                  for hi, lo in tables]
        sums, state = partial(_gathered_sums, g, tables), _digits(at, half)
    at, best, cells = _sieve(g, sums, state, at, cap, best[at], rows)
    at, best = _unfolded(g, half, at, best)
    return DistanceTable(g, r_cap, covers, best, at, cells, coarse_rows * size)


def worst_distance(freqs: GroupSet, members: GroupSet) -> float:
    """max_{x in members} max_{gamma in freqs} ||gamma(x)||, exact: the
    table's direct phases (_direct_sums) at members alone, one row per pair
    {gamma, -gamma}; 0 when no character of freqs is nontrivial."""
    g = freqs.group
    coords, at = _rows(freqs), members.indices()
    # a cap at M / 2, the largest numerator, drops no element
    _, best, _ = _sieve(g, partial(_direct_sums, g, coords), _weights(g, at, g.invariants),
                        at, np.int32(g.phase_denominator // 2),
                        np.zeros(at.size, dtype=np.int32), coords.shape[1])
    return float(best.max(initial=0)) / g.phase_denominator


def _rows(freqs: GroupSet, covered_by: frozenset[int] = frozenset()) -> np.ndarray:
    """The coordinates (rank, rows) of the frequencies of freqs that need a
    row: one per pair {gamma, -gamma} whose negative is not in covered_by,
    none for the trivial character."""
    g = freqs.group
    idx = freqs.indices()
    coords = g.decode_array(idx)
    neg = g.encode_array(-coords)
    covered = freqs.has_indices(neg) & (neg < idx)
    if covered_by:
        covered |= np.array([m in covered_by for m in neg.tolist()], dtype=bool)
    return coords[:, ~covered & coords.any(axis=0)]


def _unfolded(g: FinAbGroup, half: tuple[int, ...], at: np.ndarray, best: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """The elements at of the half domain, with their numerators best, back
    on G: each x and its -x (which has the same numerator) where -x lies
    outside the half, as sorted indices and their numerators.

    The x come in increasing order and the -x, reversed, in increasing runs
    (a single run when G is one cycle), which a stable sort merges in about
    linear time.
    """
    coords = np.stack(_coordinates(at, half))
    outside = (coords[0] > 0) & (2 * coords[0] < g.invariants[0])
    idx = np.concatenate((g.encode_array(coords, reduced=True),
                          g.encode_array(-coords[:, outside])[::-1]))
    num = np.concatenate((best, best[outside][::-1]))
    order = np.argsort(idx, kind="stable")
    return idx[order], num[order]


def _dense(g: FinAbGroup, tables, lengths: tuple[int, ...], best: np.ndarray) -> np.ndarray:
    """best (one numerator per element of the domain of cycle lengths
    lengths) folded with the rows of the digit tables (_digit_rows), in
    blocks of about BLOCK_CELLS cells."""
    step = max(1, BLOCK_CELLS // best.size)
    for start in range(0, len(tables[0][0]), step):
        _fold(best, _phase_sums(g, _block(tables, start, start + step), lengths),
              g.phase_denominator)
    return best


def _presieve(g: FinAbGroup, coords: np.ndarray, lengths: tuple[int, ...], cap: np.int32,
              alive: np.ndarray) -> tuple[list | None, int]:
    """Clear in alive (over the domain of cycle lengths lengths) each element
    whose 16-bit phase on a row of the characters with coordinates coords
    lies more than floor(cap * 2^16 / M) + 2 * rank units from 0 (a margin
    no element within the cap passes; see the module docstring), in blocks
    of about BLOCK_CELLS cells, until fewer than STOP_SHARE of the domain is
    alive. Returns the digit tables (_digit_rows), built only when a row
    runs, and the number of rows run."""
    M = g.phase_denominator
    slack = (int(cap) << 16) // M + 2 * g.rank
    if 2 * slack >= 0xFFFF:  # every coarse distance passes
        return None, 0
    top = np.uint16(2 * slack)
    tables, start, step, rows = None, 0, max(1, BLOCK_CELLS // alive.size), coords.shape[1]
    while start < rows and np.count_nonzero(alive) >= STOP_SHARE * alive.size:
        if tables is None:
            tables = _digit_rows(g, coords, lengths)
        block = _block(tables, start, start + step)
        alive &= _coarse_sums(g, block, lengths, slack).max(axis=0) <= top
        start += len(block[0][0])
    return tables, start


def _sieve(g: FinAbGroup, sums, state: list[np.ndarray], at: np.ndarray,
           cap: np.int32, best: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The numerators over rows 0..rows - 1 of the elements at, folded into
    best (their numerators so far), in blocks that start at one row and
    double up to about BLOCK_CELLS cells: sums(start, stop, state) gives rows
    start..stop - 1 of the phase sums at the elements whose per-element
    arrays state holds. Before each block and after the last, drop every
    element past cap. Returns the survivors, their numerators and the cells
    evaluated."""
    start, cells, size = 0, 0, 1
    while True:
        alive = best <= cap
        if not alive.all():
            at, best = at[alive], best[alive]
            state = [s[alive] for s in state]
        if start == rows or not at.size:
            return at, best, cells
        stop = min(start + size, rows)
        _fold(best, sums(start, stop, state), g.phase_denominator)
        cells += (stop - start) * at.size
        start = stop
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


def _digit_rows(g: FinAbGroup, mc: np.ndarray,
                lengths: tuple[int, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per cycle Z_n, the phase tables (hi, lo) of the characters with
    coordinates mc (rank, k) at the coordinates 0..L - 1 (L the cycle's
    entry of lengths: n, or n_0 // 2 + 1 on the half domain), built once per
    table call.

    Coordinate x = a*B + b (B = ceil(sqrt(L))) has phase (m*B*a mod n +
    m*b mod n) * M/n = hi[:, a] + lo[:, b], with both tables int32 in [0, M)
    and one row per character.
    """
    M = g.phase_denominator
    out = []
    for m, n, L in zip(mc, g.invariants, lengths):
        B = math.isqrt(L - 1) + 1
        m = m[:, None]
        hi = (m * B * np.arange(-(-L // B)) % n * (M // n)).astype(np.int32)
        lo = (m * np.arange(B) % n * (M // n)).astype(np.int32)
        out.append((hi, lo))
    return out


def _block(tables, start: int, stop: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rows start..stop - 1 of the digit tables."""
    return [(hi[start:stop], lo[start:stop]) for hi, lo in tables]


def _phase_sums(g: FinAbGroup, tables, lengths: tuple[int, ...]) -> np.ndarray:
    """Phase numerators of the characters of the digit tables (_digit_rows)
    at every element of the domain of cycle lengths lengths, plus 0 or M: a
    (k, size) array with entries in [0, 2M).

    Each cycle's row is the outer sum of its digit tables (padded to
    ceil(L/B)*B and cut back to L), coordinate 0 fastest; each sum that
    feeds another is brought back into [0, M) by one conditional subtract.
    """
    M = g.phase_denominator
    total = None
    for (hi, lo), L in zip(tables, lengths):
        row = _outer_sum(hi, lo)[:, :L]
        total = row if total is None else _outer_sum(_mod(row, M), _mod(total, M))
    return total


def _coordinates(at: np.ndarray, lengths: tuple[int, ...]) -> list[np.ndarray]:
    """Per cycle, the int32 coordinates of the elements at of the domain of
    cycle lengths lengths (first coordinate fastest, as in the indexing)."""
    rest = at.astype(np.int32)
    out = []
    for L in lengths:
        quot = rest // L
        out.append(rest - quot * L)
        rest = quot
    return out


def _digits(at: np.ndarray, lengths: tuple[int, ...]) -> list[np.ndarray]:
    """The digits a_0, b_0, a_1, b_1, ... of the coordinates x = a*B + b of
    the elements at (B as in _digit_rows), in int32."""
    out = []
    for x, L in zip(_coordinates(at, lengths), lengths):
        B = math.isqrt(L - 1) + 1
        a = x // B
        out += [a, x - a * B]
    return out


def _gathered_sums(g: FinAbGroup, tables, start: int, stop: int,
                   digits: list[np.ndarray]) -> np.ndarray:
    """_phase_sums of rows start..stop - 1 of the digit tables at the
    elements whose digits (_digits) are given: a (k, len) array, gathered
    one row at a time."""
    M = g.phase_denominator
    total = None
    for (hi, lo), a, b in zip(_block(tables, start, stop), digits[::2], digits[1::2]):
        row = np.take(hi, a, axis=1)
        row += np.take(lo, b, axis=1)
        total = row if total is None else _mod(row, M) + _mod(total, M)
    return total


def _weights(g: FinAbGroup, at: np.ndarray, lengths: tuple[int, ...]) -> list[np.ndarray]:
    """Per cycle Z_n, x * M/n (int64) for the coordinates x of the elements
    at of the domain of cycle lengths lengths."""
    M = g.phase_denominator
    return [x.astype(np.int64) * (M // n)
            for x, n in zip(_coordinates(at, lengths), g.invariants)]


def _direct_sums(g: FinAbGroup, mc: np.ndarray, start: int, stop: int,
                 weights: list[np.ndarray]) -> np.ndarray:
    """The exact phase numerators sum_j m_j * x_j * M/n_j mod M of the
    characters with coordinates mc[:, start:stop] at the elements whose
    weights (_weights) are given: a (k, len) int32 array in [0, M), from no
    digit table. Each product is below 2^44, so the sums stay exact in int64."""
    total = sum(m[:, None] * w for m, w in zip(mc[:, start:stop], weights))
    return (total % g.phase_denominator).astype(np.int32)


def _coarse_sums(g: FinAbGroup, tables, lengths: tuple[int, ...], shift: int) -> np.ndarray:
    """_phase_sums in 2^16 units, plus shift: a (k, size) uint16 array.

    Each digit v becomes floor(v * 2^16 / M), and shift joins the first
    cycle's low digits. Every operand is uint16, so the outer sums wrap
    mod 2^16 with no reduction step.
    """
    M = g.phase_denominator
    total = None
    for (hi, lo), L in zip(tables, lengths):
        hi = ((hi.astype(np.int64) << 16) // M).astype(np.uint16)
        lo = (((lo.astype(np.int64) << 16) // M + shift) & 0xFFFF).astype(np.uint16)
        shift = 0  # the first cycle's low digits carried it
        row = _outer_sum(hi, lo)[:, :L]
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
    return bohr_distance_table(freqs).ball


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
