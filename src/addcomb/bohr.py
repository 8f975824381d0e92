"""Bohr sets, the sup-norm Bohr pseudo-metric, and ball-dimension estimation.

Bohr(Gamma, delta) is the set of x whose character phases stay within delta
of zero (in the circle norm) for every frequency in Gamma. Memberships come
from exact integer phase numerators, so two runs agree bit for bit; a 1e-9
inclusion slack keeps borderline radii deterministic when the radius itself
arrives as a float. bohr_distance_table gives every element's distance to
0 at once; `oracles.bohr_distance` evaluates one distance frequency by
frequency and is its cross-check.

The table takes one phase row per pair {gamma, -gamma} in the frequency set
(||-theta|| = ||theta||). Each row is an outer sum of short digit tables,
one pair of sqrt(n)-long tables per cycle Z_n, so no full-length modulo is
taken; entries stay below 2M for M = lcm(n_1..n_k) <= |G| <= 2^22 (the
group order cap), so the rows are int32. Rows of small groups are batched
into blocks of about BLOCK_CELLS cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .groups import FinAbGroup
from .serialize import set_to_json
from .sets import GroupSet, Multiples, prog, sumset

INCLUSION_SLACK = 1e-9

#: dimension grids never descend more than this many dyadic levels.
DIM_GRID_CAP = 40

#: int32 cells in one block of phase rows (rows of small groups are batched).
BLOCK_CELLS = 1 << 20


def bohr_distance_table(freqs: GroupSet) -> np.ndarray:
    """max_{gamma in freqs} ||gamma(x)|| for every x, as exact ratios.

    An empty frequency set constrains nothing (sup over the empty set is 0).
    Since ||-theta|| = ||theta||, a gamma whose negative is also in freqs at
    a smaller index adds nothing and gets no row. The numerators stay below
    2M < 2^31, so they are int32.
    """
    g = freqs.group
    M = g.phase_denominator
    top = np.int32(M)
    idx = freqs.indices()
    coords = g.decode_array(idx)
    neg = g.encode_array(-coords)
    coords = coords[:, ~(freqs.mask[neg] & (neg < idx))]
    best = np.zeros(g.order, dtype=np.int32)
    rows = max(1, BLOCK_CELLS // g.order)
    for start in range(0, coords.shape[1], rows):
        # |s - M| is r or M - r for the numerator r = s mod M
        u = _phase_sums(g, coords[:, start:start + rows])
        u -= top
        np.abs(u, out=u)
        np.minimum(u, top - u, out=u)
        np.maximum(best, u.max(axis=0), out=best)
    return best / M


def _phase_sums(g: FinAbGroup, mc: np.ndarray) -> np.ndarray:
    """Phase numerators of the characters with coordinates mc (rank, k) at
    every element, plus 0 or M: a (k, order) array with entries in [0, 2M).

    Coordinate x = a*B + b (B = ceil(sqrt(n)), padded to ceil(n/B)*B and cut
    back to n) adds (m*B*a mod n + m*b mod n) * M/n, so every full-length
    row is an outer sum of short tables, coordinate 0 fastest; each sum that
    feeds another is brought back into [0, M) by one conditional subtract.
    """
    M = g.phase_denominator
    total = None
    for m, n in zip(mc, g.invariants):
        B = math.isqrt(n - 1) + 1
        m = m[:, None]
        hi = (m * B * np.arange(-(-n // B)) % n * (M // n)).astype(np.int32)
        lo = (m * np.arange(B) % n * (M // n)).astype(np.int32)
        row = _outer_sum(hi, lo)[:, :n]
        total = row if total is None else _outer_sum(_mod(row, M), _mod(total, M))
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


def table_family(g: FinAbGroup, table: np.ndarray) -> Callable[[float], GroupSet]:
    """radius -> the Bohr set cut from a precomputed distance table over g."""

    def family(radius: float) -> GroupSet:
        return GroupSet(g, table <= radius + INCLUSION_SLACK)

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
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"bohr_set needs a finite delta >= 0, got {delta}")
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

    def ratios(self) -> list[tuple[float, float]]:
        return [(d, math.log2(m2 / m1)) for d, m1, m2 in self.measures]

    def certified(self, d: float, delta: float) -> bool:
        """d-dimensional at radius delta: every ratio on the sub-grid (0, delta] is <= d."""
        sub = [r for dd, r in self.ratios() if dd <= delta]
        return all(r <= d for r in sub)

    def to_jsonable(self) -> dict:
        return {
            "grid": list(self.grid),
            "measures": [list(m) for m in self.measures],
            "ratios": [[d, r] for d, r in self.ratios()],
            "empirical_dim": self.empirical_dim,
            "excluded": list(self.excluded),
        }


def dimension_estimate(family: Callable[[float], GroupSet],
                       grid: Sequence[float]) -> DimensionEstimate:
    """Empirical ball dimension of a monotone radius family on a grid.

    Zero-measure grid points are excluded and flagged; a measure decreasing
    in the radius violates the monotonicity precondition and raises.
    """
    used, measures, excluded = [], [], []
    for delta in grid:
        b1 = family(delta)
        if b1.measure == 0:
            excluded.append(float(delta))
            continue
        b2 = family(2 * delta)
        if b2.measure < b1.measure:
            raise ValueError(f"family is not monotone at radius {delta}")
        used.append(float(delta))
        measures.append((float(delta), b1.measure, b2.measure))
    if not measures:
        raise ValueError("no grid point had positive measure")
    dim = max(math.log2(m2 / m1) for _, m1, m2 in measures)
    return DimensionEstimate(tuple(used), tuple(measures), dim, tuple(excluded))


def dyadic_dimension_grid(family: Callable[[float], GroupSet], delta: float,
                          cap: int = DIM_GRID_CAP) -> list[float]:
    """Default grid delta * 2^{-j}: descend while mu > 1, stop at the cap.

    The first level whose ball shrinks to a single element (or empties) is
    excluded; at desk scale those bottom ratios only measure discreteness.
    """
    grid = []
    d = float(delta)
    for _ in range(cap + 1):
        if family(d).measure <= 1:
            break
        grid.append(d)
        d /= 2.0
    if not grid:
        grid = [float(delta)]
    return grid


# -- rounding and nesting (radius rescaling) -----------------------------------------


def nearest_int_dist(x: float) -> float:
    """<x>: distance to the nearest integer, round-half-even at the boundary."""
    return abs(x - round(x))


@dataclass(frozen=True)
class RoundingCheck:
    premise: bool      # <r t> <= k delta for all r = 1..k
    conclusion: bool   # <t> <= delta
    applicable: bool   # k delta < 1/3, the regime with a guarantee


def rounding_check(t: float, k: int, delta: float) -> RoundingCheck:
    """Multiples staying near integers force t itself near an integer.

    Whenever the premise holds and k*delta < 1/3, the conclusion must hold.
    """
    if k < 1:
        raise ValueError(f"rounding_check needs k >= 1, got {k}")
    if not 0 < delta <= 1:
        raise ValueError(f"rounding_check needs delta in (0, 1], got {delta}")
    premise = all(nearest_int_dist(r * t) <= k * delta for r in range(1, k + 1))
    conclusion = nearest_int_dist(t) <= delta
    return RoundingCheck(premise, conclusion, k * delta < 1 / 3)


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


# -- growth of Bohr sets with structured frequency sets -------------------------------


@dataclass(frozen=True)
class StructuredGrowthAudit:
    """Doubling ratio of Bohr(Gamma u X, .) under the covering hypothesis on Gamma."""

    hypothesis: bool            # Gamma + Gamma inside Prog(X,1) + Gamma (in the dual)
    ratio: float                # mu(Bohr(Gamma u X, 2 delta)) / mu(Bohr(Gamma u X, delta))
    empirical_constant: float | None  # ln(ratio) / (|X| ln |X|), |X| >= 2 only
    applicable: bool            # hypothesis held, so the ratio is meaningful
    mu_small: int
    mu_big: int


def structured_growth_audit(Gamma: GroupSet, X: GroupSet,
                            delta: float) -> StructuredGrowthAudit:
    """Measure the Bohr doubling ratio and test the frequency-covering hypothesis."""
    if not 0 < delta <= 2 ** -4:
        raise ValueError(f"structured_growth_audit needs delta in (0, 1/16], got {delta}")
    if not Gamma.contains_zero():
        raise ValueError("Gamma must contain the trivial character")
    if not Gamma.is_symmetric():
        raise ValueError("Gamma must be symmetric")
    covering = sumset(prog(X.elements(), 1, group=X.group), Gamma)
    hypothesis = sumset(Gamma, Gamma).is_subset_of(covering)
    union = Gamma | X
    fam = bohr_family(union)
    small = fam(delta)
    big = fam(2 * delta)
    ratio = big.measure / small.measure
    const = None
    if X.cardinality >= 2:
        const = math.log(ratio) / (X.cardinality * math.log(X.cardinality))
    return StructuredGrowthAudit(hypothesis, ratio, const, hypothesis,
                                 small.measure, big.measure)
