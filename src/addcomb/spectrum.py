"""Large spectra and the L^2 spectral pseudo-metric on the dual group.

LSpec(A, delta) collects the characters gamma with |1_A^(gamma)| >=
sqrt(1 - delta^2/2) * mu(A); equivalently, the delta-ball around the trivial
character of the pseudo-metric rho(gamma, gamma') = ||1 - gamma conj(gamma')||
in L^2 of the normalized autocorrelation measure of A. The identity

    rho(gamma, gamma_0)^2 = 2 (1 - |1_A^(gamma)|^2 / mu(A)^2)

links the two views; spectral_distance evaluates the closed form, and the
literal double sum over A x A is the cross-check `oracles.spectral_distance`.
The spectral moments int |1_A^|^{2k} d(nu) are `fourier.moment_detail`.

Every spectrum is cut by one rule (cut_spectrum): gamma is a member when
|1_S^(gamma)| >= threshold - THRESHOLD_SLACK * mu(S). It reads a
SpectrumIndex: the sorted characters whose modulus meets the rule at the
index's own threshold, with their moduli, so a cut at any delta up to the
index's reads the index alone. spectrum_index, which lspec calls once per
cut and a Freiman run once per set, picks its grid.

The zoom. Let S lie, on each cycle Z_{n_j}, in the arc of L_j points from
a_j, and let Q_j >= L_j divide n_j, h_j = n_j / Q_j. S's indicator cropped
to those arcs (sets._crop) and transformed on the grid prod Z_{Q_j} gives
|1_S^| at the coarse characters m_j = k_j h_j. Every character lies in the
cell of one coarse point, m_j = k_j h_j + u_j with |u_j| <= floor(h_j / 2).
With t_j the arc coordinate less (L_j - 1) / 2 (a unit factor of m apart),
|1 - e(u.t)| <= 2 pi sum_j |u_j t_j| / n_j gives, across a cell,

    | |1_S^(m)| - |1_S^(k h)| | <= lip = pi |S| sum_j floor(h_j / 2) (L_j - 1) / n_j,

which is (pi/2) |S| sum_j (L_j - 1) / Q_j for even h_j. A cell is dropped
when its computed coarse modulus plus lip, the coarse transform's rounding
bound (fourier.transform_error_bound) and the direct sums' (_direct_error)
stays below threshold - THRESHOLD_SLACK mu(S): no character in it can then
meet the rule. The characters of the kept cells are summed directly from
exact integer phases: e(-m_j x_j / n_j) = e(-k_j t_j / Q_j) e(-u_j t_j / n_j)
with t_j = x_j - a_j mod n_j, up to a unit factor of m. So each cycle needs
one table over its kept k_j and one over its u_j, of L_j columns each,
gathered at S's arc coordinates and contracted over S by np.einsum (no
BLAS call, whose threads the CLI does not pin). A zoomed index holds
exactly the characters whose direct sum meets the rule, as if every
character of G had been summed.

The grid is chosen before any transform by an operation count in
point-stages of a transform (a transform of P points costs P log2 P of
them), with the prices GRID_COST, read at call time so that tests force
either grid by rebinding it. The full grid costs |G| log2 |G|. A zoom on Q
= prod Q_j points costs a fixed part, Q log2 Q, one exponential per table
entry and one multiply-add per element of S and character of a kept cell,
where Parseval bounds the kept cells by Q |S| / c^2, c the least true
coarse modulus a kept cell can have. The candidate grids take Q_j the least divisor of n_j
at or above rho L_j, for rho = 1, 2, 4, ...: a set spread over whole
cycles, or a cut whose threshold lip would pass, has none and takes the
full grid.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .fourier import transform, transform_error_bound
from .groups import Character, FinAbGroup, GroupMismatchError, _check_number
from .serialize import set_to_json
from .sets import GroupSet, _arc, _coords, _crop

#: inclusion-favoring slack: borderline characters land inside the spectrum.
THRESHOLD_SLACK = 1e-9

#: The prices, in point-stages of a transform, of a zoom's fixed work (its
#: plan and about 40 numpy calls), of a complex exponential of an exact
#: phase and of a complex multiply-add of its contraction. On a 2-core VM
#: (numpy 2.4.6) a full transform with its moduli took 1.4 ns a
#: point-stage, a zoom of a set of 3-9 points 190-220 us, np.exp of a
#: complex array 30-50 ns an entry and np.einsum 1.3-2.1 ns a multiply-add.
GRID_COST = (150_000.0, 25.0, 1.0)

#: The unit roundoff of float64.
_U = 2.0 ** -53


@dataclass(frozen=True)
class Spectrum:
    """A large spectrum: its set, cut threshold and members."""

    source: GroupSet
    delta: float
    members: GroupSet          # over the dual group
    threshold: float           # sqrt(1 - delta^2/2) * mu(A)

    @property
    def count(self) -> int:
        return self.members.cardinality

    def to_jsonable(self) -> dict:
        return {**set_to_json(self.members), "delta": self.delta,
                "threshold": self.threshold}


@dataclass(frozen=True, eq=False)
class SpectrumIndex:
    """The characters of source whose modulus |1_S^| meets the cut rule at
    threshold (that of delta): their sorted indices at and moduli, each
    within rounding of the true modulus. grid is the transform's: the
    group's cycles (the full transform) or a zoom's coarse grid."""

    source: GroupSet
    delta: float
    threshold: float
    grid: tuple[int, ...]
    at: np.ndarray
    moduli: np.ndarray
    rounding: float

    def serves(self, delta: float) -> bool:
        """Whether a cut at delta reads only characters the index holds."""
        return _threshold(self.source, delta) >= self.threshold


def lspec(A: GroupSet, delta: float) -> Spectrum:
    """LSpec(A, delta), cut from the index spectrum_index builds at delta;
    delta >= sqrt(2) yields the full dual group."""
    return cut_spectrum(spectrum_index(A, delta), delta)


def _check_cut(A: GroupSet, delta: float) -> None:
    if A.cardinality == 0:
        raise ValueError("lspec needs a nonempty set")
    _check_number(delta, "lspec", "delta", 0)


def _threshold(A: GroupSet, delta: float) -> float:
    return math.sqrt(max(0.0, 1.0 - delta * delta / 2.0)) * float(A.measure)


def cut_spectrum(index: SpectrumIndex, delta: float) -> Spectrum:
    """LSpec(S, delta) read off an index of S that serves delta.

    Spectra of one set at several deltas are cuts of one index, so a caller
    holding it needs no further transform.
    """
    A = index.source
    _check_cut(A, delta)
    if not index.serves(delta):
        raise ValueError(f"an index cut at delta {index.delta} cannot serve delta {delta}")
    threshold = _threshold(A, delta)
    kept = index.at[index.moduli >= threshold - THRESHOLD_SLACK * float(A.measure)]
    return Spectrum(A, float(delta), GroupSet.from_sorted(A.group.dual(), kept), threshold)


def spectrum_index(S: GroupSet, delta: float) -> SpectrumIndex:
    """The index of S's characters that serves every cut at delta or below,
    on the grid of least operation count (the full grid or a zoom)."""
    _check_cut(S, delta)
    zoom = _zoom_grid(S, _threshold(S, delta))
    return _full_index(S, delta) if zoom is None else _zoomed_index(S, delta, *zoom)


def _full_index(S: GroupSet, delta: float) -> SpectrumIndex:
    """The index read off the full transform's moduli."""
    g, mu = S.group, float(S.measure)
    threshold = _threshold(S, delta)
    magnitudes = transform(S).magnitudes()
    at = np.flatnonzero(magnitudes >= threshold - THRESHOLD_SLACK * mu)
    return SpectrumIndex(S, float(delta), threshold, g.invariants, at, magnitudes[at],
                         transform_error_bound(g.invariants, math.sqrt(mu)))


def _direct_error(mu: int, rank: int) -> float:
    """A bound on | |computed direct sum| - |1_S^(m)| | for a zoomed
    character: each of the 2 rank table entries of a term is within 15u of
    its root of unity (an angle 2 pi p / n rounded twice, at most 4 pi u
    off, and the exponential's own u), so a term is within 32 rank u; the
    sum of mu terms of modulus 1 adds at most 2 mu u each, and the modulus
    one u more."""
    return mu * (32 * rank + 2 * mu + 1) * _U


def _keep_level(mu: int, threshold: float, grid: tuple[int, ...], arcs, g: FinAbGroup
                ) -> float:
    """The least computed coarse modulus of a cell the zoom on grid keeps:
    threshold - THRESHOLD_SLACK mu, less lip and the two rounding bounds."""
    lip = math.pi * mu * sum((n // q // 2) * (length - 1) / n
                             for n, q, (_, length) in zip(g.invariants, grid, arcs))
    return (threshold - THRESHOLD_SLACK * mu - lip
            - transform_error_bound(grid, math.sqrt(mu)) - _direct_error(mu, g.rank))


@functools.lru_cache(maxsize=256)
def _divisors(n: int) -> tuple[int, ...]:
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return tuple(sorted(set(low + [n // d for d in low])))


def _divisor_at_least(n: int, x: float) -> int:
    """The least divisor of n at or above x, and at least 2 (x <= n)."""
    divisors = _divisors(n)
    return divisors[bisect.bisect_left(divisors, max(2, x))]


def _arcs(S: GroupSet) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """S's coordinates (one side of _coords) and the (start, length) of its
    arc on each cycle (_arc): the one read of S a zoom makes."""
    coords = _coords(S, S)[0]
    return coords, [_arc(coords, S.group, j) for j in range(S.group.rank)]


def _zoom_grid(S: GroupSet, threshold: float) -> tuple[
        tuple[int, ...], np.ndarray, list[tuple[int, int]]] | None:
    """The coarse grid of the zoom of least operation count (GRID_COST), with
    the read of S it was chosen from (_arcs), or None when no zoom costs
    less than the full transform."""
    g, mu = S.group, S.cardinality
    fixed, per_exp, per_mac = GRID_COST
    best, chosen, rho = g.order * math.log2(g.order), None, 1
    # a zoomed cycle has h_j >= 2, and S's projection on it has at least
    # ceil(|S| n_j / |G|) points: when that alone puts lip past the
    # threshold on every cycle, no zoom is admissible; so where that holds,
    # or the full transform costs no more than a zoom's fixed work, S is
    # not read
    if best <= fixed or all(math.pi * mu * ((mu * n - 1) // g.order) / n >= threshold
                            for n in g.invariants):
        return None
    coords, arcs = _arcs(S)
    while True:
        grid = tuple(_divisor_at_least(n, min(n, rho * length))
                     for n, (_, length) in zip(g.invariants, arcs))
        if grid == g.invariants:
            return None if chosen is None else (chosen, coords, arcs)
        rho *= 2
        # a kept cell's true coarse modulus is at least this
        floor = _keep_level(mu, threshold, grid, arcs, g) - transform_error_bound(
            grid, math.sqrt(mu))
        if floor <= 0:
            continue
        points, steps = math.prod(grid), [n // q for n, q in zip(g.invariants, grid)]
        cells = min(points, points * mu / floor ** 2)
        exps = sum((min(cells, q) + h) * length
                   for q, h, (_, length) in zip(grid, steps, arcs))
        cost = (fixed + points * math.log2(points) + per_exp * exps
                + per_mac * cells * mu * (math.prod(steps) + g.rank - 1))
        if cost < best:
            best, chosen = cost, grid


def _roots(phases: np.ndarray, n: int) -> np.ndarray:
    """e(-p / n) for the exact integer phases p."""
    return np.exp(phases * (-2j * math.pi / n))


def _zoomed_index(S: GroupSet, delta: float, grid: tuple[int, ...], coords: np.ndarray,
                  arcs: list[tuple[int, int]]) -> SpectrumIndex:
    """The index by the zoom on grid (Q_j dividing n_j, at least S's arc
    length on cycle j), given S's coordinates and arcs (_arcs): the coarse
    transform of S cropped to its arcs, then direct sums at the characters
    of every cell it keeps."""
    g, mu = S.group, S.cardinality
    threshold = _threshold(S, delta)
    coarse_group = FinAbGroup(grid)
    coarse = transform(_crop(S, [(q, a) for q, (a, _) in zip(grid, arcs)], coords),
                       coarse_group).magnitudes()
    cells = coarse_group.decode_array(
        np.flatnonzero(coarse >= _keep_level(mu, threshold, grid, arcs, g)))
    # per cycle: the coarse factor e(-k_j t_j / Q_j) of every kept cell and
    # element, the fine factors e(-u_j t_j / n_j), and the characters' indices
    factor, fine, at, stride = 1.0, [], 0, 1
    for j, (n, q, (start, length)) in enumerate(zip(g.invariants, grid, arcs)):
        t = (coords[j].astype(np.int64) - start) % n
        span = np.arange(length, dtype=np.int64)
        present = np.zeros(q, dtype=bool)
        present[cells[j]] = True
        ks = np.flatnonzero(present)
        row = np.cumsum(present)[cells[j]] - 1
        factor = factor * _roots(np.multiply.outer(ks, span) % q, q)[row[:, None], t]
        h = n // q
        u = np.arange(h, dtype=np.int64) - h // 2
        fine.append(_roots(np.multiply.outer(u, span) % n, n)[:, t])
        shape = [cells.shape[1]] + [1] * g.rank
        shape[1 + j] = h
        at = at + ((cells[j][:, None] * h + u) % n * stride).reshape(shape)
        stride *= n
    axes = "".join(chr(ord("A") + j) for j in range(g.rank))
    moduli = np.abs(np.einsum(f"ks,{','.join(a + 's' for a in axes)}->k{axes}",
                              factor, *fine)).ravel()
    at = at.ravel()
    kept = np.flatnonzero(moduli >= threshold - THRESHOLD_SLACK * mu)
    order = np.argsort(at[kept])
    return SpectrumIndex(S, float(delta), threshold, grid, at[kept][order],
                         moduli[kept][order], _direct_error(mu, g.rank))


def spectral_distance(gamma: Character, gamma2: Character, A: GroupSet) -> float:
    """rho(gamma, gamma') for the spectral metric of A, from one transform:
    rho^2 = 2(1 - |1_A^(gamma - gamma')|^2 / mu(A)^2)."""
    if A.cardinality == 0:
        raise ValueError("spectral_distance needs a nonempty set")
    if gamma.group != gamma2.group or gamma.group != A.group:
        raise GroupMismatchError("characters and set must share one group")
    mu = float(A.measure)
    mag = float(np.abs(transform(A).values[(gamma - gamma2).index]))
    return math.sqrt(max(0.0, 2.0 * (1.0 - (mag / mu) ** 2)))
