"""Brute-force oracles: the defining sums, evaluated literally.

Each function here recomputes a quantity that a production module obtains
by a faster route, straight from its definition and in time quadratic in
the group or the set. They exist only to cross-check those routes: the
verification suites in `verify`, the tests and tools/ladder.py import
them, and no production module does.

The Birkhoff metric's oracle, dijkstra_rho, settles one element at a time
from 0 over every step, where the production metric dilates whole distance
arrays level by level. It takes the levels as plain sets, so that it
depends on nothing in the module it checks.

The tables stay literal but are built at once: the phase numerators of a
batch of characters by one outer product per cycle, and the difference
table a - a' over A x A by broadcasting the coordinates of A against
themselves, in row blocks of about DIFFERENCE_BLOCK_CELLS cells so that
the temporaries stay small. The last difference table is kept for the next
oracle call on an equal set.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .fourier import DualFunction, _as_values
from .groups import Character, FinAbGroup, GroupElement, GroupMismatchError
from .sets import GroupSet

#: cells of the difference table broadcast at once.
DIFFERENCE_BLOCK_CELLS = 1 << 16


def phase_numerator_rows(group: FinAbGroup, m_indices) -> np.ndarray:
    """Exact phase numerators of several characters at every element: one
    int64 row per index.

    Each cycle's term ((m_j x_j) mod n_j) * M/n_j is below M, so the rows
    stay reduced mod M by one conditional subtract per later cycle.
    """
    M = group.phase_denominator
    mc = group.decode_array(np.asarray(m_indices, dtype=np.int64))
    total = None
    for m, col, n in zip(mc, group.coords_table(), group.invariants):
        term = (m[:, None] * col) % n
        term *= M // n
        if total is None:
            total = term
        else:
            total += term
            np.subtract(total, M, out=total, where=total >= M)
    return total


def naive_transform(f, group: FinAbGroup | None = None) -> DualFunction:
    """f^(gamma_m) = sum_x f(x) conj(gamma_m(x)), one character at a time."""
    group, values = _as_values(f, group)
    # chi_m(x) phases from the exact integer numerators
    M = group.phase_denominator
    out = np.empty(group.order, dtype=np.complex128)
    for m in range(group.order):
        num = phase_numerator_rows(group, [m])[0]
        out[m] = np.sum(values * np.exp(-2j * np.pi * num / M))
    return DualFunction(group, out)


#: the last difference table built, read-only: (A, block cells, table).
_last_table: tuple = (None, None, None)


def difference_table(A: GroupSet) -> np.ndarray:
    """The (|A|, |A|) int64 table of a - a' over A x A: row a, column a'.

    Kept until a call on another set or block size, which rebuilds it."""
    global _last_table
    if _last_table[:2] == (A, DIFFERENCE_BLOCK_CELLS):
        return _last_table[2]
    _last_table = (None, None, None)  # never hold two tables at once
    g = A.group
    coords = g.coords_table()[:, A.indices()]
    size = coords.shape[1]
    table = np.empty((size, size), dtype=np.int64)
    rows = max(1, DIFFERENCE_BLOCK_CELLS // max(1, size))
    for start in range(0, size, rows):
        block = coords[:, start:start + rows, None] - coords[:, None, :]
        table[start:start + rows] = g.encode_array(block)
    table.setflags(write=False)
    _last_table = (A, DIFFERENCE_BLOCK_CELLS, table)
    return table


def pairwise_difference_counts(A: GroupSet) -> np.ndarray:
    """count of (a, a') in A x A with a - a' = x, for every x."""
    return np.bincount(difference_table(A).ravel(), minlength=A.group.order)


def spectral_distance(gamma: Character, gamma2: Character, A: GroupSet) -> float:
    """rho(gamma, gamma') as the double sum over A x A of |1 - (gamma - gamma')(a - a')|^2."""
    if A.cardinality == 0:
        raise ValueError("spectral_distance needs a nonempty set")
    if gamma.group != gamma2.group or gamma.group != A.group:
        raise GroupMismatchError("characters and set must share one group")
    g = A.group
    num = phase_numerator_rows(g, [(gamma - gamma2).index])[0]
    vals = np.exp(1j * (2.0 * np.pi * num / g.phase_denominator))
    total = float(np.sum(np.abs(1.0 - vals[difference_table(A)]) ** 2))
    return math.sqrt(total) / A.measure


def bohr_distance(x: GroupElement, y: GroupElement, freqs: GroupSet) -> float:
    """sup-norm distance sup{||gamma(x - y)|| : gamma in freqs}; needs freqs nonempty."""
    if freqs.cardinality == 0:
        raise ValueError("bohr_distance needs a nonempty frequency set")
    g = freqs.group
    if x.group != g or y.group != g:
        raise GroupMismatchError("elements and frequencies must share one group")
    z = (x - y).index
    M = g.phase_denominator
    best = 0
    for m in freqs.indices():
        num = g.phase_numerator(int(m), z)
        best = max(best, min(num, M - num))
    return best / M


def dijkstra_rho(group: FinAbGroup, levels: Sequence[GroupSet],
                 core: GroupSet | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(rho*, rho) of a Bourgain system by a per-element Dijkstra from 0 in
    float64, given its ternary levels S_{3^-k} for k = 0, 1, ... and its
    attested core, if any.

    rho* is 2^-k at the deepest level holding the element and 0 on the core;
    every element of finite rho* is a step of that cost. One argmin per
    settled element, relaxing every step at once; dyadic weights make the
    float sums exact below the depth bound.
    """
    rho_star = np.full(group.order, np.inf)
    for k, S in enumerate(levels):
        rho_star[S.mask] = 2.0 ** -k
    if core is not None:
        rho_star[core.mask] = 0.0
    steps = np.flatnonzero(np.isfinite(rho_star))
    weights = rho_star[steps]
    step_coords = group.coords_table()[:, steps]
    dist = np.full(group.order, np.inf)
    dist[0] = 0.0
    done = np.zeros(group.order, dtype=bool)
    for _ in range(group.order):
        candidates = np.where(done, np.inf, dist)
        u = int(np.argmin(candidates))
        if not np.isfinite(candidates[u]):
            break
        done[u] = True
        nbrs = group.encode_array(np.asarray(group.decode(u), dtype=np.int64)[:, None]
                                  + step_coords)
        np.minimum.at(dist, nbrs, dist[u] + weights)
    return rho_star, dist
