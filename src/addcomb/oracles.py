"""Brute-force oracles: the defining sums, evaluated literally.

Each function here recomputes a quantity that a production module obtains
by a faster route, straight from its definition and in time quadratic in
the group or the set. They exist only to cross-check those routes: the
verification suites in `verify` and the tests import them, and no
production module does.
"""

from __future__ import annotations

import math

import numpy as np

from .fourier import DualFunction, _as_values
from .groups import Character, FinAbGroup, GroupElement, GroupMismatchError
from .sets import GroupSet


def phase_numerators(group: FinAbGroup, m_index: int) -> np.ndarray:
    """Exact phase numerators of character m at every element (int64)."""
    return phase_numerator_rows(group, [m_index])[0]


def phase_numerator_rows(group: FinAbGroup, m_indices) -> np.ndarray:
    """phase_numerators of several characters: one int64 row per index."""
    M = group.phase_denominator
    mc = group.decode_array(np.asarray(m_indices, dtype=np.int64))
    total = np.zeros((mc.shape[1], group.order), dtype=np.int64)
    for m, col, n in zip(mc, group.coords_table(), group.invariants):
        total += ((m[:, None] * col) % n) * (M // n)
    return total % M


def naive_transform(f, group: FinAbGroup | None = None) -> DualFunction:
    """f^(gamma_m) = sum_x f(x) conj(gamma_m(x)), one character at a time."""
    group, values = _as_values(f, group)
    # chi_m(x) phases from the exact integer numerators
    M = group.phase_denominator
    out = np.empty(group.order, dtype=np.complex128)
    for m in range(group.order):
        num = phase_numerators(group, m)
        out[m] = np.sum(values * np.exp(-2j * np.pi * num / M))
    return DualFunction(group, out)


def difference_table(A: GroupSet) -> np.ndarray:
    """The (|A|, |A|) int64 table of a - a' over A x A, one row per a."""
    g = A.group
    idx = A.indices()
    other = g.coords_table()[:, g.negation_permutation()[idx]]  # coords of -a'
    table = np.empty((idx.size, idx.size), dtype=np.int64)
    for r, a in enumerate(idx):
        a_coords = np.asarray(g.decode(int(a)), dtype=np.int64)[:, None]
        table[r] = g.encode_array(a_coords + other)
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
    num = phase_numerators(g, (gamma - gamma2).index)
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
