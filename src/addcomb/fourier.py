"""Exact discrete Fourier analysis on a finite abelian group.

Transforms are taken against the counting measure: f^(gamma_m) =
sum_x f(x) * conj(gamma_m(x)). On the product-of-cycles encoding this is a
multidimensional DFT along each cyclic factor, so the transform reshapes to
the factor grid and calls numpy's real FFT. Every function transformed here
is real, so f^(-gamma) = conj f^(gamma): the real FFT gives the characters
with first coordinate m_0 <= n_0 / 2, and the conjugate mirror fills the
rest. A spectrum cut needs only |f^|, which DualFunction.magnitudes
mirrors from the half spectrum's moduli without building the complex
values. The quadratic evaluation of the defining sum is the cross-check
`oracles.naive_transform`.

All quantities handled here are integers or short cosine sums, so indicator
convolutions are snapped back to exact integers after the FFT round trip.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .groups import FinAbGroup, GroupMismatchError
from .sets import GroupSet, OperandCache

#: |value - nearest integer| below this snaps indicator convolutions to ints.
INT_SNAP_TOL = 1e-6

#: natural log of the largest value reported as a float; above it, log space.
LOG_FLOAT_CAP = math.log(1e300)


class DualFunction:
    """A complex-valued function on the dual group, one value per character.

    Built from its values, or by transform from the real FFT's half
    spectrum (m_0 <= n_0 / 2). Then the values are mirrored from the half
    on first use, and magnitudes() mirrors the half's moduli instead, as
    |f^(-gamma)| = |f^(gamma)|: a spectrum cut, which reads only the
    moduli, never builds the complex values. Both ways give the same bits.
    """

    __slots__ = ("group", "_values", "_half")

    def __init__(self, group: FinAbGroup, values: np.ndarray | None = None, *,
                 half: np.ndarray | None = None):
        if values is not None:
            if values.shape != (group.order,):
                raise ValueError("value vector length must equal the group order")
            values.setflags(write=False)
        self.group, self._values, self._half = group, values, half

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = _mirrored(self._half, self.group)
            self._values.setflags(write=False)
            self._half = None
        return self._values

    def magnitudes(self) -> np.ndarray:
        if self._values is None:
            return _mirrored(np.abs(self._half), self.group)
        return np.abs(self._values)


def _as_values(f, group: FinAbGroup | None) -> tuple[FinAbGroup, np.ndarray]:
    if isinstance(f, GroupSet):
        return f.group, f.mask.astype(np.float64)
    if group is None:
        raise ValueError("array input needs an explicit group")
    arr = np.asarray(f, dtype=np.float64)
    if arr.shape != (group.order,):
        raise ValueError(f"function length {arr.shape} != group order {group.order}")
    return group, arr


def transform(f, group: FinAbGroup | None = None) -> DualFunction:
    """Fourier transform of a real function (or set indicator) on G.

    The real FFT of the reversed-grid layout (_half_spectrum) gives the
    characters with m_0 <= n_0 / 2; _mirror fills the others by the
    conjugate mirror f^(-gamma) = conj f^(gamma) when the values are read.
    """
    group, values = _as_values(f, group)
    return DualFunction(group, half=_half_spectrum(values, group))


def _mirrored(half: np.ndarray, group: FinAbGroup) -> np.ndarray:
    """The flat values on all of the dual of a function whose half (m_0 <=
    n_0 / 2, the real FFT's layout) is given, by _mirror."""
    full = np.empty(_grid_shape(group), dtype=half.dtype)
    full[..., :half.shape[-1]] = half
    _mirror(full)
    return full.ravel()


def _mirror(grid: np.ndarray) -> None:
    """Fill grid[..., m] for m > n / 2 (n = grid.shape[-1]) with the conjugate
    of the point at minus its coordinates (for a real grid, such as moduli,
    the point itself).

    On the last axis, -m = n - m runs from n - kept down to 1: a reversed
    slice. On the other axes the slice is gathered through each cycle's
    negation permutation (there are none on one cycle). The columns m = 0
    and m = n / 2 are their own negations, so each is mirrored in turn on
    the axes before it. Every pair {gamma, -gamma} then holds a value and
    its exact conjugate, so |f^(gamma)| = |f^(-gamma)| bit for bit.
    """
    n = grid.shape[-1]
    kept = n // 2 + 1
    source = grid[..., n - kept:0:-1]
    for axis, length in enumerate(grid.shape[:-1]):
        source = source.take(_negation(length), axis=axis)
    np.conjugate(source, out=grid[..., kept:])
    if grid.ndim > 1:
        for m in ((0, n // 2) if n % 2 == 0 else (0,)):
            _mirror(grid[..., m])


@functools.lru_cache(maxsize=64)
def _negation(n: int) -> np.ndarray:
    """The negation permutation of Z_n, for _mirror's gathers."""
    return FinAbGroup([n]).negation_permutation()


def convolve(f, g, group: FinAbGroup | None = None,
             snap_integers: bool | None = None, *,
             cache: OperandCache | None = None) -> np.ndarray:
    """(f * g)(x) = sum_{x'} f(x') g(x - x'), exact circular convolution.

    Both inputs are real, so the product runs through the real FFT (half
    the spectrum). An input passed as both f and g is transformed once, and
    a set registered with cache (a sets.OperandCache) is transformed once
    per cache. For indicator inputs (GroupSets) values are integers; they
    are snapped back to exact integers unless snap_integers=False.

    The spectral sumset calls this with the operands' cropped indicators as
    arrays over their bounding box, a group of 5-smooth cycles where the
    convolution is linear, and wraps the result back to G itself; with a
    registered operand, or with no cycle cropped, it passes the sets over G.
    """
    both_sets = isinstance(f, GroupSet) and isinstance(g, GroupSet)
    grp = f.group if isinstance(f, GroupSet) else (
        group if group is not None else getattr(g, "group", None))
    if grp is None:
        raise ValueError("array input needs an explicit group")
    fg = _spectrum(f, grp, cache)
    gg = fg if g is f else _spectrum(g, grp, cache)
    if cache is None:
        fg *= gg  # fg is this call's own array
    else:
        fg = fg * gg  # either spectrum may be the cache's
    shape = _grid_shape(grp)
    out = np.fft.irfftn(fg, s=shape, axes=tuple(range(len(shape)))).ravel()
    if snap_integers or (snap_integers is None and both_sets):
        rounded = np.rint(out)
        near = np.abs(out - rounded) < INT_SNAP_TOL
        out = np.where(near, rounded, out)
    return out


def _grid_shape(group: FinAbGroup) -> tuple[int, ...]:
    """The reversed factor grid: C-order views of the little-endian layout on
    it make the halved real-FFT axis the contiguous first coordinate."""
    return group.invariants[::-1]


def _half_spectrum(values: np.ndarray, group: FinAbGroup) -> np.ndarray:
    """The real FFT (half spectrum) of a real function on group."""
    # all axes by default: naming them costs numpy several microseconds a call
    return np.fft.rfftn(values.reshape(_grid_shape(group)))


def _spectrum(f, group: FinAbGroup, cache: OperandCache | None) -> np.ndarray:
    """f's half spectrum over group; a set is looked up in cache when one is given."""
    if isinstance(f, GroupSet):
        if f.group != group:
            raise GroupMismatchError("convolve needs functions over one group")
        if cache is not None:
            return cache.get(f, "half_spectrum",
                             lambda S: _half_spectrum(S.mask.astype(np.float64), S.group))
    return _half_spectrum(_as_values(f, group)[1], group)


class ParsevalAudit(NamedTuple):
    lhs: float  # (1/|G|) sum_gamma |f^(gamma)|^2
    rhs: float  # sum_x |f(x)|^2
    gap: float


def parseval_audit(f, group: FinAbGroup | None = None) -> ParsevalAudit:
    """Both sides of Parseval's identity and their absolute gap."""
    group, values = _as_values(f, group)
    fhat = transform(values, group)
    lhs = float(np.sum(np.abs(fhat.values) ** 2)) / group.order
    rhs = float(np.sum(values ** 2))
    return ParsevalAudit(lhs, rhs, abs(lhs - rhs))


# -- spectral moments -------------------------------------------------------------


@dataclass(frozen=True)
class MomentValue:
    """int_{dual} |1_A^|^{2k} d(nu), with a log-space fallback for large k."""

    value: float      # +inf when not representable in a double
    log_value: float  # natural log, always finite for nonempty A
    log_space: bool   # True when value overflowed and log_value is authoritative


def capped_exp(log_value: float) -> float:
    """exp(log_value), or +inf above LOG_FLOAT_CAP."""
    return math.exp(log_value) if log_value <= LOG_FLOAT_CAP else math.inf


def normalized_powers(magnitudes: np.ndarray, mu: float, k: int) -> np.ndarray:
    """(|1_A^|/mu(A))^{2k} per character, the ratio clamped at 1 (fp noise at gamma_0)."""
    return np.minimum(magnitudes / mu, 1.0) ** (2 * k)


def moment_detail(A: GroupSet, k: int) -> MomentValue:
    """(1/|G|) sum_gamma |1_A^(gamma)|^{2k}, with its log for k past float range."""
    if k < 1:
        raise ValueError(f"moment needs k >= 1, got {k}")
    if A.cardinality == 0:
        raise ValueError("moment needs a nonempty set")
    mu = float(A.measure)
    # S = (1/|G|) sum_gamma (|1_A^|/mu)^{2k} lies in [1/|G|, 1]
    S = float(np.sum(normalized_powers(transform(A).magnitudes(), mu, k))) / A.group.order
    log_value = 2 * k * math.log(mu) + math.log(S)
    return MomentValue(capped_exp(log_value), log_value, log_value > LOG_FLOAT_CAP)


@dataclass(frozen=True)
class MomentBoundAudit:
    """moment(A,k) against the Cauchy-Schwarz floor mu(A)^{2k} / mu(kA)."""

    moment: float
    bound: float
    holds: bool
    log_moment: float
    log_bound: float


def moment_lower_bound_audit(A: GroupSet, k: int) -> MomentBoundAudit:
    """The unconditional lower bound; the holds flag is compared in log space."""
    from .sets import iterate

    detail = moment_detail(A, k)
    mu_kA = iterate(k, A).measure
    log_bound = 2 * k * math.log(A.measure) - math.log(mu_kA)
    bound = capped_exp(log_bound)
    holds = detail.log_value >= log_bound - 1e-9
    return MomentBoundAudit(detail.value, bound, holds, detail.log_value, log_bound)
