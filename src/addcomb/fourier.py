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
transform_error_bound states how far a computed modulus |f^(gamma)| can
lie from the true one; the spectrum index charges it when it drops the
cells of a coarse transform (spectrum.spectrum_index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .groups import FinAbGroup, GroupMismatchError, mirrored
from .sets import GroupSet

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
            self._values = mirrored(self._half, self.group)
            self._values.setflags(write=False)
            self._half = None
        return self._values

    def magnitudes(self) -> np.ndarray:
        if self._values is None:
            return mirrored(np.abs(self._half), self.group)
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
    characters with m_0 <= n_0 / 2; groups.mirrored fills the others by the
    conjugate mirror f^(-gamma) = conj f^(gamma) when the values are read.
    """
    group, values = _as_values(f, group)
    return DualFunction(group, half=_half_spectrum(values, group))


def convolve(f, g, group: FinAbGroup | None = None,
             snap_integers: bool | None = None) -> np.ndarray:
    """(f * g)(x) = sum_{x'} f(x') g(x - x'), exact circular convolution.

    Both inputs are real, so the product runs through the real FFT (half
    the spectrum), and an input passed as both f and g is transformed once.
    For indicator inputs (GroupSets) values are integers; they are snapped
    back to exact integers unless snap_integers=False.

    The spectral sumset calls this with the operands' cropped indicators as
    arrays over their bounding box, a group of 5-smooth cycles where the
    convolution is linear, and wraps the result back to G itself. A box of
    whole cycles is G: the arrays are the indicators over G and the result
    is the sum's mask, with no wrap-back.
    """
    both_sets = isinstance(f, GroupSet) and isinstance(g, GroupSet)
    grp = f.group if isinstance(f, GroupSet) else (
        group if group is not None else getattr(g, "group", None))
    if grp is None:
        raise ValueError("array input needs an explicit group")
    fg = _spectrum(f, grp)
    fg *= fg if g is f else _spectrum(g, grp)
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


def transform_error_bound(shape: tuple[int, ...], norm2: float) -> float:
    """A bound on | |computed f^(gamma)| - |f^(gamma)| | at every character,
    for the transform on the grid of the given cycle lengths of an input of
    2-norm norm2 (sqrt |S| for the indicator of S).

    Higham's bound for a radix-2 FFT of t stages with weights accurate to u
    (Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 24.2) is
    ||computed - exact||_2 <= t eta / (1 - t eta) ||f^||_2, with eta =
    u + gamma_4 (sqrt 2 + u), gamma_4 = 4u / (1 - 4u), and ||f^||_2 =
    sqrt(P) norm2 on P points (Parseval), which bounds the error at every
    point. The grid is charged the stages of radix 2 on each cycle,
    ceil(log2 n_j), as pocketfft's mixed radix has no published constant of
    its own, plus one stage for the modulus.
    """
    u = 2.0 ** -53
    eta = u + 4 * u / (1 - 4 * u) * (math.sqrt(2) + u)
    t_eta = (sum(math.ceil(math.log2(n)) for n in shape) + 1) * eta
    return t_eta / (1 - t_eta) * math.sqrt(math.prod(shape)) * norm2


def _spectrum(f, group: FinAbGroup) -> np.ndarray:
    """f's half spectrum over group."""
    if isinstance(f, GroupSet) and f.group != group:
        raise GroupMismatchError("convolve needs functions over one group")
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


def moment_detail(A: GroupSet, k: int) -> MomentValue:
    """(1/|G|) sum_gamma |1_A^(gamma)|^{2k}, with its log for k past float range."""
    if k < 1:
        raise ValueError(f"moment needs k >= 1, got {k}")
    if A.cardinality == 0:
        raise ValueError("moment needs a nonempty set")
    mu = float(A.measure)
    # S = (1/|G|) sum_gamma (|1_A^|/mu)^{2k} lies in [1/|G|, 1]; the ratio is
    # clamped at 1 (fp noise at gamma_0)
    powers = np.minimum(transform(A).magnitudes() / mu, 1.0) ** (2 * k)
    S = float(np.sum(powers)) / A.group.order
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
