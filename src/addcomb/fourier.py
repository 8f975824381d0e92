"""Exact discrete Fourier analysis on a finite abelian group.

Transforms are taken against the counting measure: f^(gamma_m) =
sum_x f(x) * conj(gamma_m(x)). On the product-of-cycles encoding this is a
multidimensional DFT along each cyclic factor, so the fast path reshapes to
the factor grid and calls numpy's FFT. A quadratic naive evaluation is kept
as an always-available oracle route.

All quantities handled here are integers or short cosine sums, so indicator
convolutions are snapped back to exact integers after the FFT round trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .groups import FinAbGroup, GroupMismatchError
from .sets import GroupSet

#: |value - nearest integer| below this snaps indicator convolutions to ints.
INT_SNAP_TOL = 1e-6

#: values above this overflow threshold are reported in log space.
FLOAT_OVERFLOW = 1e300


@dataclass(frozen=True)
class DualFunction:
    """A complex-valued function on the dual group, one value per character."""

    group: FinAbGroup
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.group.order,):
            raise ValueError("value vector length must equal the group order")
        self.values.setflags(write=False)

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.values)

    def __getitem__(self, m: int) -> complex:
        return complex(self.values[m])


def _as_values(f, group: FinAbGroup | None) -> tuple[FinAbGroup, np.ndarray]:
    if isinstance(f, GroupSet):
        return f.group, f.mask.astype(np.float64)
    if group is None:
        raise ValueError("array input needs an explicit group")
    arr = np.asarray(f, dtype=np.float64)
    if arr.shape != (group.order,):
        raise ValueError(f"function length {arr.shape} != group order {group.order}")
    return group, arr


def transform(f, group: FinAbGroup | None = None, method: str = "fast") -> DualFunction:
    """Fourier transform of a real function (or set indicator) on G.

    method "fast" runs the factor-wise FFT; "naive" evaluates the defining
    double sum in O(|G|^2) and exists as the oracle route.
    """
    group, values = _as_values(f, group)
    if method == "fast":
        grid = values.reshape(group.invariants, order="F")
        out = np.fft.fftn(grid).ravel(order="F")
        return DualFunction(group, out)
    if method == "naive":
        return DualFunction(group, _naive_transform(group, values))
    raise ValueError(f"unknown transform method {method!r}")


def _naive_transform(group: FinAbGroup, values: np.ndarray) -> np.ndarray:
    # chi_m(x) phases from the exact integer numerators, one character at a time
    M = group.phase_denominator
    out = np.empty(group.order, dtype=np.complex128)
    for m in range(group.order):
        num = group.phase_numerators(m)
        out[m] = np.sum(values * np.exp(-2j * np.pi * num / M))
    return out


def inverse_transform(fhat: DualFunction) -> np.ndarray:
    """Inverse against the dual measure nu: f(x) = (1/|G|) sum_m fhat(m) chi_m(x)."""
    grid = fhat.values.reshape(fhat.group.invariants, order="F")
    return np.fft.ifftn(grid).ravel(order="F")


def convolve(f, g, group: FinAbGroup | None = None,
             snap_integers: bool | None = None) -> np.ndarray:
    """(f * g)(x) = sum_{x'} f(x') g(x - x'), exact circular convolution.

    Both inputs are real, so the product runs through the real FFT (half
    the spectrum, multiplied in place). For indicator inputs (GroupSets)
    values are integers; they are snapped back to exact integers unless
    snap_integers=False.
    """
    both_sets = isinstance(f, GroupSet) and isinstance(g, GroupSet)
    if both_sets and f.group != g.group:
        raise GroupMismatchError("convolve needs functions over one group")
    grp, fv = _as_values(f, group if group is not None else getattr(g, "group", None))
    grp2, gv = _as_values(g, grp)
    if grp != grp2:
        raise GroupMismatchError("convolve needs functions over one group")
    # C-order views on the reversed factor grid (the little-endian layout), so
    # the halved real-FFT axis is the contiguous first coordinate
    shape = grp.invariants[::-1]
    axes = tuple(range(len(shape)))
    fg = np.fft.rfftn(fv.reshape(shape), axes=axes)
    fg *= np.fft.rfftn(gv.reshape(shape), axes=axes)
    out = np.fft.irfftn(fg, s=shape, axes=axes).ravel()
    if snap_integers or (snap_integers is None and both_sets):
        rounded = np.rint(out)
        near = np.abs(out - rounded) < INT_SNAP_TOL
        out = np.where(near, rounded, out)
    return out


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


def _normalized_power_sum(A: GroupSet, k: int) -> tuple[float, float]:
    """(S, log mu) with S = (1/|G|) sum_gamma (|1_A^|/mu)^{2k}; S is in [1/|G|, 1]ish."""
    mags = transform(A).magnitudes()
    mu = float(A.measure)
    t = np.minimum(mags / mu, 1.0)  # clamp fp noise at gamma_0
    return float(np.sum(t ** (2 * k))) / A.group.order, math.log(mu)


def moment_detail(A: GroupSet, k: int) -> MomentValue:
    if k < 1:
        raise ValueError(f"moment needs k >= 1, got {k}")
    if A.cardinality == 0:
        raise ValueError("moment needs a nonempty set")
    S, log_mu = _normalized_power_sum(A, k)
    log_value = 2 * k * log_mu + math.log(S)
    if log_value <= math.log(FLOAT_OVERFLOW):
        return MomentValue(math.exp(log_value), log_value, False)
    return MomentValue(math.inf, log_value, True)


def moment(A: GroupSet, k: int) -> float:
    """(1/|G|) sum_gamma |1_A^(gamma)|^{2k}; +inf when beyond float range."""
    return moment_detail(A, k).value


@dataclass(frozen=True)
class MomentBoundAudit:
    """moment(A,k) against the Cauchy-Schwarz floor mu(A)^{2k} / mu(kA)."""

    moment: float
    bound: float
    holds: bool
    log_moment: float
    log_bound: float

    def to_jsonable(self) -> dict:
        return {
            "moment": None if math.isinf(self.moment) else self.moment,
            "bound": None if math.isinf(self.bound) else self.bound,
            "holds": self.holds,
            "log_moment": self.log_moment,
            "log_bound": self.log_bound,
        }


def moment_lower_bound_audit(A: GroupSet, k: int) -> MomentBoundAudit:
    """The unconditional lower bound; the holds flag is compared in log space."""
    from .sets import iterate

    detail = moment_detail(A, k)
    mu_kA = iterate(k, A).measure
    log_bound = 2 * k * math.log(A.measure) - math.log(mu_kA)
    bound = math.exp(log_bound) if log_bound <= math.log(FLOAT_OVERFLOW) else math.inf
    holds = detail.log_value >= log_bound - 1e-9
    return MomentBoundAudit(detail.value, bound, holds, detail.log_value, log_bound)
