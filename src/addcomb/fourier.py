"""Exact discrete Fourier analysis on a finite abelian group.

Transforms are taken against the counting measure: f^(gamma_m) =
sum_x f(x) * conj(gamma_m(x)). On the product-of-cycles encoding this is a
multidimensional DFT along each cyclic factor, so the transform reshapes to
the factor grid and calls numpy's FFT. The quadratic evaluation of the
defining sum is the cross-check `oracles.naive_transform`.

All quantities handled here are integers or short cosine sums, so indicator
convolutions are snapped back to exact integers after the FFT round trip.
"""

from __future__ import annotations

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


def transform(f, group: FinAbGroup | None = None) -> DualFunction:
    """Fourier transform of a real function (or set indicator) on G, by the factor-wise FFT."""
    group, values = _as_values(f, group)
    grid = values.reshape(group.invariants, order="F")
    return DualFunction(group, np.fft.fftn(grid).ravel(order="F"))


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
    arrays over their bounding box, a group of power-of-two cycles where the
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
    shape = _grid_shape(group)
    return np.fft.rfftn(values.reshape(shape), axes=tuple(range(len(shape))))


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
    if k < 1:
        raise ValueError(f"moment needs k >= 1, got {k}")
    if A.cardinality == 0:
        raise ValueError("moment needs a nonempty set")
    mu = float(A.measure)
    # S = (1/|G|) sum_gamma (|1_A^|/mu)^{2k} lies in [1/|G|, 1]
    S = float(np.sum(normalized_powers(transform(A).magnitudes(), mu, k))) / A.group.order
    log_value = 2 * k * math.log(mu) + math.log(S)
    return MomentValue(capped_exp(log_value), log_value, log_value > LOG_FLOAT_CAP)


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
    bound = capped_exp(log_bound)
    holds = detail.log_value >= log_bound - 1e-9
    return MomentBoundAudit(detail.value, bound, holds, detail.log_value, log_bound)
