"""Large spectra and the L^2 spectral pseudo-metric on the dual group.

LSpec(A, delta) collects the characters gamma with |1_A^(gamma)| >=
sqrt(1 - delta^2/2) * mu(A); equivalently, the delta-ball around the trivial
character of the pseudo-metric rho(gamma, gamma') = ||1 - gamma conj(gamma')||
in L^2 of the normalized autocorrelation measure of A. The identity

    rho(gamma, gamma_0)^2 = 2 (1 - |1_A^(gamma)|^2 / mu(A)^2)

links the two views; spectral_distance evaluates the closed form, and the
literal double sum over A x A is the cross-check `oracles.spectral_distance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import LOG_FLOAT_CAP, capped_exp, normalized_powers, transform
from .groups import Character, GroupMismatchError
from .serialize import set_to_json
from .sets import GroupSet, growth_window_start

#: inclusion-favoring slack: borderline characters land inside the spectrum.
THRESHOLD_SLACK = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """A large spectrum: cut threshold, members, and the magnitudes it was cut from."""

    source: GroupSet
    delta: float
    members: GroupSet          # over the dual group
    magnitudes: np.ndarray     # |1_A^| per character index
    threshold: float           # sqrt(1 - delta^2/2) * mu(A)

    @property
    def count(self) -> int:
        return self.members.cardinality

    def to_jsonable(self) -> dict:
        return {**set_to_json(self.members), "delta": self.delta,
                "threshold": self.threshold}


def lspec(A: GroupSet, delta: float, slack: float = THRESHOLD_SLACK) -> Spectrum:
    """LSpec(A, delta); delta >= sqrt(2) yields the full dual group."""
    _check_cut(A, delta)
    return cut_spectrum(A, transform(A).magnitudes(), delta, slack)


def _check_cut(A: GroupSet, delta: float) -> None:
    if A.cardinality == 0:
        raise ValueError("lspec needs a nonempty set")
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"lspec needs a finite delta >= 0, got {delta}")


def cut_spectrum(A: GroupSet, magnitudes: np.ndarray, delta: float,
                 slack: float = THRESHOLD_SLACK) -> Spectrum:
    """LSpec(A, delta) cut from precomputed magnitudes |1_A^|.

    Spectra of one set at several deltas are thresholds of one magnitude
    array, so a caller holding it needs no further transform.
    """
    _check_cut(A, delta)
    mu = float(A.measure)
    threshold = math.sqrt(max(0.0, 1.0 - delta * delta / 2.0)) * mu
    members = GroupSet(A.group.dual(), magnitudes >= threshold - slack * mu)
    return Spectrum(A, float(delta), members, magnitudes, threshold)


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


# -- the moment-splitting machinery ------------------------------------------------


@dataclass(frozen=True)
class MomentSplit:
    """Spectral mass of |1_A^|^{2k} inside LSpec(A, eta) against the total.

    tail_bound is (1 - eta^2/2)^{k-1} * mu(A)^{2k-1}, the Parseval bound on
    the mass outside the spectrum; inside + tail_bound >= total always.
    Values beyond float range are +inf, with the log fields authoritative.
    """

    A: GroupSet
    eta: float
    k: int
    inside: float
    total: float
    tail_bound: float
    log_inside: float
    log_total: float
    log_tail_bound: float
    meets_half: bool   # inside >= total / 2
    tail_ok: bool      # inside >= total - tail_bound
    log_space: bool

    def to_jsonable(self) -> dict:
        def fin(x):
            return None if math.isinf(x) else x

        return {
            "eta": self.eta, "k": self.k,
            "inside": fin(self.inside), "total": fin(self.total),
            "tail_bound": fin(self.tail_bound),
            "log_inside": self.log_inside, "log_total": self.log_total,
            "log_tail_bound": self.log_tail_bound,
            "meets_half": self.meets_half, "tail_ok": self.tail_ok,
            "log_space": self.log_space,
        }


def moment_split(A: GroupSet, eta: float, k: int) -> MomentSplit:
    """Split the 2k-th spectral moment across LSpec(A, eta) and its complement."""
    if not 0 < eta <= 0.5:
        raise ValueError(f"moment_split needs eta in (0, 1/2], got {eta}")
    if k < 1:
        raise ValueError(f"moment_split needs k >= 1, got {k}")
    if A.cardinality == 0:
        raise ValueError("moment_split needs a nonempty set")
    spec = lspec(A, eta)
    mu = float(A.measure)
    powers = normalized_powers(spec.magnitudes, mu, k)
    order = A.group.order
    S_total = float(np.sum(powers)) / order
    S_inside = float(np.sum(powers[spec.members.mask])) / order
    log_mu = math.log(mu)
    log_total = 2 * k * log_mu + math.log(S_total)
    log_inside = 2 * k * log_mu + math.log(S_inside) if S_inside > 0 else -math.inf
    log_tail = (k - 1) * math.log(1.0 - eta * eta / 2.0) + (2 * k - 1) * log_mu

    S_out = S_total - S_inside
    if S_out <= 0:
        tail_ok = True
    else:
        log_out = 2 * k * log_mu + math.log(S_out)
        tail_ok = log_out <= log_tail + 1e-9
    return MomentSplit(
        A=A, eta=float(eta), k=int(k),
        inside=capped_exp(log_inside), total=capped_exp(log_total),
        tail_bound=capped_exp(log_tail),
        log_inside=log_inside, log_total=log_total, log_tail_bound=log_tail,
        meets_half=S_inside >= S_total / 2.0,
        tail_ok=tail_ok,
        log_space=log_total > LOG_FLOAT_CAP,
    )


# -- minimal moment exponent ---------------------------------------------------------


@dataclass(frozen=True)
class FindKResult:
    """Minimal k >= max(2, ceil(d ln d)) with (1-eta^2/2)^{k-1} <= 1/(2 k^d)."""

    k: int | None
    eta: float
    d: float
    window_start: int
    cap: int
    calibration_ratio: float | None  # k * eta^2 / (d * ln(d/eta)), None when d <= eta

    @property
    def found(self) -> bool:
        return self.k is not None

    def to_jsonable(self) -> dict:
        return {
            "k": self.k, "eta": self.eta, "d": self.d,
            "window_start": self.window_start, "cap": self.cap,
            "calibration_ratio": self.calibration_ratio,
        }


def find_k(eta: float, d: float, cap: int = 10**6) -> FindKResult:
    """Scan for the smallest admissible moment exponent; None past the cap.

    The scan realizes the sufficient condition (1-eta^2/2)^{k-1} <= 1/(2 k^d)
    used to split spectral mass, starting at the growth-window floor.
    """
    if not 0 < eta <= 0.5:
        raise ValueError(f"find_k needs eta in (0, 1/2], got {eta}")
    if d <= 0:
        raise ValueError(f"find_k needs d > 0, got {d}")
    start = growth_window_start(d, floor=2)
    log_base = math.log(1.0 - eta * eta / 2.0)
    k_found = None
    for k in range(start, cap + 1):
        if (k - 1) * log_base <= -math.log(2.0) - d * math.log(k):
            k_found = k
            break
    ratio = None
    if k_found is not None and d > eta:
        ratio = k_found * eta * eta / (d * math.log(d / eta))
    return FindKResult(k_found, float(eta), float(d), start, cap, ratio)


def claim_audit(A: GroupSet, eta: float, d: float, cap: int = 10**6
                ) -> tuple[FindKResult, MomentSplit | None]:
    """find_k followed by the moment split at the witness exponent."""
    res = find_k(eta, d, cap)
    split = moment_split(A, eta, res.k) if res.k is not None else None
    return res, split
