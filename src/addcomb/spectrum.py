"""Large spectra and the L^2 spectral pseudo-metric on the dual group.

LSpec(A, delta) collects the characters gamma with |1_A^(gamma)| >=
sqrt(1 - delta^2/2) * mu(A); equivalently, the delta-ball around the trivial
character of the pseudo-metric rho(gamma, gamma') = ||1 - gamma conj(gamma')||
in L^2 of the normalized autocorrelation measure of A. The identity

    rho(gamma, gamma_0)^2 = 2 (1 - |1_A^(gamma)|^2 / mu(A)^2)

links the two views; spectral_distance evaluates the closed form, and the
literal double sum over A x A is the cross-check `oracles.spectral_distance`.
The spectral moments int |1_A^|^{2k} d(nu) are `fourier.moment_detail`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import transform
from .groups import Character, GroupMismatchError, _check_number
from .serialize import set_to_json
from .sets import GroupSet

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


def lspec(A: GroupSet, delta: float) -> Spectrum:
    """LSpec(A, delta); delta >= sqrt(2) yields the full dual group."""
    _check_cut(A, delta)
    return cut_spectrum(A, transform(A).magnitudes(), delta)


def _check_cut(A: GroupSet, delta: float) -> None:
    if A.cardinality == 0:
        raise ValueError("lspec needs a nonempty set")
    _check_number(delta, "lspec", "delta", 0)


def cut_spectrum(A: GroupSet, magnitudes: np.ndarray, delta: float) -> Spectrum:
    """LSpec(A, delta) cut from precomputed magnitudes |1_A^|.

    Spectra of one set at several deltas are thresholds of one magnitude
    array, so a caller holding it needs no further transform.
    """
    _check_cut(A, delta)
    mu = float(A.measure)
    threshold = math.sqrt(max(0.0, 1.0 - delta * delta / 2.0)) * mu
    members = GroupSet(A.group.dual(), magnitudes >= threshold - THRESHOLD_SLACK * mu)
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
