"""Ruzsa and Chang covering lemmas as deterministic greedy algorithms.

Both greedies scan candidates in canonical index order, so identical inputs
give identical covers. Dissociativity is decided set-wise: the set
(B'-B') + reach(T) of B'-B' shifted by every {-1,0,1}-coefficient
combination grows one generator at a time, and each new generator must
avoid it, which is the signed-sum test without the 3^|T| enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .groups import GroupElement, GroupMismatchError
from .sets import GroupSet, GuardExceededError, difference, iterate, prog, sumset

#: dissociated-set growth guard; greedy stops and flags past this size.
DISSOCIATION_GUARD = 20


@dataclass(frozen=True)
class CoverCertificate:
    """A covering set T with its exhaustively checked guarantees.

    size_bound_verified reflects the lemma-specific bound (|T| <= k for the
    Chang cover; vacuous for Ruzsa, whose size bound has no explicit
    constant and is only reported). parameters carries the measured inputs,
    precondition verdicts, and empirical constants.
    """

    kind: str  # "ruzsa" | "chang"
    T: tuple[GroupElement, ...]
    containment_verified: bool
    size_bound_verified: bool
    parameters: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "T": [list(t.coords) for t in self.T],
            "containment_verified": self.containment_verified,
            "size_bound_verified": self.size_bound_verified,
            "parameters": dict(sorted(self.parameters.items())),
        }


def ruzsa_cover(B: GroupSet) -> CoverCertificate:
    """Greedy maximal B-separated subset T of 2B-2B, with 2B-2B inside T+B-B.

    x joins T when x+B is disjoint from every chosen t+B, i.e. when x avoids
    T + (B-B). The final forbidden region is exactly T+B-B, which makes the
    containment check immediate and exhaustive.
    """
    if B.cardinality == 0:
        raise ValueError("ruzsa_cover needs a nonempty set")
    g = B.group
    BmB = difference(B, B)
    S = sumset(BmB, BmB)  # 2B - 2B
    forbidden = np.zeros(g.order, dtype=bool)
    T: list[int] = []
    for x in S.indices():
        if not forbidden[x]:
            T.append(int(x))
            forbidden |= BmB.translate(int(x)).mask
    containment = not np.any(S.mask & ~forbidden)
    doubling = math.log2(sumset(B, B).measure / B.measure)
    params = {
        "mu_B": B.measure,
        "mu_2B_minus_2B": S.measure,
        "doubling_k": doubling,
        "size_T": len(T),
        # the 2^{O(k)} size bound has an implicit constant; report the exponent
        "empirical_exponent": (math.log2(len(T)) / doubling) if doubling > 0 else None,
    }
    return CoverCertificate(
        kind="ruzsa",
        T=tuple(GroupElement(g, i) for i in T),
        containment_verified=containment,
        size_bound_verified=True,
        parameters=params,
    )


def _signed_step(forbidden: GroupSet, x: GroupElement) -> GroupSet:
    """forbidden | (forbidden + x) | (forbidden - x): one generator joins reach."""
    return forbidden | forbidden.translate(x) | forbidden.translate(-x)


def is_dissociated(T: Sequence[GroupElement], Bp: GroupSet,
                   guard: int = DISSOCIATION_GUARD) -> bool:
    """True when the 0/1-combination translates of T by B' are pairwise disjoint.

    Equivalent difference form: no nonzero {-1,0,1} combination of T lies in
    B'-B'. Empty T is vacuously dissociated. The test is the Chang greedy's
    own: t_i must avoid (B'-B') + reach({t_j : j < i}). A combination whose
    last nonzero coefficient sits at i lies in B'-B' exactly when +-t_i does
    lie in that set, since B'-B' and every reach set are symmetric.
    """
    if len(T) > guard:
        raise GuardExceededError(f"|T| = {len(T)} exceeds dissociation guard {guard}")
    g = Bp.group
    for t in T:
        if t.group != g:
            raise GroupMismatchError("generators must live over the group of B'")
    forbidden = difference(Bp, Bp)  # (B'-B') + reach({}), reach({}) = {0}
    for t in T:
        if t in forbidden:
            return False
        forbidden = _signed_step(forbidden, t)
    return True


def chang_cover(B: GroupSet, Bp: GroupSet, k: int, guard: int = DISSOCIATION_GUARD
                ) -> tuple[CoverCertificate, GroupSet, GroupSet]:
    """Greedy maximal B'-dissociated subset T of B, with B inside Prog(T,1)+B'-B'.

    Returns (certificate, Prog(T,1), the target Prog(T,1)+B'-B').
    The lemma's precondition mu(kB + B') < 2^k mu(B') is measured first; when
    it holds, |T| <= k is guaranteed and verified. When it fails, T and the
    containment are still returned with the size bound flagged non-applicable.
    The greedy keeps forbidden = (B'-B') + reach(T) up to date, so membership
    tests are O(1) per candidate.
    """
    if k < 1:
        raise ValueError(f"chang_cover needs k >= 1, got {k}")
    if B.cardinality == 0 or Bp.cardinality == 0:
        raise ValueError("chang_cover needs nonempty B and B'")
    if B.group != Bp.group:
        raise GroupMismatchError("B and B' must live over one group")
    g = B.group
    kB_plus_Bp = sumset(iterate(k, B), Bp)
    precondition_held = kB_plus_Bp.measure < (2 ** k) * Bp.measure

    Dp = difference(Bp, Bp)
    forbidden = Dp  # (B'-B') + reach(T), reach({}) = {0}
    T: list[int] = []
    guard_exceeded = False
    for x in B.indices():
        if forbidden.mask[x]:
            continue
        if len(T) >= guard:
            guard_exceeded = True
            break
        T.append(int(x))
        forbidden = _signed_step(forbidden, GroupElement(g, int(x)))

    elems = tuple(GroupElement(g, i) for i in T)
    P = prog(list(elems), 1, group=g)
    target = sumset(P, Dp)
    containment = B.is_subset_of(target)
    params = {
        "k": k,
        "mu_B": B.measure,
        "mu_Bp": Bp.measure,
        "mu_kB_plus_Bp": kB_plus_Bp.measure,
        "precondition_held": precondition_held,
        "size_T": len(T),
        "size_bound_applicable": precondition_held,
        "guard_exceeded": guard_exceeded,
    }
    cert = CoverCertificate(
        kind="chang",
        T=elems,
        containment_verified=containment and not guard_exceeded,
        size_bound_verified=len(T) <= k,
        parameters=params,
    )
    return cert, P, target
