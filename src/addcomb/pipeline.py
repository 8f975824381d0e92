"""The Freiman-type containment pipeline over an explicit group.

Given a set A with polynomial sumset growth, the run picks a pigeonhole
index l with mu(lA) <= ratio_bound * mu((l-1)A), cuts the large spectrum of
lA at a threshold epsilon, covers the spectrum through the Chang greedy in
the dual, and builds the Bohr ball B over the covered spectrum. The report
carries every intermediate verdict: direct containment A-A in B, the
three-link radius chain, the spectral lower-bound audit, a dimension
estimate of the Bohr family, and the measure ratio mu(B)/mu(A).

Each stage has one entry point, which run_freiman calls: growth_profile,
find_l and measured_growth_exponent take the run's Multiples, and
spectrum_cover and lowerbound_audit the FreimanRun itself.

The Bohr distance tables are sieved (bohr.bohr_distance_table): a run
fixes its radius cap read_cap, the largest radius below 1/2 that any stage
reads, before its first table, and every table keeps A - A exact. So the
distances are exact wherever a stage reads them, a ball of radius >= 1/2
is all of G, and a read between the cap and 1/2 would raise.

Two modes. "paper" uses the literal constants (pigeonhole bound 2^15, ball
radius 2^-4, the 2^13 (1+C) d' ln^2 d' threshold formula), which degenerate
at desk scale and are reported as such. "empirical" takes an explicit
epsilon and widens the default ball radius to max(2^-4, 4 eps sqrt(2 K_l)),
the radius the spectral lower bound actually guarantees for A - A.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import bohr
from .bohr import (DIM_GRID_CAP, INCLUSION_SLACK, BohrSet, DistanceTable,
                   dimension_estimate, dyadic_dimension_grid, table_family,
                   DimensionEstimate)
from .covering import CoverCertificate, chang_cover
from .fourier import transform
from .groups import GroupElement
from .sets import (GroupSet, Multiples, growth_profile, growth_window_end,
                   growth_window_start, negate, sumset, GrowthProfile)
from .spectrum import Spectrum, cut_spectrum

DEFAULT_RATIO_BOUND = float(2 ** 15)
DEFAULT_RADIUS = 2.0 ** -4


@dataclass(frozen=True)
class FreimanConfig:
    """Run parameters; paper mode forbids overrides, empirical mode needs epsilon."""

    d: float
    mode: str = "empirical"
    epsilon: float | None = None
    l: int | None = None
    radius: float | None = None
    ratio_bound: float = DEFAULT_RATIO_BOUND
    C: float = 1.0
    max_retries: int = 4
    n_max: int | None = None       # growth scan window end
    dim_grid_cap: int = DIM_GRID_CAP

    def __post_init__(self):
        if self.mode not in ("paper", "empirical"):
            raise ValueError(f"mode must be 'paper' or 'empirical', got {self.mode!r}")
        if self.mode == "paper":
            if self.epsilon is not None or self.l is not None or self.radius is not None:
                raise ValueError("paper mode forbids epsilon/l/radius overrides")
        elif self.epsilon is None:
            raise ValueError("empirical mode requires an explicit epsilon")
        # (field, integer-valued, least value, whether the least value is
        # excluded); None skips the optional epsilon, radius, l and n_max
        for name, integral, low, strict in (
                ("d", False, 0, True), ("epsilon", False, 0, True),
                ("radius", False, 0, True), ("ratio_bound", False, 1, False),
                ("C", False, 0, False), ("l", True, 2, False),
                ("max_retries", True, 0, False), ("n_max", True, 2, False),
                ("dim_grid_cap", True, 0, False)):
            value = getattr(self, name)
            if value is None and name in ("epsilon", "radius", "l", "n_max"):
                continue
            kind = "an integer" if integral else "a finite number"
            if (not isinstance(value, numbers.Integral if integral else numbers.Real)
                    or isinstance(value, bool)
                    or not (isinstance(value, numbers.Integral) or math.isfinite(value))
                    or value < low or (strict and value == low)):
                raise ValueError(f"{name} must be {kind} {'>' if strict else '>='} {low}, "
                                 f"got {value!r}")
        # above 1/2 epsilon leaves the paper's range, where _paper_epsilon caps too
        if self.epsilon is not None and self.epsilon > 0.5:
            raise ValueError(f"epsilon must be <= 1/2, got {self.epsilon!r}")

    def scan_window_end(self) -> int:
        return self.n_max if self.n_max is not None else growth_window_end(self.d)

    def to_jsonable(self) -> dict:
        return {
            "d": self.d, "mode": self.mode, "epsilon": self.epsilon,
            "l": self.l, "radius": self.radius, "ratio_bound": self.ratio_bound,
            "C": self.C, "max_retries": self.max_retries,
            "n_max": self.n_max, "dim_grid_cap": self.dim_grid_cap,
        }


# -- the per-run context -----------------------------------------------------------


class FreimanRun:
    """What one Freiman run computes once and every stage reads.

    It holds the multiples nA, the magnitudes |1_lA^| of the one transform
    of lA (every spectrum of lA, at any delta, is a threshold of them), A - A
    and the Bohr distance tables of the nested frequency sets
    LSpec(lA, eps) <= LSpec(lA, eps) u X <= LSpec(lA, 2 eps). Each stage
    given the run reuses what the stages before it computed.

    Every table is sieved at one radius cap r_cap and keeps A - A exact
    (see bohr.bohr_distance_table). Outside run_freiman the cap stays at
    1/2, as no stage reads a ball below it; run_freiman fixes the largest
    radius below 1/2 that its stages read (read_cap) before its first table.
    """

    def __init__(self, A: GroupSet):
        if A.cardinality == 0:
            raise ValueError("a Freiman run needs a nonempty set")
        self.A = A
        self.multiples = Multiples(A)
        self._magnitudes: dict[int, np.ndarray] = {}
        self._difference: GroupSet | None = None
        self._tables: list[tuple[GroupSet, DistanceTable]] = []
        self.r_cap = 0.5

    def sieve(self, r_cap: float) -> None:
        """Cap every table of this run at r_cap; only before the first table."""
        if self._tables:
            raise RuntimeError("the radius cap is fixed once a table exists")
        self.r_cap = r_cap

    def spectrum(self, l: int, delta: float) -> Spectrum:
        """LSpec(lA, delta)."""
        lA = self.multiples[l]
        if l not in self._magnitudes:
            self._magnitudes[l] = transform(lA).magnitudes()
        return cut_spectrum(lA, self._magnitudes[l], delta)

    def difference(self) -> GroupSet:
        """A - A, which is 2A when A is symmetric."""
        if self._difference is None:
            neg = negate(self.A)
            self._difference = (self.multiples[2] if neg == self.A
                                else sumset(self.A, neg))
        return self._difference

    def bohr_table(self, freqs: GroupSet) -> DistanceTable:
        """bohr_distance_table(freqs), computing only the frequencies outside
        the largest earlier frequency set it contains, and only where that
        set's table is exact (a sup over a union is the max of the sups)."""
        known = [(f, t) for f, t in self._tables if f.is_subset_of(freqs)]
        keep = self.difference()
        if known:
            base, table = max(known, key=lambda ft: ft[0].cardinality)
            rest = GroupSet(freqs.group, freqs.mask & ~base.mask)
            table = bohr.bohr_distance_table(rest, self.r_cap, keep, base=table)
        else:
            table = bohr.bohr_distance_table(freqs, self.r_cap, keep)
        self._tables.append((freqs, table))
        return table


# -- pigeonhole index -------------------------------------------------------------


@dataclass(frozen=True)
class FindL:
    l: int
    K_l: float                 # mu(lA) / mu((l-1)A)
    window: tuple[int, int]
    measures: tuple[int, ...]  # mu(nA) for n = 1..window end


def find_l(multiples: Multiples, d: float, ratio_bound: float = DEFAULT_RATIO_BOUND
           ) -> FindL | None:
    """Smallest l in the pigeonhole window with mu(lA) <= ratio_bound * mu((l-1)A)."""
    if multiples.A.cardinality == 0:
        raise ValueError("find_l needs a nonempty set")
    if isinstance(d, bool) or not isinstance(d, numbers.Real) \
            or not math.isfinite(d) or d <= 0:
        raise ValueError(f"find_l needs a finite d > 0, got {d!r}")
    lo = growth_window_start(d, floor=2)
    hi = max(growth_window_end(d), lo)
    measures = tuple(multiples[n].measure for n in range(1, hi + 1))
    for l in range(lo, hi + 1):
        ratio = measures[l - 1] / measures[l - 2]
        if ratio <= ratio_bound:
            return FindL(l, ratio, (lo, hi), measures)
    return None


def measured_growth_exponent(multiples: Multiples, l: int, n_max: int) -> float:
    """Smallest d' with mu(n lA) <= n^{d'} mu(lA) for n = 2..n_max (0 when constant)."""
    if isinstance(n_max, bool) or not isinstance(n_max, numbers.Integral) \
            or n_max < 2:
        raise ValueError(f"measured_growth_exponent needs an integer n_max >= 2, got {n_max!r}")
    mu = multiples[l].measure
    out = 0.0
    for n in range(2, n_max + 1):
        out = max(out, math.log(multiples[n * l].measure / mu) / math.log(n))
    return out


# -- spectrum covering (the dual Chang step) ------------------------------------------


@dataclass(frozen=True)
class SpectrumCover:
    """Covering set X for the spectrum of lA, or the escape verdict.

    Both containment forms are recorded: form_sum is
    LSpec(eps)+LSpec(eps) inside Prog(X,1)+LSpec(eps); form_chang is the
    Chang conclusion LSpec(2 eps) inside Prog(X,1)+LSpec(eps/2)-LSpec(eps/2).
    """

    epsilon: float
    escape: bool
    r: int | None
    r_max: int
    X: tuple[GroupElement, ...]
    X_set: GroupSet | None
    certificate: CoverCertificate | None
    form_sum_ok: bool | None
    form_chang_ok: bool | None
    spectrum_counts: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "escape": self.escape,
            "r": self.r,
            "r_max": self.r_max,
            "X": [list(x.coords) for x in self.X],
            "certificate": self.certificate.to_jsonable() if self.certificate else None,
            "form_sum_ok": self.form_sum_ok,
            "form_chang_ok": self.form_chang_ok,
            "spectrum_counts": dict(sorted(self.spectrum_counts.items())),
        }


def spectrum_cover(run: FreimanRun, l: int, epsilon: float) -> SpectrumCover:
    """Search the dual Chang parameter r and cover the spectrum of lA.

    Candidates are integers r >= 2 with (2r + 1/2) epsilon <= 1; r qualifies
    when nu(LSpec(lA, (2r+1/2) eps)) < 2^r nu(LSpec(lA, eps/2)). When no r
    qualifies the escape branch is reported (the small-epsilon regime where
    the covering route gives nothing).
    """
    if epsilon <= 0:
        raise ValueError(f"spectrum_cover needs epsilon > 0, got {epsilon}")
    S_half = run.spectrum(l, epsilon / 2)
    S_one = run.spectrum(l, epsilon)
    S_two = run.spectrum(l, 2 * epsilon)
    counts = {
        "eps/2": S_half.count, "eps": S_one.count, "2eps": S_two.count,
    }
    r_max = math.floor((1.0 / epsilon - 0.5) / 2.0)
    chosen = None
    for r in range(2, r_max + 1):
        wide = run.spectrum(l, (2 * r + 0.5) * epsilon)
        if wide.count < (2 ** r) * S_half.count:
            chosen = r
            break
    if chosen is None:
        return SpectrumCover(epsilon, True, None, r_max, (), None, None,
                             None, None, counts)
    # the Chang target Prog(X,1) + LSpec(eps/2) - LSpec(eps/2) is form_chang's
    cert, P, target = chang_cover(S_two.members, S_half.members, chosen)
    X = cert.T
    X_set = GroupSet.from_elements(S_one.members.group, list(X))
    form_sum = sumset(S_one.members, S_one.members).is_subset_of(
        sumset(P, S_one.members))
    form_chang = S_two.members.is_subset_of(target)
    return SpectrumCover(epsilon, False, chosen, r_max, X, X_set, cert,
                         form_sum, form_chang, counts)


# -- audits ------------------------------------------------------------------------


@dataclass(frozen=True)
class LowerboundAudit:
    """A-A against Bohr(LSpec(lA, eps), 2 eps sqrt(2K)); holds unconditionally."""

    holds: bool
    l: int
    epsilon: float
    K: float
    radius: float
    spectrum_count: int
    max_distance: float  # worst Bohr distance of an element of A-A

    def to_jsonable(self) -> dict:
        return {
            "holds": self.holds, "l": self.l, "epsilon": self.epsilon,
            "K": self.K, "radius": self.radius,
            "spectrum_count": self.spectrum_count,
            "max_distance": self.max_distance,
        }


def lowerbound_audit(run: FreimanRun, l: int, epsilon: float,
                     K: float | None = None) -> LowerboundAudit:
    """Exhaustive membership check of the spectral lower-bound containment."""
    if l < 2:
        raise ValueError(f"lowerbound_audit needs l >= 2, got {l}")
    if not 0 < epsilon <= 1:
        raise ValueError(f"lowerbound_audit needs epsilon in (0, 1], got {epsilon}")
    lA, lm1A = run.multiples[l], run.multiples[l - 1]
    ratio = lA.measure / lm1A.measure
    if K is None:
        K = ratio
    elif isinstance(K, bool) or not isinstance(K, numbers.Real) or not math.isfinite(K):
        raise ValueError(f"lowerbound_audit needs a finite K, got {K!r}")
    elif ratio > K:
        raise ValueError(f"mu(lA) = {lA.measure} exceeds K * mu((l-1)A) = {K * lm1A.measure}")
    spec = run.spectrum(l, epsilon)
    radius = 2 * epsilon * math.sqrt(2 * K)
    table = run.bohr_table(spec.members)
    AmA = run.difference()
    worst = float(table.exact(AmA).max())
    return LowerboundAudit(worst <= radius + INCLUSION_SLACK, l, float(epsilon),
                           float(K), radius, spec.count, worst)


# -- the end-to-end run ----------------------------------------------------------------


@dataclass(frozen=True)
class ChainLink:
    name: str
    holds: bool
    applicable: bool

    def to_jsonable(self) -> dict:
        return {"name": self.name, "holds": self.holds, "applicable": self.applicable}


@dataclass(frozen=True)
class FreimanReport:
    """Everything a run produced, reproducible from the serialized inputs."""

    config: FreimanConfig
    group_cycles: tuple[int, ...]
    mu_A: int
    A_symmetric: bool
    A_contains_zero: bool
    profile: GrowthProfile
    hypothesis_ok: bool
    l: int
    K_l: float
    d_prime: float  # measured growth exponent of lA on the scan window
    epsilon_requested: float
    epsilon_used: float
    epsilon_retries: tuple[float, ...]
    escape_flagged: bool
    degenerate: bool
    cover: SpectrumCover
    spectrum: Spectrum
    radius: float
    guaranteed_radius: float
    ball: BohrSet
    containment: bool
    chain: tuple[ChainLink, ...]
    lowerbound: LowerboundAudit
    dimension: DimensionEstimate
    measure_ratio: float

    def to_jsonable(self) -> dict:
        return {
            "config": self.config.to_jsonable(),
            "group": {"cycles": list(self.group_cycles)},
            "mu_A": self.mu_A,
            "A_symmetric": self.A_symmetric,
            "A_contains_zero": self.A_contains_zero,
            "growth_profile": self.profile.to_jsonable(),
            "hypothesis_ok": self.hypothesis_ok,
            "l": self.l,
            "K_l": self.K_l,
            "d_prime": self.d_prime,
            "epsilon_requested": self.epsilon_requested,
            "epsilon_used": self.epsilon_used,
            "epsilon_retries": list(self.epsilon_retries),
            "escape_flagged": self.escape_flagged,
            "degenerate": self.degenerate,
            "cover": self.cover.to_jsonable(),
            "spectrum_count": self.spectrum.count,
            "spectrum_threshold": self.spectrum.threshold,
            "radius": self.radius,
            "guaranteed_radius": self.guaranteed_radius,
            "mu_B": self.ball.measure,
            "ball_frequency_count": self.ball.frequencies.cardinality,
            "containment": self.containment,
            "chain": [c.to_jsonable() for c in self.chain],
            "lowerbound_audit": self.lowerbound.to_jsonable(),
            "empirical_dim": self.dimension.empirical_dim,
            "dimension_estimate": self.dimension.to_jsonable(),
            "measure_ratio": self.measure_ratio,
        }


def _paper_epsilon(d_prime: float, C: float) -> tuple[float, bool]:
    """The 2^13 (1+C) d' ln^2 d' threshold; capped into (0, 1/2] when it degenerates."""
    if d_prime <= 0 or math.log(d_prime) == 0:
        return 0.5, True
    inv = (2 ** 13) * (1 + C) * d_prime * math.log(d_prime) ** 2
    if inv < 2:  # epsilon above 1/2: outside the admissible range
        return 0.5, True
    return 1.0 / inv, False


def _pigeonhole(run: FreimanRun, config: FreimanConfig) -> tuple[int, float]:
    """(l, K_l): the configured l, or the smallest one find_l accepts."""
    if config.l is not None:
        l = config.l
        return l, run.multiples[l].measure / run.multiples[l - 1].measure
    found = find_l(run.multiples, config.d, config.ratio_bound)
    if found is None:
        raise ValueError("no pigeonhole index l in the window; growth hypothesis fails")
    return found.l, found.K_l


def _covered(run: FreimanRun, l: int, eps: float, max_retries: int
             ) -> tuple[SpectrumCover, float, tuple[float, ...]]:
    """The cover at eps, doubling eps on escape; (cover, eps used, eps tried).

    When every attempt escapes, the first attempt and its epsilon are kept.
    """
    first = cover = spectrum_cover(run, l, eps)
    tried = [eps]
    while cover.escape and len(tried) <= max_retries:
        cover = spectrum_cover(run, l, 2 * tried[-1])
        tried.append(2 * tried[-1])
    if cover.escape:
        return first, eps, tuple(tried)
    return cover, tried[-1], tuple(tried)


def _chain(run: FreimanRun, l: int, eps: float, K_l: float, ball: BohrSet
           ) -> tuple[ChainLink, ChainLink, ChainLink]:
    """The three-link radius chain, each link exhaustive with its own applicability."""
    table2 = run.bohr_table(run.spectrum(l, 2 * eps).members)
    g = run.A.group
    link1 = ChainLink(
        "A-A in Bohr(LSpec(lA,2eps), 2^9 eps)",
        bool(table2.exact(run.difference()).max() <= 2 ** 9 * eps + INCLUSION_SLACK),
        K_l <= 2 ** 13,  # then 2^9 eps dominates the guaranteed 4 eps sqrt(2 K_l)
    )
    mid = GroupSet(g, table2.ball(2 ** 9 * eps))
    tight = GroupSet(g, table2.ball(DEFAULT_RADIUS))
    link2 = ChainLink(
        "Bohr(LSpec(lA,2eps), 2^9 eps) in Bohr(LSpec(lA,2eps), 2^-4)",
        mid.is_subset_of(tight),
        2 ** 9 * eps <= DEFAULT_RADIUS,
    )
    link3 = ChainLink(
        "Bohr(LSpec(lA,2eps), 2^-4) in B",
        tight.is_subset_of(ball.members),
        ball.radius >= DEFAULT_RADIUS,
    )
    return link1, link2, link3


def read_cap(radius: float, eps: float) -> float:
    """The largest radius below 1/2 that run_freiman reads off a Bohr table.

    The reads are the dimension grid's radius * 2^-j and their doubles (all
    of the form radius * 2^j with j <= 1), the chain's 2^9 eps and 2^-4.
    Balls of radius >= 1/2 are all of G, and the audit and chain link 1 read
    A - A, which every table keeps exact.
    """
    grid = math.ldexp(radius, min(1, -1 - math.frexp(radius)[1]))
    return max(r for r in (grid, 2 ** 9 * eps, DEFAULT_RADIUS) if r < 0.5)


def run_freiman(A: GroupSet, config: FreimanConfig) -> FreimanReport:
    """Execute the full containment pipeline and assemble the report.

    The stages (growth, pigeonhole, spectrum, cover, audit, ball, chain)
    share one FreimanRun, so each nA, the transform of lA, A - A and each
    Bohr distance row are computed once. The tables are sieved at read_cap:
    an element's exact distance is computed only while it stays within the
    largest radius below 1/2 that a stage reads, or when it lies in A - A.
    """
    run = FreimanRun(A)
    n_max = config.scan_window_end()

    profile = growth_profile(run.multiples, config.d, n_max)
    l, K_l = _pigeonhole(run, config)
    d_prime = measured_growth_exponent(run.multiples, l, n_max)

    degenerate = False
    if config.mode == "paper":
        eps_requested, degenerate = _paper_epsilon(d_prime, config.C)
    else:
        eps_requested = float(config.epsilon)
    cover, eps_used, retries = _covered(run, l, eps_requested, config.max_retries)

    spectrum = run.spectrum(l, eps_used)
    if config.mode == "paper" and spectrum.count <= 1:
        degenerate = True  # the threshold collapsed the spectrum to gamma_0

    guaranteed = 4 * eps_used * math.sqrt(2 * K_l)
    if config.radius is not None:
        radius = config.radius
    elif config.mode == "paper":
        radius = DEFAULT_RADIUS
    else:
        radius = max(DEFAULT_RADIUS, guaranteed)

    # the audit's table over LSpec(lA, eps) is the base of the ball's and the chain's
    run.sieve(read_cap(radius, eps_used))
    audit = lowerbound_audit(run, l, min(eps_used, 1.0))

    Lambda = spectrum.members
    if cover.X_set is not None:
        Lambda = Lambda | cover.X_set
    fam = table_family(A.group, run.bohr_table(Lambda))
    ball = BohrSet(Lambda, float(radius), fam(radius))
    grid = dyadic_dimension_grid(fam, radius, cap=config.dim_grid_cap)

    return FreimanReport(
        config=config,
        group_cycles=A.group.invariants,
        mu_A=A.measure,
        A_symmetric=A.is_symmetric(),
        A_contains_zero=A.contains_zero(),
        profile=profile,
        hypothesis_ok=profile.satisfied_on_window,
        l=l,
        K_l=K_l,
        d_prime=d_prime,
        epsilon_requested=eps_requested,
        epsilon_used=eps_used,
        epsilon_retries=retries,
        escape_flagged=cover.escape,
        degenerate=degenerate,
        cover=cover,
        spectrum=spectrum,
        radius=float(radius),
        guaranteed_radius=guaranteed,
        ball=ball,
        containment=run.difference().is_subset_of(ball.members),
        chain=_chain(run, l, eps_used, K_l, ball),
        lowerbound=audit,
        dimension=dimension_estimate(fam, grid),
        measure_ratio=ball.measure / A.measure,
    )
