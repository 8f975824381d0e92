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

run_freiman is one straight line: the pigeonhole l, the cover at eps
(doubled on escape while it stays at or below 1/2, so every cut it reads
has delta <= 1 and one index of lA serves them all), the audit, the ball,
the dimension grid and the chain. It builds three Bohr distance tables, each
handed its base and sieved for its own readers (bohr.bohr_distance_table):
the table over LSpec(lA, eps) at read_cap, the largest radius below 1/2
that the ball, the dimension grid or the chain reads; the ball's over
Lambda = LSpec(lA, eps) u X on it at read_cap; and the chain's over
LSpec(lA, 2 eps) on the ball's at chain_cap, the largest radius the chain
reads. So each row over G runs once, a ball of radius >= 1/2 is all of G,
and a read between a sieved table's cap and 1/2 would raise. The audit and
chain link 1 read only A - A, by bohr.worst_distance at its elements.

Two modes. "paper" uses the literal constants (pigeonhole bound 2^15, ball
radius 2^-4, the 2^13 (1+C) d' ln^2 d' threshold formula), which degenerate
at desk scale and are reported as such. "empirical" takes an explicit
epsilon and widens the default ball radius to max(2^-4, 4 eps sqrt(2 K_l)),
the radius the spectral lower bound actually guarantees for A - A.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

from . import bohr
from .bohr import (DIM_GRID_CAP, INCLUSION_SLACK, BohrSet, DistanceTable,
                   dimension_estimate, dyadic_dimension_grid,
                   DimensionEstimate)
from .covering import CoverCertificate, chang_cover
from .groups import GroupElement, _check_number
from .sets import (GroupSet, Multiples, growth_profile, growth_window_end,
                   growth_window_start, negate, sumset, GrowthProfile)
from .spectrum import Spectrum, SpectrumIndex, cut_spectrum, spectrum_index

DEFAULT_RATIO_BOUND = float(2 ** 15)
DEFAULT_RADIUS = 2.0 ** -4

#: The widest cut a run reads: the cover search's (2r + 1/2) eps <= 1, and
#: 2 eps <= 1. A run's index of lA serves every cut at or below it.
INDEX_DELTA = 1.0


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
            if value is not None or name not in ("epsilon", "radius", "l", "n_max"):
                # epsilon above 1/2 leaves the paper's range (_paper_epsilon caps there)
                _check_number(value, "FreimanConfig", name, low, strict=strict,
                              high=0.5 if name == "epsilon" else None, integral=integral)

    def scan_window_end(self) -> int:
        return self.n_max if self.n_max is not None else growth_window_end(self.d)


# -- the per-run context -----------------------------------------------------------


class FreimanRun:
    """What one Freiman run computes once and every stage reads.

    It holds the multiples nA, one spectrum index of each lA a stage asked
    for (spectrum.spectrum_index at INDEX_DELTA: the characters of lA
    whose modulus meets the cut rule at delta = 1, and their moduli, from
    the full transform or a coarse transform and a certified zoom), the
    spectra cut from it at each (l, delta) a stage asked for, and A - A.
    Each stage given the run reuses what the stages before it computed.
    The Bohr tables are not held: run_freiman hands each its base.
    """

    def __init__(self, A: GroupSet):
        if A.cardinality == 0:
            raise ValueError("a Freiman run needs a nonempty set")
        self.A = A
        self.multiples = Multiples(A)
        self._indices: dict[int, SpectrumIndex] = {}
        self._spectra: dict[tuple[int, float], Spectrum] = {}
        self._difference: GroupSet | None = None

    def index(self, l: int) -> SpectrumIndex:
        """The index of lA at INDEX_DELTA, built once."""
        if l not in self._indices:
            self._indices[l] = spectrum_index(self.multiples[l], INDEX_DELTA)
        return self._indices[l]

    def spectrum(self, l: int, delta: float) -> Spectrum:
        """LSpec(lA, delta), cut once per (l, delta) at delta <= INDEX_DELTA."""
        if (l, delta) not in self._spectra:
            self._spectra[l, delta] = cut_spectrum(self.index(l), delta)
        return self._spectra[l, delta]

    def difference(self) -> GroupSet:
        """A - A, which is 2A when A is symmetric."""
        if self._difference is None:
            neg = negate(self.A)
            self._difference = (self.multiples[2] if neg == self.A
                                else sumset(self.A, neg))
        return self._difference

    @staticmethod
    def bohr_table(freqs: GroupSet, r_cap: float, base: DistanceTable | None = None
                   ) -> DistanceTable:
        """bohr_distance_table(freqs, r_cap) on base, a table over a subset of
        freqs capped at r_cap or above: only the frequencies base does not
        cover get rows, and only where base holds numerators (a sup over a
        union is the max of the sups)."""
        if base is None:
            return bohr.bohr_distance_table(freqs, r_cap)
        rest = freqs.mask.copy()
        rest[list(base.covers)] = False
        return bohr.bohr_distance_table(GroupSet(freqs.group, rest), r_cap, base=base)


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
    _check_number(d, "find_l", "d", 0, strict=True)
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
    _check_number(n_max, "measured_growth_exponent", "n_max", 2, integral=True)
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
    the covering route gives nothing). epsilon lies in (0, 1/2], the
    paper's range, so every cut lies at delta <= 1.
    """
    _check_number(epsilon, "spectrum_cover", "epsilon", 0, strict=True, high=0.5)
    S_half = run.spectrum(l, epsilon / 2)
    S_one = run.spectrum(l, epsilon)
    S_two = run.spectrum(l, 2 * epsilon)
    counts = {
        "eps/2": S_half.count, "eps": S_one.count, "2eps": S_two.count,
    }
    r_max = math.floor((1.0 / epsilon - 0.5) / 2.0)
    chosen = None
    for r in range(2, r_max + 1):
        # no other stage reads a wide spectrum, so the run does not keep it
        delta = (2 * r + 0.5) * epsilon
        wide = cut_spectrum(run.index(l), delta)
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


def lowerbound_audit(run: FreimanRun, l: int, epsilon: float) -> LowerboundAudit:
    """Exhaustive membership check of the spectral lower-bound containment,
    with K the measured ratio mu(lA) / mu((l-1)A). Only A - A is read
    (bohr.worst_distance), so no table is built."""
    _check_number(l, "lowerbound_audit", "l", 2, integral=True)
    _check_number(epsilon, "lowerbound_audit", "epsilon", 0, strict=True, high=1)
    K = run.multiples[l].measure / run.multiples[l - 1].measure
    spec = run.spectrum(l, epsilon)
    radius = 2 * epsilon * math.sqrt(2 * K)
    worst = bohr.worst_distance(spec.members, run.difference())
    return LowerboundAudit(worst <= radius + INCLUSION_SLACK, l, float(epsilon),
                           K, radius, spec.count, worst)


# -- the end-to-end run ----------------------------------------------------------------


@dataclass(frozen=True)
class ChainLink:
    name: str
    holds: bool
    applicable: bool


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
    vacuous: bool  # the ball is all of G or its radius is >= 1/2
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
            "config": asdict(self.config),
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
            "vacuous": self.vacuous,
            "cover": self.cover.to_jsonable(),
            "spectrum_count": self.spectrum.count,
            "spectrum_threshold": self.spectrum.threshold,
            "radius": self.radius,
            "guaranteed_radius": self.guaranteed_radius,
            "mu_B": self.ball.measure,
            "ball_frequency_count": self.ball.frequencies.cardinality,
            "containment": self.containment,
            "chain": [asdict(c) for c in self.chain],
            "lowerbound_audit": asdict(self.lowerbound),
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
    """The cover at eps, doubling eps on escape while it stays at or below
    1/2; (cover, eps used, eps tried).

    When every attempt escapes, the first attempt and its epsilon are kept.
    """
    first = cover = spectrum_cover(run, l, eps)
    tried = [eps]
    while cover.escape and len(tried) <= max_retries and 2 * tried[-1] <= 0.5:
        cover = spectrum_cover(run, l, 2 * tried[-1])
        tried.append(2 * tried[-1])
    if cover.escape:
        return first, eps, tuple(tried)
    return cover, tried[-1], tuple(tried)


def _chain(run: FreimanRun, l: int, eps: float, K_l: float, ball: BohrSet,
           base: DistanceTable) -> tuple[ChainLink, ChainLink, ChainLink]:
    """The three-link radius chain, each link exhaustive with its own
    applicability: link 1 at A - A (bohr.worst_distance), links 2 and 3 off
    a table over LSpec(lA, 2 eps) capped at chain_cap(eps), built on base
    (the ball's table, over a subset of LSpec(lA, 2 eps) at a cap at or
    above chain_cap)."""
    spec2 = run.spectrum(l, 2 * eps).members
    table2 = run.bohr_table(spec2, chain_cap(eps), base)
    link1 = ChainLink(
        "A-A in Bohr(LSpec(lA,2eps), 2^9 eps)",
        bohr.worst_distance(spec2, run.difference()) <= 2 ** 9 * eps + INCLUSION_SLACK,
        K_l <= 2 ** 13,  # then 2^9 eps dominates the guaranteed 4 eps sqrt(2 K_l)
    )
    mid = table2.ball(2 ** 9 * eps)
    tight = table2.ball(DEFAULT_RADIUS)
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


def chain_cap(eps: float) -> float:
    """The largest radius below 1/2 that the chain reads off its table: 2^9
    eps or 2^-4."""
    return max(r for r in (2 ** 9 * eps, DEFAULT_RADIUS) if r < 0.5)


def read_cap(radius: float, eps: float) -> float:
    """The largest radius below 1/2 that run_freiman reads off the ball's
    table or off a table built on it.

    The reads are the dimension grid's radius * 2^-j and their doubles (all
    of the form radius * 2^j with j <= 1) and the chain's (chain_cap). Balls
    of radius >= 1/2 are all of G.
    """
    grid = math.ldexp(radius, min(1, -1 - math.frexp(radius)[1]))
    return max(chain_cap(eps), grid if grid < 0.5 else 0)


def run_freiman(A: GroupSet, config: FreimanConfig) -> FreimanReport:
    """Execute the full containment pipeline and assemble the report.

    The stages (growth, pigeonhole, spectrum, cover, audit, ball, chain)
    share one FreimanRun, so each nA, the spectrum index of lA and A - A
    are computed once, and each table is handed the one before it as its
    base, so each Bohr distance row over G is computed once. Each table is
    sieved at the largest radius below 1/2 that its readers read (read_cap,
    chain_cap): an element's exact distance is computed only while it stays
    within that cap.
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

    audit = lowerbound_audit(run, l, eps_used)

    # the spectrum's table is the ball's base, and the ball's is the chain's,
    # whose cap is at or below it (X lies in LSpec(lA, 2 eps))
    cap = read_cap(radius, eps_used)
    Lambda = spectrum.members
    if cover.X_set is not None:
        Lambda = Lambda | cover.X_set
    table = run.bohr_table(Lambda, cap, run.bohr_table(spectrum.members, cap))
    ball = BohrSet(Lambda, float(radius), table.ball(radius))
    # the grid and the estimate read most radii more than once: count each once
    measure = functools.cache(table.measure)
    grid = dyadic_dimension_grid(measure, radius, cap=config.dim_grid_cap)

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
        vacuous=ball.measure == A.group.order or radius >= 0.5,
        cover=cover,
        spectrum=spectrum,
        radius=float(radius),
        guaranteed_radius=guaranteed,
        ball=ball,
        containment=run.difference().is_subset_of(ball.members),
        chain=_chain(run, l, eps_used, K_l, ball, table),
        lowerbound=audit,
        dimension=dimension_estimate(measure, grid),
        measure_ratio=ball.measure / A.measure,
    )
