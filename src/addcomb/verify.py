"""Randomized verification suites: every implemented inequality, desk scale.

Each criterion function draws its instances from a seeded generator, runs
the exhaustive checks at the stated tolerances and instance counts, and
returns a CriterionResult. The CLI `verify` command and the acceptance test
module both consume these.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import oracles
from .bohr import dimension_estimate, nested_bohr_audit, rounding_check
from .bourgain import (birkhoff_metric, constant_family, interval_family,
                       sandwich_audit, subgroup_generated, system_from_balls)
from .covering import chang_cover, ruzsa_cover
from .fourier import convolve, moment_lower_bound_audit, parseval_audit, transform
from .groups import FinAbGroup
from .pipeline import FreimanConfig, FreimanRun, lowerbound_audit, run_freiman
from .serialize import dumps
from .sets import GroupSet, Multiples
from .spectrum import spectral_distance


#: (character, element) phases the spectral-identity check sums per block.
IDENTITY_BLOCK_CELLS = 1 << 16


@dataclass
class CriterionResult:
    name: str
    suite: str
    passed: bool
    seconds: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.seconds:.2f}s)"

    def to_jsonable(self) -> dict:
        return {
            "name": self.name, "suite": self.suite, "passed": self.passed,
            "seconds": round(self.seconds, 3), "details": self.details,
        }


# -- randomized instance generators -----------------------------------------------


def _random_group(rng: np.random.Generator, max_order: int) -> FinAbGroup:
    rank = int(rng.choice([1, 1, 1, 2, 2, 3]))
    if rank == 1:
        n = int(2 ** rng.uniform(3, math.log2(max_order)))
        return FinAbGroup([max(4, n)])
    cycles = []
    budget = max_order
    for i in range(rank):
        hi = max(2.0, budget ** (1.0 / (rank - i)))
        n = int(2 ** rng.uniform(1, math.log2(hi))) if hi > 2 else 2
        n = max(2, n)
        cycles.append(n)
        budget = max(2, budget // n)
    return FinAbGroup(cycles)


def _random_set(rng: np.random.Generator, g: FinAbGroup,
                style: str | None = None) -> GroupSet:
    style = style or rng.choice(["ball", "dense", "sparse"])
    if style == "ball":
        r = int(rng.integers(1, max(2, min(g.invariants) // 2)))
        return GroupSet.linf_ball(g, r)
    if style == "dense":
        p = rng.uniform(0.1, 0.6)
    else:
        p = rng.uniform(0.01, 0.1)
    mask = rng.random(g.order) < p
    mask[int(rng.integers(0, g.order))] = True  # never empty
    return GroupSet(g, mask)


# -- criteria ---------------------------------------------------------------------


def criterion_fourier_identities(rng: np.random.Generator) -> CriterionResult:
    """Parseval and the convolution theorem, 50 instances, rel error <= 1e-9."""
    t0 = time.perf_counter()
    worst_parseval = 0.0
    worst_conv = 0.0
    for _ in range(50):
        g = _random_group(rng, 4096)
        A = _random_set(rng, g)
        B = _random_set(rng, g)
        pa = parseval_audit(A)
        worst_parseval = max(worst_parseval, pa.gap / max(1.0, pa.rhs))
        conv = convolve(A, B, snap_integers=False)
        lhs = transform(conv, g).values
        rhs = transform(A).values * transform(B).values
        scale = max(1.0, float(np.abs(rhs).max()))
        worst_conv = max(worst_conv, float(np.abs(lhs - rhs).max()) / scale)
    secs = time.perf_counter() - t0
    ok = worst_parseval <= 1e-9 and worst_conv <= 1e-9 and secs <= 30.0
    return CriterionResult(
        "fourier identities (Parseval + convolution theorem, 50 instances)",
        "fourier", ok, secs,
        {"max_parseval_rel_err": worst_parseval, "max_convolution_rel_err": worst_conv,
         "runtime_limit_s": 30.0})


def criterion_spectral_identity(rng: np.random.Generator) -> CriterionResult:
    """dist(gamma, gamma_0)^2 = 2(1 - |1_A^|^2/mu^2), exhaustive, 30 instances.

    The direct side is the double sum over A x A, grouped by difference:
    sum_x corr(x) gamma(x) with corr(x) = #{(a, a') : a - a' = x}. corr is
    symmetric, so the sum is real: its cosine part, one mat-vec of a cosine
    table gathered by the exact phase numerators against the counts.
    """
    t0 = time.perf_counter()
    worst = 0.0
    api_worst = 0.0
    for _ in range(30):
        g = _random_group(rng, 1024)
        A = _random_set(rng, g)
        mu = A.measure
        corr = oracles.pairwise_difference_counts(A).astype(np.float64)
        M = g.phase_denominator
        cosines = np.cos(2 * np.pi * np.arange(M) / M)
        direct = np.empty(g.order)
        # blocks of characters of about IDENTITY_BLOCK_CELLS phases
        step = max(1, IDENTITY_BLOCK_CELLS // g.order)
        for start in range(0, g.order, step):
            ms = np.arange(start, min(start + step, g.order))
            sums = cosines[oracles.phase_numerator_rows(g, ms)] @ corr
            direct[ms] = (2 * mu * mu - 2 * sums) / (mu * mu)
        closed = 2.0 * (1.0 - (transform(A).magnitudes() / mu) ** 2)
        worst = max(worst, float(np.abs(direct - closed).max()))
        # tie in the public API on a few characters, against the oracle
        for m in rng.integers(0, g.order, size=3):
            gm = g.character(int(m))
            d1 = spectral_distance(gm, g.character(0), A)
            d2 = oracles.spectral_distance(gm, g.character(0), A)
            api_worst = max(api_worst, abs(d1 * d1 - d2 * d2))
    secs = time.perf_counter() - t0
    ok = worst <= 1e-9 and api_worst <= 1e-9
    return CriterionResult(
        "spectral identity (exhaustive over the dual, 30 instances)",
        "fourier", ok, secs,
        {"max_identity_err": worst, "max_api_route_err": api_worst})


def criterion_moment_lower_bound(rng: np.random.Generator) -> CriterionResult:
    """moment(A,k) >= mu(A)^{2k}/mu(kA) on 100 random (A, k), k <= 12."""
    t0 = time.perf_counter()
    failures = 0
    for _ in range(100):
        g = _random_group(rng, 1024)
        A = _random_set(rng, g)
        k = int(rng.integers(1, 13))
        if not moment_lower_bound_audit(A, k).holds:
            failures += 1
    secs = time.perf_counter() - t0
    return CriterionResult(
        "moment lower bound (100 instances, k <= 12)", "fourier",
        failures == 0, secs, {"failures": failures})


def criterion_nested_bohr(rng: np.random.Generator) -> CriterionResult:
    """Bohr(k Lambda, k delta) = Bohr(Lambda, delta) on a (k, delta) grid, 20 instances."""
    t0 = time.perf_counter()
    failures = 0
    checked = 0
    ks = (2, 3, 4)
    deltas = (0.01, 0.03, 0.07, 0.1)
    for _ in range(20):
        g = _random_group(rng, 512)
        Lam = _random_set(rng, g, style="sparse") | GroupSet.singleton(g, 0)
        multiples, families = Multiples(Lam), {}  # each kLam and each table once
        for k in ks:
            for delta in deltas:
                if k * delta >= 1 / 3:
                    continue
                audit = nested_bohr_audit(Lam, k, delta, multiples, families)
                checked += 1
                if audit.equal is not True:
                    failures += 1
    secs = time.perf_counter() - t0
    return CriterionResult(
        "nested Bohr rescaling equality (20 instances, grid k x delta)",
        "bohr", failures == 0, secs, {"failures": failures, "pairs_checked": checked})


def criterion_rounding(rng: np.random.Generator) -> CriterionResult:
    """premise and k*delta < 1/3 imply the conclusion, 10^4 samples.

    The samples are drawn as three arrays and checked in one call: k uniform
    in 1..8, delta uniform in [1e-4, 0.999/(3k)) given k, t uniform in
    [-3, 3).
    """
    t0 = time.perf_counter()
    samples = 10_000
    k = rng.integers(1, 9, size=samples)
    delta = rng.uniform(1e-4, (1 / 3) / k * 0.999)
    t = rng.uniform(-3.0, 3.0, size=samples)
    chk = rounding_check(t, k, delta)
    failures = int(np.count_nonzero(chk.applicable & chk.premise & ~chk.conclusion))
    secs = time.perf_counter() - t0
    return CriterionResult(
        "near-integer rounding implication (10^4 samples)", "bohr",
        failures == 0, secs, {"failures": failures})


def criterion_covering(rng: np.random.Generator) -> CriterionResult:
    """Chang (under the measured precondition) and Ruzsa covers, 50 + 50 instances."""
    t0 = time.perf_counter()
    chang_failures = 0
    chang_done = 0
    attempts = 0
    while chang_done < 50 and attempts < 3000:
        attempts += 1
        g = _random_group(rng, 512)
        Bp = _random_set(rng, g, style="dense")
        nb = int(rng.integers(1, 6))
        B = GroupSet.from_indices(g, rng.integers(0, g.order, size=nb))
        k = int(rng.integers(4, 11))
        cert = chang_cover(B, Bp, k)[0]
        if not cert.parameters["precondition_held"]:
            continue
        chang_done += 1
        if not (cert.containment_verified and cert.size_bound_verified):
            chang_failures += 1
    ruzsa_failures = 0
    for _ in range(50):
        g = _random_group(rng, 512)
        B = _random_set(rng, g)
        if not ruzsa_cover(B).containment_verified:
            ruzsa_failures += 1
    secs = time.perf_counter() - t0
    ok = chang_done == 50 and chang_failures == 0 and ruzsa_failures == 0
    return CriterionResult(
        "covering certificates (50 Chang under precondition + 50 Ruzsa)",
        "covering", ok, secs,
        {"chang_instances": chang_done, "chang_failures": chang_failures,
         "ruzsa_failures": ruzsa_failures, "sampler_attempts": attempts})


def _birkhoff_systems():
    systems = []
    for n in (16, 33, 64, 100, 127, 128, 200, 243, 256):
        g = FinAbGroup([n])
        systems.append(("interval", system_from_balls(interval_family(g, n / 4), d=2.0)))
    g = FinAbGroup([256])
    H = subgroup_generated(g, [g.element(16)])
    systems.append(("subgroup Z256/16", system_from_balls(constant_family(H), d=0.0)))
    g2 = FinAbGroup([8, 32])
    H2 = subgroup_generated(g2, [g2.element((0, 1))])
    systems.append(("subgroup 0xZ32", system_from_balls(constant_family(H2), d=0.0)))
    g3 = FinAbGroup([6, 6, 6])
    H3 = subgroup_generated(g3, [g3.element((1, 1, 1))])
    systems.append(("subgroup diag Z6^3", system_from_balls(constant_family(H3), d=0.0)))
    return systems


def criterion_birkhoff(rng: np.random.Generator) -> CriterionResult:
    """Factor-2 equivalence and the grid sandwich for interval/subgroup systems."""
    t0 = time.perf_counter()
    failures = []
    for name, system in _birkhoff_systems():
        if not system.audit.all_pass:
            failures.append(f"{name}: axiom audit {system.audit.violations}")
            continue
        metric = birkhoff_metric(system)
        upper_ok, lower_ok = metric.factor_two()
        if not upper_ok:
            failures.append(f"{name}: rho exceeds rho*")
        if not lower_ok:
            failures.append(f"{name}: rho below rho*/2")
        for v in sandwich_audit(metric):
            if not v.passed:
                failures.append(f"{name}: sandwich fails at delta={v.delta:g}")
    secs = time.perf_counter() - t0
    return CriterionResult(
        "Birkhoff metric factor-2 + sandwich (interval and subgroup systems)",
        "bourgain", len(failures) == 0, secs, {"failures": failures})


def criterion_lowerbound(rng: np.random.Generator) -> CriterionResult:
    """A-A in Bohr(LSpec(lA, eps), 2 eps sqrt(2K)) on 200 random instances."""
    t0 = time.perf_counter()
    failures = 0
    for _ in range(200):
        g = _random_group(rng, 1024)
        A = _random_set(rng, g)
        l = int(rng.integers(2, 4))
        eps = float(rng.uniform(0.05, 1.0))
        if not lowerbound_audit(FreimanRun(A), l, eps).holds:
            failures += 1
    secs = time.perf_counter() - t0
    return CriterionResult(
        "spectral lower-bound containment (200 instances)", "pipeline",
        failures == 0, secs, {"failures": failures})


def criterion_end_to_end(rng: np.random.Generator) -> CriterionResult:
    """The frozen Z_256 empirical run: containment, dim <= 4, determinism, <= 60 s."""
    t0 = time.perf_counter()
    g = FinAbGroup([256])
    A = GroupSet.interval(g, 2)
    cfg = FreimanConfig(d=1.0, mode="empirical", epsilon=0.5)
    rep1 = run_freiman(A, cfg)
    rep2 = run_freiman(A, cfg)
    text1 = dumps(rep1.to_jsonable())
    text2 = dumps(rep2.to_jsonable())
    secs = time.perf_counter() - t0
    checks = {
        "containment": rep1.containment,
        "empirical_dim": rep1.dimension.empirical_dim,
        "measure_ratio": rep1.measure_ratio,
        "deterministic": text1 == text2,
        "runtime_limit_s": 60.0,
    }
    ok = (rep1.containment and rep1.dimension.empirical_dim <= 4.0
          and math.isfinite(rep1.measure_ratio) and text1 == text2
          and secs <= 60.0)
    return CriterionResult(
        "end-to-end empirical run on Z_256 (deterministic report)",
        "pipeline", ok, secs, checks)


def criterion_dimension_sanity(rng: np.random.Generator) -> CriterionResult:
    """sup word-metric balls in Z_17^2: empirical_dim in [1.3, 2.0] on r = 1, 2, 3."""
    t0 = time.perf_counter()
    g = FinAbGroup([17, 17])
    measure = lambda r: GroupSet.linf_ball(g, int(round(r))).measure
    est = dimension_estimate(measure, [1, 2, 3])
    counts_ok = all(
        GroupSet.linf_ball(g, r).measure == (2 * r + 1) ** 2 for r in (1, 2, 3, 6))
    secs = time.perf_counter() - t0
    ok = counts_ok and 1.3 <= est.empirical_dim <= 2.0
    return CriterionResult(
        "dimension estimator sanity (word-metric balls in Z_17^2)",
        "bohr", ok, secs,
        {"empirical_dim": est.empirical_dim, "closed_form_counts_ok": counts_ok})


CRITERIA = (
    criterion_fourier_identities,
    criterion_spectral_identity,
    criterion_moment_lower_bound,
    criterion_nested_bohr,
    criterion_rounding,
    criterion_covering,
    criterion_birkhoff,
    criterion_lowerbound,
    criterion_end_to_end,
    criterion_dimension_sanity,
)

SUITES = {
    "fourier": ("criterion_fourier_identities", "criterion_spectral_identity",
                "criterion_moment_lower_bound"),
    "bohr": ("criterion_nested_bohr", "criterion_rounding",
             "criterion_dimension_sanity"),
    "covering": ("criterion_covering",),
    "bourgain": ("criterion_birkhoff",),
    "pipeline": ("criterion_lowerbound", "criterion_end_to_end"),
}


def run_suite(suite: str = "all", seed: int = 0) -> list[CriterionResult]:
    """Run one named suite (or all criteria) with a fixed seed."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick all|{'|'.join(SUITES)}")
    selected = []
    for fn in CRITERIA:
        if suite == "all" or fn.__name__ in SUITES[suite]:
            selected.append(fn)
    results = []
    for fn in selected:
        rng = np.random.default_rng(seed)
        results.append(fn(rng))
    return results
