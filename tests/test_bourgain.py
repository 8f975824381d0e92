import contextlib
import dataclasses
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import addcomb.bourgain
import addcomb.sets
from addcomb import verify
from addcomb.bohr import bohr_family, dimension_estimate, dyadic_dimension_grid
from addcomb.bourgain import (MAX_DEPTH, BirkhoffMetric, BourgainSystem,
                              birkhoff_metric, constant_family, interval_family,
                              sandwich_audit, subgroup_generated, system_from_balls)
from addcomb.groups import FinAbGroup
from addcomb.oracles import dijkstra_rho
from addcomb.sets import GroupSet, negate
from addcomb.verify import _birkhoff_systems


def bellman_ford_rho(metric: BirkhoffMetric) -> np.ndarray:
    """Oracle: plain (dense) relaxation until a fixed point, no priority queue."""
    g = metric.system.group
    steps = [i for i in range(g.order) if math.isfinite(metric.rho_star[i])]
    dist = {i: math.inf for i in range(g.order)}
    dist[0] = 0.0
    changed = True
    while changed:
        changed = False
        for u in range(g.order):
            if math.isinf(dist[u]):
                continue
            for s in steps:
                v = (g.element(u) + g.element(s)).index
                nd = dist[u] + metric.rho_star[s]
                if nd < dist[v]:
                    dist[v] = nd
                    changed = True
    return np.array([dist[i] for i in range(g.order)])


def assert_matches_dijkstra(system: BourgainSystem) -> None:
    metric = birkhoff_metric(system)
    levels = [system.levels[r] for r in system.ternary_radii()]
    rho_star, rho = dijkstra_rho(system.group, levels, system.core)
    assert metric.rho_star.tobytes() == rho_star.tobytes()
    assert metric.rho.tobytes() == rho.tobytes()


ROUTES = ("translations", "sums")


@contextlib.contextmanager
def forced_route(route: str):
    """Price translations at -inf or +inf, so that every dilation of the
    metric and every audit row on a nested family translates ("translations"),
    or none does ("sums": threshold sums and the pair loop)."""
    price = {"translations": -math.inf, "sums": math.inf}[route]
    with mock.patch.object(addcomb.bourgain, "_translation_seconds", lambda *args: price):
        yield


def record_transforms(monkeypatch) -> list[bytes]:
    """Rebind numpy's real FFT and log the bytes of every input it transforms."""
    seen = []
    rfftn = np.fft.rfftn

    def recording(a, *args, **kwargs):
        seen.append(np.asarray(a).tobytes())
        return rfftn(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", recording)
    return seen


def float_bytes(S: GroupSet) -> bytes:
    return S.mask.astype(np.float64).tobytes()


Z2048 = FinAbGroup([2048])
CORE_KINDS = {
    # auto depth: the bottom level is {0}
    "zero-core": lambda: system_from_balls(interval_family(Z2048, 512.0), d=2.0),
    # every level carries the subgroup of order 4, which the tail keeps
    "subgroup-core": lambda: system_from_balls(
        lambda r: addcomb.sets.sumset(GroupSet.interval(Z2048, math.floor(512 * r + 1e-12)),
                                      GroupSet.from_indices(Z2048, range(0, 2048, 512))),
        d=2.0, cap=7),
    # an explicit shallow depth leaves the tail unattested
    "no-core": lambda: system_from_balls(interval_family(Z2048, 512.0), d=2.0, K=4),
}


@st.composite
def clean_systems(draw):
    """Axiom-clean systems: Bohr families over groups of rank 1-3 (odd and
    even cycles), interval families (some floored at radius 1, which gives a
    core that is not a subgroup), and subgroup systems (unreachable elements,
    an all-zero-weight core); K is either stabilized or an explicit small
    depth, which leaves no attested core on the non-constant families."""
    kind = draw(st.sampled_from(["bohr", "interval", "subgroup"]))
    K = draw(st.one_of(st.none(), st.integers(1, 3)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "interval":
        g = FinAbGroup([draw(st.integers(3, 400))])
        scale = draw(st.floats(1.0, g.order / 2))
        floor = draw(st.integers(0, 1))
        fam = lambda r: GroupSet.interval(g, max(floor, math.floor(scale * r + 1e-12)))
        system = system_from_balls(fam, d=2.0, K=K)
    else:
        rank = draw(st.integers(1, 3))
        top = {1: 300, 2: 16, 3: 7}[rank]
        g = FinAbGroup(draw(st.lists(st.integers(2, top), min_size=rank, max_size=rank)))
        picks = rng.integers(0, g.order, size=draw(st.integers(1, 3)))
        if kind == "subgroup":
            H = subgroup_generated(g, [g.element(g.decode(int(i))) for i in picks])
            system = system_from_balls(constant_family(H), d=0.0, K=K)
        else:
            freqs = GroupSet.from_indices(g, picks)
            system = system_from_balls(bohr_family(freqs | negate(freqs)),
                                       d=draw(st.floats(2.0, 8.0)), K=K)
    assume(system.audit.all_pass)
    return system


VERIFY_SYSTEMS = _birkhoff_systems()


def reference_audit(system: BourgainSystem) -> tuple[tuple[bool, ...], list[str]]:
    """Oracle: the four axiom flags and the violations, every pair summed afresh
    and every round-up target found by a scan of all radii, in exact Fraction
    arithmetic on the grid (mapped onto the system's levels by position)."""
    radii, d = fraction_grid(system.depth), system.d
    assert len(radii) == len(system.levels)
    levels = dict(zip(radii, system.levels.values()))
    symmetric, nesting, subadditive, growth = [], [], [], []
    for r in radii:
        if not levels[r].contains_zero():
            symmetric.append(f"level {float(r):g} misses 0")
        if not levels[r].is_symmetric():
            symmetric.append(f"level {float(r):g} is not symmetric")
    for lo, hi in zip(radii, radii[1:]):
        if not levels[lo].is_subset_of(levels[hi]):
            nesting.append(f"nesting fails at {float(lo):g} vs {float(hi):g}")
    for r1 in radii:
        for r2 in radii:
            if r2 < r1 or r1 + r2 > 2:
                continue
            target = min(r for r in radii if r >= r1 + r2)
            if not addcomb.sets.sumset(levels[r1], levels[r2]).is_subset_of(levels[target]):
                subadditive.append(f"subadditivity fails: S_{float(r1):g} + S_{float(r2):g} "
                                   f"not in S_{float(target):g}")
    for r in (r for r in radii if 2 * r in levels):
        small, big = levels[r].measure, levels[2 * r].measure
        if small > 1 and big > 2.0 ** d * small * (1 + 1e-12):
            growth.append(f"growth fails at {float(r):g}: {big} > 2^{d:g} * {small}")
    flags = (not symmetric, not nesting, not subadditive, not growth)
    return flags, symmetric + nesting + subadditive + growth


def fraction_grid(depth: int) -> list[Fraction]:
    """Reference: the ternary grid {2, 1} u {3^-k, 2*3^-k : 1 <= k <= depth}."""
    grid = {Fraction(2), Fraction(1)}
    for k in range(1, depth + 1):
        grid |= {Fraction(1, 3 ** k), Fraction(2, 3 ** k)}
    return sorted(grid)


Z32, Z64, Z256 = FinAbGroup([32]), FinAbGroup([64]), FinAbGroup([256])
SUBGROUP_Z256 = GroupSet.from_indices(Z256, range(0, 256, 16))
# name: (family, keyword arguments, the axiom flags the audit must report)
AUDIT_FAMILIES = {
    "nesting": (lambda r: GroupSet.interval(Z32, 1 if r > 0.5 else 3), {"d": 1.0, "K": 2},
                (True, False, False, True)),
    # radius 16 sqrt(r) grows too slowly: S_1/9 + S_1/9 is not in S_2/9
    "subadditivity": (lambda r: GroupSet.interval(Z64, math.floor(16 * math.sqrt(r))),
                      {"d": 2.0}, (True, True, False, True)),
    "growth": (interval_family(Z64, 16.0), {"d": 1.0}, (True, True, True, False)),
    "asymmetric": (constant_family(GroupSet.from_indices(Z32, [0, 1])), {"d": 1.0},
                   (False, True, False, True)),
    "constant-depth-20": (constant_family(SUBGROUP_Z256), {"d": 0.0},
                          (True, True, True, True)),
    "max-depth": (interval_family(Z64, 16.0), {"d": 1.25, "K": MAX_DEPTH},
                  (True, True, True, True)),
}


def random_levels_system(rng: np.random.Generator) -> BourgainSystem:
    """A step family like the CLI's "levels" systems: a few random sets, each
    held from its radius up to the next, so long runs of levels are equal."""
    g = FinAbGroup([int(n) for n in rng.integers(3, 13, size=int(rng.integers(1, 3)))])
    steps = []
    for radius in sorted(rng.choice([0.0, 1 / 27, 1 / 9, 2 / 9, 0.3, 2 / 3, 1.0, 2.0],
                                    size=int(rng.integers(2, 6)), replace=False)):
        mask = rng.random(g.order) < rng.uniform(0.05, 0.5)
        if rng.random() < 0.8:
            mask |= mask[g.negation_permutation()]
        mask[0] |= rng.random() < 0.9
        steps.append((radius, GroupSet(g, mask)))

    def family(delta: float) -> GroupSet:
        return max((p for p in steps if p[0] <= delta), default=steps[0], key=lambda p: p[0])[1]

    K = int(rng.integers(1, 7)) if rng.random() < 0.8 else None
    return system_from_balls(family, d=float(rng.choice([0.0, 0.5, 1.0, 2.0])), K=K, cap=6)


class TestSystemFromBalls:
    def test_subgroup_system_clean_at_d0(self):
        g = FinAbGroup([32])
        H = GroupSet.from_indices(g, range(0, 32, 4))
        system = system_from_balls(constant_family(H), d=0.0)
        assert system.audit.all_pass
        assert system.core == H  # constant tail attested

    def test_interval_system_clean(self):
        g = FinAbGroup([64])
        system = system_from_balls(interval_family(g, 16.0), d=1.25)
        assert system.audit.all_pass
        assert system.depth == 3  # floor(16/27) = 0 stabilizes at k = 3

    def test_growth_violation_recorded(self):
        # at d = 1 the pair (1/9, 2/9) has ratio 7/3 > 2
        g = FinAbGroup([64])
        system = system_from_balls(interval_family(g, 16.0), d=1.0)
        assert not system.audit.growth_ok
        assert any("growth" in v for v in system.audit.violations)

    def test_asymmetric_level_detected(self):
        g = FinAbGroup([16])
        bad = GroupSet.from_indices(g, [0, 1])
        system = system_from_balls(constant_family(bad), d=1.0)
        assert not system.audit.symmetric_ok

    def test_grid_contains_dyadic_audit_points(self):
        g = FinAbGroup([64])
        system = system_from_balls(interval_family(g, 16.0), d=1.25)
        radii = set(system.levels)
        assert 2.0 in radii and 1.0 in radii
        for k in range(1, system.depth + 1):
            assert 1 / 3 ** k in radii
            assert 2 / 3 ** k in radii

    @pytest.mark.parametrize("depth", range(1, MAX_DEPTH + 1))
    def test_level_keys_are_the_rounded_fractions(self, depth):
        # every key, and every radius the family is called with on the grid,
        # is the correctly rounded u / 3^depth, bit for bit
        g = FinAbGroup([8])
        called = []
        zero = GroupSet.singleton(g, 0)

        def family(r):
            called.append(r)
            return zero

        system = system_from_balls(family, d=0.0, K=depth)
        grid = [float(r).hex() for r in fraction_grid(depth)]
        assert [r.hex() for r in system.levels] == grid
        assert [r.hex() for r in called[1:-1]] == grid
        assert [r.hex() for r in system.ternary_radii()] == [
            float(Fraction(1, 3 ** k)).hex() for k in range(depth + 1)]
        assert called[-1].hex() == float(Fraction(1, 3 ** (depth + 12))).hex()

    def test_explicit_depth(self):
        g = FinAbGroup([64])
        system = system_from_balls(interval_family(g, 16.0), d=1.25, K=5)
        assert system.depth == 5

    @pytest.mark.parametrize("kwargs", [
        {"K": 2.5}, {"K": "3"}, {"K": True}, {"K": 0}, {"K": MAX_DEPTH + 1},
        {"cap": 2.0}, {"cap": 0}, {"cap": MAX_DEPTH + 1},
        {"d": -1.0}, {"d": math.inf}, {"d": math.nan},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        g = FinAbGroup([64])
        args = {"d": 1.25, **kwargs}
        with pytest.raises(ValueError):
            system_from_balls(interval_family(g, 16.0), **args)

    def test_depth_bound_accepted(self):
        g = FinAbGroup([64])
        system = system_from_balls(interval_family(g, 16.0), d=1.25, K=MAX_DEPTH)
        assert system.depth == MAX_DEPTH
        assert_matches_dijkstra(system)

    def test_nesting_violation_detected(self):
        g = FinAbGroup([32])
        shrink = lambda r: GroupSet.interval(g, 1 if r > 0.5 else 3)
        system = system_from_balls(shrink, d=1.0, K=2)
        assert not system.audit.nesting_ok

    def test_audit_matches_all_pairs_oracle_on_levels_systems(self):
        rng = np.random.default_rng(2007)
        failing = 0
        for _ in range(60):
            system = random_levels_system(rng)
            audit = system.audit
            flags, violations = reference_audit(system)
            assert (audit.symmetric_ok, audit.nesting_ok, audit.subadditive_ok,
                    audit.growth_ok) == flags
            assert list(audit.violations) == violations
            failing += not audit.subadditive_ok
        assert failing >= 20

    @pytest.mark.parametrize("name", sorted(AUDIT_FAMILIES))
    def test_integer_grid_matches_the_fraction_reference(self, name):
        family, kwargs, flags = AUDIT_FAMILIES[name]
        system = system_from_balls(family, **kwargs)
        if name == "constant-depth-20":
            assert system.depth == 20
        grid = fraction_grid(system.depth)
        assert list(system.levels) == [float(r) for r in grid]
        assert all(S == family(float(r)) for r, S in zip(grid, system.levels.values()))
        audit = system.audit
        reference_flags, violations = reference_audit(system)
        assert (audit.symmetric_ok, audit.nesting_ok, audit.subadditive_ok,
                audit.growth_ok) == reference_flags == flags
        assert list(audit.violations) == violations

    def test_constant_family_sums_once_per_radius(self, record_calls):
        g = FinAbGroup([256])
        H = subgroup_generated(g, [g.element(16)])
        sums = record_calls(addcomb.sets, "sumset")
        system = system_from_balls(constant_family(H), d=0.0)
        assert system.audit.all_pass and len(system.levels) == 42
        assert len(sums) <= len(system.levels)

    def test_sumset_budget_on_verify_systems(self, record_calls, monkeypatch):
        sums = record_calls(addcomb.sets, "sumset")
        made = []

        def counted(*args, **kwargs):
            before = len(sums)
            system = system_from_balls(*args, **kwargs)
            made.append(len(sums) - before)
            return system

        monkeypatch.setattr(verify, "system_from_balls", counted)
        _birkhoff_systems()
        assert len(made) == 12
        assert sum(made) <= 430  # 2894 when every pair is summed afresh

    def test_audit_transforms_each_level_once(self, monkeypatch):
        family = interval_family(FinAbGroup([4096]), 1024.0)
        seen = record_transforms(monkeypatch)
        with forced_route("sums"):
            system_from_balls(family, d=2.0)
        # the pair loop sums nothing but levels
        assert len(seen) >= 5 and len(set(seen)) == len(seen)
        # and the rows that dilate leave fewer levels to transform
        seen.clear()
        system_from_balls(family, d=2.0)
        assert 1 <= len(seen) < 5 and len(set(seen)) == len(seen)

    @pytest.mark.parametrize("route", ROUTES)
    def test_audit_matches_all_pairs_oracle_by_route(self, route):
        rng = np.random.default_rng(1607)
        failing = nested = 0
        for _ in range(60):
            with forced_route(route):
                system = random_levels_system(rng)
            audit = system.audit
            flags, violations = reference_audit(system)
            assert (audit.symmetric_ok, audit.nesting_ok, audit.subadditive_ok,
                    audit.growth_ok) == flags
            assert list(audit.violations) == violations
            failing += not audit.subadditive_ok
            nested += audit.nesting_ok and not audit.subadditive_ok
        # nested families that fail subadditivity are the ones a dilated row
        # must report
        assert failing >= 20 and nested >= 5

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("name", sorted(AUDIT_FAMILIES))
    def test_audit_families_by_route(self, name, route, record_calls):
        family, kwargs, flags = AUDIT_FAMILIES[name]
        translated = record_calls(addcomb.bourgain, "_translate_min")
        with forced_route(route):
            system = system_from_balls(family, **kwargs)
        audit = system.audit
        reference_flags, violations = reference_audit(system)
        assert (audit.symmetric_ok, audit.nesting_ok, audit.subadditive_ok,
                audit.growth_ok) == reference_flags == flags
        assert list(audit.violations) == violations
        # a family that fails nesting never dilates
        assert bool(translated) == (route == "translations" and audit.nesting_ok)

    def test_audit_transforms_a_constant_family_once(self, monkeypatch):
        g = FinAbGroup([4096])
        H = GroupSet.from_indices(g, range(0, 4096, 4))
        seen = record_transforms(monkeypatch)
        system = system_from_balls(constant_family(H), d=0.0)
        # every one of the 42 rows sums H + H on the spectral route
        assert system.audit.all_pass and len(system.levels) == 42
        assert seen == [float_bytes(H)]


class TestBirkhoffMetric:
    def test_zero_has_zero_distance(self):
        g = FinAbGroup([16])
        metric = birkhoff_metric(system_from_balls(interval_family(g, 4.0), d=2.0))
        assert metric.rho[0] == 0.0

    def test_rho_star_level_assignment(self):
        # element 1 sits in S_{1/3} but not S_{1/9} when the scale is 4
        g = FinAbGroup([16])
        metric = birkhoff_metric(system_from_balls(interval_family(g, 4.0), d=2.0))
        assert metric.rho_star[1] == pytest.approx(0.5)

    def test_chain_beats_single_step(self):
        # on Z_64 with scale 16: rho*(6) = 1 but 6 = 5 + 1 costs 1/2 + 1/4
        g = FinAbGroup([64])
        metric = birkhoff_metric(system_from_balls(interval_family(g, 16.0), d=1.25))
        assert metric.rho_star[6] == 1.0
        assert metric.rho[6] == pytest.approx(0.75)

    def test_matches_bellman_ford_oracle(self):
        g = FinAbGroup([16])
        metric = birkhoff_metric(system_from_balls(interval_family(g, 4.0), d=2.0))
        oracle = bellman_ford_rho(metric)
        assert np.array_equal(metric.rho, oracle)
        g2 = FinAbGroup([6, 4])
        H = subgroup_generated(g2, [g2.element((2, 0))])
        metric2 = birkhoff_metric(system_from_balls(constant_family(H), d=0.0))
        assert np.array_equal(metric2.rho, bellman_ford_rho(metric2))

    @settings(max_examples=80, deadline=None)
    @given(clean_systems())
    def test_matches_dijkstra_oracle(self, system):
        assert_matches_dijkstra(system)

    @pytest.mark.parametrize("route", ROUTES)
    def test_matches_dijkstra_oracle_by_route(self, route):
        @settings(max_examples=60, deadline=None)
        @given(clean_systems())
        def check(system):
            with forced_route(route):
                assert_matches_dijkstra(system)

        check()

    @settings(max_examples=60, deadline=None)
    @given(clean_systems())
    def test_balls_have_the_closed_form_of_the_lemma(self, system):
        # {dist <= D} = H + c*S_0 + the levels at the bits of D mod top, with
        # c = D // top, H the core's additive closure and S_k of weight
        # 2^(depth - k); checked at every distance the metric attains
        g, depth = system.group, system.depth
        top = 1 << depth
        H = GroupSet.singleton(g, 0) if system.core is None else system.core
        while (closed := addcomb.sets.sumset(H, H)) != H:
            H = closed
        level = {1 << (depth - k): system.levels[r]
                 for k, r in enumerate(system.ternary_radii())}
        balls = {0: H}

        def closed_form(D: int) -> GroupSet:
            # peel off the lowest bit; the multiples of top peel off S_0
            if D not in balls:
                b = D & -D if D % top else top
                balls[D] = addcomb.sets.sumset(closed_form(D - b), level[b])
            return balls[D]

        dist = birkhoff_metric(system).rho * top
        finite = np.isfinite(dist)
        attained = np.unique(dist[finite]).astype(np.int64).tolist()
        for D in attained:
            assert GroupSet(g, finite & (dist <= D)) == closed_form(D), D
        # and no step of any level leads past the farthest distance
        assert GroupSet(g, finite) == closed_form(attained[-1] + top)
        for k, r in enumerate(system.ternary_radii()):
            assert (GroupSet(g, finite & (dist <= 1 << (depth - k)))
                    == addcomb.sets.sumset(H, system.levels[r])), k

    @pytest.mark.parametrize("name,system", VERIFY_SYSTEMS,
                             ids=[name for name, _ in VERIFY_SYSTEMS])
    def test_matches_dijkstra_on_verify_systems(self, name, system):
        assert_matches_dijkstra(system)

    def test_matches_dijkstra_on_z4096_interval_system(self):
        g = FinAbGroup([4096])
        assert_matches_dijkstra(system_from_balls(interval_family(g, 1024.0), d=2.0))

    @pytest.mark.parametrize("kind", sorted(CORE_KINDS))
    def test_matches_dijkstra_by_core(self, kind):
        system = CORE_KINDS[kind]()
        assert system.audit.all_pass
        core = system.core
        assert {"zero-core": core is not None and len(core) == 1,
                "subgroup-core": core is not None and len(core) == 4,
                "no-core": core is None}[kind]
        assert_matches_dijkstra(system)

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("kind", sorted(CORE_KINDS))
    def test_matches_dijkstra_by_core_and_route(self, kind, route, record_calls):
        system = CORE_KINDS[kind]()
        translated = record_calls(addcomb.bourgain, "_translate_min")
        sums = record_calls(addcomb.bourgain, "sumset")
        with forced_route(route):
            assert_matches_dijkstra(system)
        # when every dilation translates, only the closure of a subgroup core
        # sums (once: it is closed already)
        closure_sums = 1 if kind == "subgroup-core" else 0
        assert bool(translated) == (route == "translations")
        assert (len(sums) == closure_sums) == (route == "translations")

    def test_work_counts_on_z4096_interval_system(self, record_calls):
        # depth 7, top = 128, core {0}: S_0 = [-1024, 1024] reaches G in two
        # layers by threshold sums (0 and 128); S_1 = [-341, 341] adds its
        # sum to each of the 3 distances 0, 128, 256; the 5 lighter levels
        # translate, by |S| - 1 = 226, 74, 24, 8 and 2
        g = FinAbGroup([4096])
        system = system_from_balls(interval_family(g, 1024.0), d=2.0)
        assert system.core == GroupSet.singleton(g, 0)
        sums = record_calls(addcomb.bourgain, "sumset")
        translated = record_calls(addcomb.bourgain, "_translate_min")
        birkhoff_metric(system)
        assert [(len(A), len(B)) for A, B in sums] == [
            (1, 2049), (2048, 2049), (2047, 683), (2048, 683), (1, 683)]
        assert [offsets.shape[1] for _, _, offsets, _ in translated] == [226, 74, 24, 8, 2]

    def test_levels_dilate_heavy_to_light_once(self, record_calls):
        # the heaviest distinct level once per layer, each lighter one once
        g = FinAbGroup([4096])
        system = system_from_balls(interval_family(g, 1024.0), d=2.0)
        dilations = record_calls(addcomb.bourgain, "_dilate")
        birkhoff_metric(system)
        weights = [w for _, _, w, _, _, _ in dilations]
        assert weights == [128, 128] + [64, 32, 16, 8, 4, 2]
        # the level of weight w = 2^(7 - k) is S_{3^-k}
        assert all(S is system.levels[1 / 3 ** (8 - w.bit_length())]
                   for _, S, w, _, _, _ in dilations)

    @pytest.mark.parametrize("kind", sorted(CORE_KINDS))
    def test_each_cached_set_transformed_at_most_once(self, monkeypatch, kind):
        system = CORE_KINDS[kind]()
        # the metric's steps are the levels themselves
        kept = {float_bytes(system.levels[r]) for r in system.ternary_radii()}
        seen = record_transforms(monkeypatch)
        birkhoff_metric(system)
        assert max(seen.count(b) for b in kept) <= 1

    @pytest.mark.parametrize("route", ROUTES)
    def test_unreached_cosets_beside_lighter_levels(self, route):
        # intervals on the first cycle of Z_64 x Z_3: chains stay in the
        # subgroup Z_64 x {0}, so two cosets are unreached while the lighter
        # levels still dilate (over the narrowed distance array)
        g = FinAbGroup([64, 3])
        axis = g.coords_table()[1] == 0
        system = system_from_balls(
            lambda r: GroupSet(g, GroupSet.linf_ball(g, math.floor(16 * r + 1e-12)).mask & axis),
            d=2.0)
        assert system.audit.all_pass and system.depth == 3
        with forced_route(route):
            assert_matches_dijkstra(system)
        assert np.isinf(birkhoff_metric(system).rho).sum() == 128

    def test_explicit_shallow_depth_has_no_core(self):
        g = FinAbGroup([64])
        system = system_from_balls(interval_family(g, 16.0), d=1.25, K=1)
        assert system.core is None
        assert_matches_dijkstra(system)

    def test_non_subgroup_core_closes_to_zero(self):
        # a tail constant at {-1, 0, 1} below 1/9 costs nothing, so chains of
        # it reach all of Z_64
        g = FinAbGroup([64])
        fam = lambda r: GroupSet.interval(g, max(1, math.floor(16 * r)))
        system = system_from_balls(fam, d=2.0, K=2)
        assert system.audit.all_pass
        assert system.core == GroupSet.interval(g, 1)
        metric = birkhoff_metric(system)
        assert np.all(metric.rho == 0.0)
        assert_matches_dijkstra(system)

    @pytest.mark.parametrize("name,system", VERIFY_SYSTEMS,
                             ids=[name for name, _ in VERIFY_SYSTEMS])
    def test_factor_two_matches_the_literal_comparison(self, name, system):
        def literal(m: BirkhoffMetric) -> tuple[bool, bool]:
            fin = np.isfinite(m.rho_star)
            return (bool(np.all(m.rho[fin] <= m.rho_star[fin] + 1e-12)),
                    bool(np.all(m.rho[fin] >= m.rho_star[fin] / 2 - 1e-12)))

        metric = birkhoff_metric(system)
        assert metric.factor_two() == literal(metric) == (True, True)
        x = int(np.flatnonzero(np.isfinite(metric.rho_star))[-1])
        for value, verdict in ((metric.rho_star[x] + 1e-9, (False, True)),
                               (metric.rho_star[x] / 2 - 1e-9, (True, False)),
                               (metric.rho_star[x] + 1e-13, (True, True))):
            rho = metric.rho.copy()
            rho[x] = value
            perturbed = dataclasses.replace(metric, rho=rho)
            assert perturbed.factor_two() == literal(perturbed) == verdict

    def test_factor_two_equivalence(self):
        for system in (
            system_from_balls(interval_family(FinAbGroup([128]), 32.0), d=2.0),
            system_from_balls(interval_family(FinAbGroup([100]), 25.0), d=2.0),
        ):
            metric = birkhoff_metric(system)
            fin = np.isfinite(metric.rho_star)
            assert np.all(metric.rho[fin] <= metric.rho_star[fin] + 1e-12)
            assert np.all(metric.rho[fin] >= metric.rho_star[fin] / 2 - 1e-12)

    def test_triangle_inequality_exhaustive(self):
        g = FinAbGroup([60])
        metric = birkhoff_metric(system_from_balls(interval_family(g, 15.0), d=2.0))
        rho = metric.rho
        for x in range(60):
            shifted = np.roll(rho, -x)  # rho[(x + y) mod 60] as y runs
            bound = rho[x] + rho
            ok = np.isinf(bound) | (shifted <= bound + 1e-12)
            assert bool(np.all(ok))

    def test_rho_symmetric_under_negation(self):
        g = FinAbGroup([100])
        metric = birkhoff_metric(system_from_balls(interval_family(g, 25.0), d=2.0))
        perm = g.negation_permutation()
        assert np.array_equal(metric.rho, metric.rho[perm])
        assert np.array_equal(metric.rho_star, metric.rho_star[perm])

    def test_unreachable_outside_subgroup(self):
        g = FinAbGroup([32])
        H = GroupSet.from_indices(g, range(0, 32, 8))
        metric = birkhoff_metric(system_from_balls(constant_family(H), d=0.0))
        assert metric.rho[1] == math.inf
        assert all(metric.rho[i] == 0.0 for i in range(0, 32, 8))

    def test_requires_clean_audit(self):
        g = FinAbGroup([16])
        bad = system_from_balls(constant_family(GroupSet.from_indices(g, [0, 1])), d=1.0)
        with pytest.raises(ValueError):
            birkhoff_metric(bad)

    def test_dump_matches_elementwise_reference(self):
        g = FinAbGroup([6, 4])
        H = subgroup_generated(g, [g.element((2, 0))])
        for system in (system_from_balls(constant_family(H), d=0.0),  # rho = +inf off H
                       # rho* = +inf beyond S_1 = [-16, 16], rho finite
                       system_from_balls(interval_family(FinAbGroup([64]), 16.0), d=1.25, K=1)):
            metric = birkhoff_metric(system)
            reference = [[list(system.group.decode(i)),
                          None if math.isinf(rs) else float(rs),
                          None if math.isinf(r) else float(r)]
                         for i, (rs, r) in enumerate(zip(metric.rho_star, metric.rho))]
            dump = metric.dump_jsonable()
            assert dump == reference
            assert all(type(v) is float for row in dump for v in row[1:] if v is not None)

    def test_dump_format(self):
        g = FinAbGroup([32])
        H = GroupSet.from_indices(g, range(0, 32, 8))
        metric = birkhoff_metric(system_from_balls(constant_family(H), d=0.0))
        dump = metric.dump_jsonable()
        assert len(dump) == 32
        coords, rho_star, rho = dump[1]
        assert coords == [1] and rho_star is None and rho is None
        assert dump[0] == [[0], 0.0, 0.0]


class TestSandwichAudit:
    def test_subgroup_system(self):
        g = FinAbGroup([32])
        H = GroupSet.from_indices(g, range(0, 32, 4))
        metric = birkhoff_metric(system_from_balls(constant_family(H), d=0.0))
        verdicts = sandwich_audit(metric)
        assert all(v.passed for v in verdicts)

    def test_interval_systems(self):
        for n, scale in ((64, 16.0), (128, 32.0), (256, 64.0), (200, 50.0)):
            g = FinAbGroup([n])
            metric = birkhoff_metric(system_from_balls(interval_family(g, scale), d=2.0))
            verdicts = sandwich_audit(metric)
            assert all(v.passed for v in verdicts), (n, [
                (v.delta, v.left_ok, v.right_ok) for v in verdicts if not v.passed])

    def test_top_level(self):
        g = FinAbGroup([64])
        metric = birkhoff_metric(system_from_balls(interval_family(g, 16.0), d=1.25))
        top = [v for v in verdicts_by_delta(metric) if v.delta == 2.0]
        assert top and top[0].right_ok

    def test_every_grid_radius_reported(self):
        g = FinAbGroup([64])
        system = system_from_balls(interval_family(g, 16.0), d=1.25)
        metric = birkhoff_metric(system)
        verdicts = sandwich_audit(metric)
        assert len(verdicts) == len(system.levels)


def verdicts_by_delta(metric):
    return sandwich_audit(metric)


class TestMetricBallDimension:
    def test_interval_ball_family_bounded_dimension(self):
        # the rho-ball family of an interval system stays within 2d + 2
        g = FinAbGroup([128])
        d = 2.0
        metric = birkhoff_metric(system_from_balls(interval_family(g, 32.0), d=d))
        fam = metric.ball
        grid = dyadic_dimension_grid(fam, 1.0)
        est = dimension_estimate(fam, grid)
        assert est.empirical_dim <= 2 * d + 2


class TestSubgroupGenerated:
    def test_cyclic_generator(self):
        g = FinAbGroup([32])
        H = subgroup_generated(g, [g.element(8)])
        assert sorted(H.indices()) == [0, 8, 16, 24]

    def test_two_generators(self):
        g = FinAbGroup([6, 4])
        H = subgroup_generated(g, [g.element((3, 0)), g.element((0, 2))])
        assert H.measure == 4
        assert g.element((3, 2)) in H


class TestIntervalFamily:
    def test_balls_floor_the_scaled_radius(self):
        g = FinAbGroup([64])
        family = interval_family(g, 16.0)
        assert family(1 / 3) == GroupSet.interval(g, 5)
        assert interval_family(g, 0.0)(1.0) == GroupSet.singleton(g, 0)

    @pytest.mark.parametrize("scale", [-3.0, math.inf, -math.inf, math.nan])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="needs a finite scale >= 0"):
            interval_family(FinAbGroup([64]), scale)

    def test_needs_a_cyclic_group(self):
        with pytest.raises(ValueError, match="cyclic"):
            interval_family(FinAbGroup([8, 8]), 2.0)
