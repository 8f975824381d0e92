import hashlib
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

import addcomb
from conftest import CROSSOVERS
from addcomb.bohr import INCLUSION_SLACK, DistanceTable, bohr_distance_table
from addcomb.groups import FinAbGroup
from addcomb.oracles import phase_numerator_rows
from addcomb.pipeline import (FreimanConfig, FreimanRun, chain_cap, find_l,
                              lowerbound_audit, measured_growth_exponent, read_cap,
                              run_freiman, spectrum_cover)
from addcomb.serialize import dumps
from addcomb.sets import GroupSet, Multiples, difference, iterate, prog, sumset
from addcomb.spectrum import lspec


def interval(n, r):
    return GroupSet.interval(FinAbGroup([n]), r)


class TestFindL:
    def test_subgroup_no_growth(self):
        g = FinAbGroup([64])
        H = GroupSet.from_indices(g, range(0, 64, 8))
        found = find_l(Multiples(H), d=1.0)
        assert found.l == 2
        assert found.K_l == 1.0

    def test_interval_example(self):
        found = find_l(Multiples(interval(256, 1)), d=1.0)
        assert found.window == (2, 4)
        assert found.l == 2
        assert found.K_l == pytest.approx(5 / 3)

    def test_d2_window(self):
        found = find_l(Multiples(interval(256, 1)), d=2.0)
        assert found.window == (2, max(4, math.ceil(4 * math.log(2))))
        assert found.l == 2

    def test_not_found_with_tight_bound(self):
        # every ratio above 1 fails once the bound is 1.0
        found = find_l(Multiples(interval(256, 2)), d=1.0, ratio_bound=1.0)
        assert found is None

    def test_saturated_levels_qualify(self):
        g = FinAbGroup([16])
        A = GroupSet.interval(g, 5)  # 2A is everything
        found = find_l(Multiples(A), d=1.0, ratio_bound=1.5)
        assert found is not None  # ratio hits 1 after saturation

    @pytest.mark.parametrize("d", [math.inf, math.nan, 0.0, -1.0, True, "1"])
    def test_rejects_d_outside_the_papers_range(self, d):
        with pytest.raises(ValueError, match="finite d > 0"):
            find_l(Multiples(interval(256, 1)), d)


class TestMeasuredGrowthExponent:
    def test_interval_close_to_one(self):
        A = interval(256, 4)
        d = measured_growth_exponent(Multiples(A), 1, 4)
        assert 0.8 <= d <= 1.0

    def test_constant_set_is_zero(self):
        g = FinAbGroup([32])
        H = GroupSet.from_indices(g, range(0, 32, 4))
        assert measured_growth_exponent(Multiples(H), 1, 4) == 0.0

    @pytest.mark.parametrize("n_max", [1, 0, True, 2.0])
    def test_rejects_a_window_without_growth(self, n_max):
        with pytest.raises(ValueError, match="integer n_max >= 2"):
            measured_growth_exponent(Multiples(interval(256, 4)), 1, n_max)


class TestSpectrumCover:
    def test_saturated_spectra_give_empty_cover(self):
        g = FinAbGroup([32])
        A = GroupSet.singleton(g, 0)
        cover = spectrum_cover(FreimanRun(A), 2, 0.1)
        assert not cover.escape
        assert cover.X == ()
        assert cover.form_sum_ok and cover.form_chang_ok

    def test_nontrivial_cover_instance(self):
        # frozen: r = 5 qualifies (23 < 2^5), the dual greedy picks {1, 2}
        A = interval(256, 2)
        cover = spectrum_cover(FreimanRun(A), 2, 0.09)
        assert not cover.escape
        assert cover.r == 5
        assert sorted(int(x.index) for x in cover.X) == [1, 2]
        assert cover.certificate.containment_verified
        assert cover.certificate.size_bound_verified
        # independent exhaustive check of the summed form in the dual
        g = A.group
        S1 = lspec(iterate(2, A), 0.09).members
        lhs = sumset(S1, S1)
        rhs = sumset(prog(list(cover.X), 1, group=g), S1)
        assert lhs.is_subset_of(rhs) == cover.form_sum_ok is True

    def test_x_lands_in_wider_spectrum(self):
        A = interval(256, 2)
        cover = spectrum_cover(FreimanRun(A), 2, 0.09)
        S2 = lspec(iterate(2, A), 0.18).members
        for x in cover.X:
            assert x in S2

    def test_escape_branch_when_epsilon_large(self):
        # (2r + 1/2) eps <= 1 admits no r >= 2 once eps > 2/9
        A = interval(64, 2)
        for eps in (0.25, 0.5):
            cover = spectrum_cover(FreimanRun(A), 2, eps)
            assert cover.escape
            assert cover.r is None
            assert cover.r_max < 2
        # past 1/2, the paper's range, epsilon is rejected where it is called
        for eps in (0.6, 1.9):
            with pytest.raises(ValueError, match="epsilon"):
                spectrum_cover(FreimanRun(A), 2, eps)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            spectrum_cover(FreimanRun(interval(16, 1)), 2, 0.0)


class TestLowerboundAudit:
    def test_subgroup(self):
        g = FinAbGroup([64])
        H = GroupSet.from_indices(g, range(0, 64, 8))
        assert lowerbound_audit(FreimanRun(H), 2, 0.3).holds

    def test_interval_z128(self):
        audit = lowerbound_audit(FreimanRun(interval(128, 3)), 2, 0.25)
        assert audit.holds
        assert audit.K == pytest.approx(13 / 7)

    def test_saturated_radius_trivial(self):
        audit = lowerbound_audit(FreimanRun(interval(128, 3)), 2, 1.0)
        assert audit.radius >= 0.5
        assert audit.holds

    def test_random_instances(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            n = int(rng.integers(16, 512))
            g = FinAbGroup([n])
            mask = rng.random(n) < rng.uniform(0.02, 0.3)
            mask[int(rng.integers(0, n))] = True
            A = GroupSet(g, mask)
            l = int(rng.integers(2, 4))
            eps = float(rng.uniform(0.05, 1.0))
            assert lowerbound_audit(FreimanRun(A), l, eps).holds


class TestFreimanConfig:
    def test_paper_mode_forbids_overrides(self):
        with pytest.raises(ValueError):
            FreimanConfig(d=1.0, mode="paper", epsilon=0.5)
        with pytest.raises(ValueError):
            FreimanConfig(d=1.0, mode="paper", l=2)
        FreimanConfig(d=1.0, mode="paper")

    def test_empirical_requires_epsilon(self):
        with pytest.raises(ValueError):
            FreimanConfig(d=1.0, mode="empirical")
        FreimanConfig(d=1.0, mode="empirical", epsilon=0.5)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FreimanConfig(d=0.0, mode="empirical", epsilon=0.5)
        with pytest.raises(ValueError):
            FreimanConfig(d=1.0, mode="bogus", epsilon=0.5)
        with pytest.raises(ValueError):
            FreimanConfig(d=1.0, mode="empirical", epsilon=0.5, l=1)

    @pytest.mark.parametrize("field,value", [
        ("d", math.nan), ("d", math.inf), ("d", -1.0), ("d", True), ("d", "1"),
        ("epsilon", math.inf), ("epsilon", 0.0), ("epsilon", math.nan),
        ("epsilon", 0.5000001), ("epsilon", 3.0),
        ("radius", -1.0), ("radius", 0.0), ("radius", math.inf),
        ("ratio_bound", None), ("ratio_bound", 0.5), ("ratio_bound", math.inf),
        ("C", "a"), ("C", -0.5), ("C", None), ("C", math.nan),
        ("l", 2.0), ("l", True), ("max_retries", -3), ("max_retries", "x"),
        ("max_retries", None), ("n_max", 2.5), ("n_max", 1),
        ("dim_grid_cap", -1), ("dim_grid_cap", "abc"), ("dim_grid_cap", False),
    ])
    def test_rejects_out_of_range_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            FreimanConfig(**{"d": 1.0, "epsilon": 0.5, field: value})

    def test_accepts_range_edges_without_coercion(self):
        cfg = FreimanConfig(d=1, epsilon=0.5, radius=0.1, l=2, ratio_bound=1,
                            C=0, max_retries=0, n_max=2, dim_grid_cap=0)
        assert asdict(cfg) == {
            "d": 1, "mode": "empirical", "epsilon": 0.5, "l": 2, "radius": 0.1,
            "ratio_bound": 1, "C": 0, "max_retries": 0, "n_max": 2, "dim_grid_cap": 0}
        assert type(cfg.d) is int and type(cfg.ratio_bound) is int


class TestRunFreiman:
    def test_subgroup_fixed_point(self):
        g = FinAbGroup([64])
        H = GroupSet.from_indices(g, range(0, 64, 8))
        rep = run_freiman(H, FreimanConfig(d=1.0, mode="empirical", epsilon=0.01))
        assert rep.containment
        assert rep.dimension.empirical_dim == 0.0
        assert rep.measure_ratio >= 1.0
        assert rep.ball.members == H

    def test_z256_regression_values(self):
        # frozen end-to-end run: the acceptance instance
        A = interval(256, 2)
        rep = run_freiman(A, FreimanConfig(d=1.0, mode="empirical", epsilon=0.5))
        assert rep.l == 2
        assert rep.K_l == pytest.approx(1.8)
        assert rep.escape_flagged  # r-candidates are capped out at eps = 0.5
        assert rep.epsilon_retries == (0.5,)  # no retry doubles eps past 1/2
        assert rep.epsilon_used == 0.5
        assert rep.spectrum.count == 11
        assert rep.radius == pytest.approx(4 * 0.5 * math.sqrt(2 * 1.8))
        assert rep.containment
        assert rep.ball.measure == 256
        assert rep.measure_ratio == pytest.approx(51.2)
        assert rep.dimension.empirical_dim == pytest.approx(2.992768430768924)
        assert rep.hypothesis_ok
        # measured exponent of lA = {-4..4}: max_n ln(mu(n lA)/9)/ln n, n <= 4
        assert rep.d_prime == pytest.approx(math.log(33 / 9) / math.log(4))

    def test_z256_containment_via_direct_membership(self):
        A = interval(256, 2)
        rep = run_freiman(A, FreimanConfig(d=1.0, mode="empirical", epsilon=0.5))
        AmA = difference(A, A)
        table = bohr_distance_table(rep.ball.frequencies)
        assert float(table.distances()[AmA.mask].max()) <= rep.radius + 1e-9

    def test_deterministic_reports(self):
        A = interval(256, 2)
        cfg = FreimanConfig(d=1.0, mode="empirical", epsilon=0.5)
        t1 = dumps(run_freiman(A, cfg).to_jsonable())
        t2 = dumps(run_freiman(A, cfg).to_jsonable())
        assert t1 == t2

    def test_paper_mode_degenerates_at_desk_scale(self):
        A = interval(256, 2)
        rep = run_freiman(A, FreimanConfig(d=1.0, mode="paper"))
        assert rep.degenerate
        assert rep.spectrum.count == 1  # threshold collapsed to the trivial character
        assert rep.containment          # B is everything
        assert rep.radius == 2.0 ** -4

    def test_hypothesis_failure_flagged_but_run_continues(self):
        g = FinAbGroup([256])
        A = GroupSet.from_indices(g, [0, 1, 17, 40, 77])
        rep = run_freiman(A, FreimanConfig(d=0.3, mode="empirical", epsilon=0.5))
        assert not rep.hypothesis_ok
        assert rep.containment  # the widened radius still guarantees it

    def test_cover_lands_in_wider_spectrum(self):
        rep = run_freiman(interval(64, 1),
                          FreimanConfig(d=1.0, mode="empirical", epsilon=0.2))
        if not rep.escape_flagged:
            wide = lspec(iterate(rep.l, interval(64, 1)), 2 * rep.epsilon_used).members
            assert rep.ball.frequencies.is_subset_of(wide)

    def test_l_override(self):
        A = interval(256, 2)
        rep = run_freiman(A, FreimanConfig(d=1.0, mode="empirical", epsilon=0.5, l=3))
        assert rep.l == 3
        assert rep.K_l == pytest.approx(13 / 9)  # mu(3A)/mu(2A)

    def test_radius_override(self):
        A = interval(256, 2)
        rep = run_freiman(A, FreimanConfig(d=1.0, mode="empirical", epsilon=0.5,
                                           radius=0.0625))
        assert rep.radius == 0.0625
        assert not rep.containment  # the unwidened 2^-4 radius is too small here

    def test_chain_link_applicability(self):
        A = interval(256, 2)
        rep = run_freiman(A, FreimanConfig(d=1.0, mode="empirical", epsilon=0.5))
        link1, link2, link3 = rep.chain
        assert link1.applicable and link1.holds   # K_l well below 2^13
        assert not link2.applicable               # 2^9 eps is way above 2^-4
        assert link3.applicable and link3.holds

    def test_report_serialization_shape(self):
        A = interval(256, 2)
        rep = run_freiman(A, FreimanConfig(d=1.0, mode="empirical", epsilon=0.5))
        payload = json.loads(dumps(rep.to_jsonable()))
        for key in ("containment", "empirical_dim", "measure_ratio", "chain",
                    "lowerbound_audit", "growth_profile", "cover", "d_prime"):
            assert key in payload
        assert payload["lowerbound_audit"]["holds"] is True


def report_digest(report) -> str:
    """sha256 of dumps(report.to_jsonable()) without the vacuous flag, which
    the report gained after these digests were recorded; the flag itself
    is checked against its rule."""
    payload = report.to_jsonable()
    vacuous = payload.pop("vacuous")
    assert vacuous == (report.ball.measure == report.ball.members.group.order
                       or report.radius >= 0.5)
    return hashlib.sha256(dumps(payload).encode()).hexdigest()


# report_digest, recorded from the unsieved dense tables: (cycles, A, d,
# epsilon, digest), one instance per branch of the cap
SIEVE_DIGESTS = [
    # radius >= 1/2 (the escaping acceptance run): the grid reads down to 0.47;
    # re-recorded when its retries stopped at eps = 1/2 (epsilon_retries [0.5])
    ([256], 2, 1.0, 0.5,
     "9cafe7bd0a7eb23f401fe878c1113107b6eba2562db118fe20e7b89799758f32"),
    # 2^9 eps < 1/2 sets the cap
    ([4096], 2, 1.0, 0.0005,
     "522019e648b9f0399e75157f3bfc3dfdb203cb86bf956be4ff861d3a733029d4"),
    # rank 2
    ([64, 64], 2, 2.0, 0.001,
     "338b604af4e333f365cdfe031f0bfc79a1a6f354c296a3ab92fb09c7c11f5cf4"),
    # the dense-to-gather sieve on a large group
    ([2 ** 20], 16, 1.0, 0.05,
     "4e4256bbb7c55eb6ef7ed08b1573892018092a6f0b0175968fe54c9ea4838c6e"),
    # the group order cap, recorded while every table of a run had one cap
    ([2 ** 22], 16, 1.0, 0.05,
     "79858a58bf393e0e843f18d7ad3da677304d6849c5b2225f54fbc89889acc3cb"),
]


class TestSievedRun:
    @pytest.mark.parametrize("cycles,r,d,eps,digest", SIEVE_DIGESTS)
    def test_report_bytes_match_the_dense_tables(self, cycles, r, d, eps, digest):
        A = GroupSet.linf_ball(FinAbGroup(cycles), r)
        report = run_freiman(A, FreimanConfig(d=d, epsilon=eps))
        assert report_digest(report) == digest

    def test_cap_is_the_largest_read_below_half(self):
        # the escaping run reads its grid at 3.79 * 2^-3 = 0.474
        assert read_cap(3.794733192202055, 0.5) == 3.794733192202055 / 8
        assert read_cap(0.0625, 0.0005) == 2 ** 9 * 0.0005  # 2^9 eps above 2 * radius
        assert read_cap(0.0625, 0.05) == 0.125                # 2 * radius
        assert read_cap(0.3, 0.05) == 0.3                     # 2 * radius >= 1/2
        assert read_cap(0.25, 0.5) == 0.25
        assert read_cap(1e-3, 1e-6) == 2 ** -4

    def test_every_read_of_a_run_lies_within_its_cap(self, record_calls, monkeypatch):
        # every read lies within the cap of the table it reads, or at 1/2 and above
        results, reads = [], []
        record_calls(addcomb.bohr, "bohr_distance_table", results)
        for name in ("ball", "measure"):
            method = getattr(DistanceTable, name)
            monkeypatch.setattr(DistanceTable, name, lambda table, radius, method=method: (
                reads.append((table, radius)) or method(table, radius)))
        report = run_freiman(interval(2 ** 14, 16), FreimanConfig(d=1.0, epsilon=0.05))
        eps = report.epsilon_used
        # three tables: the spectrum's (its rows ran over all of G here, so it
        # states cap 1/2), the ball's at read_cap and the chain's at its own
        # cap; the audit builds none
        cap = read_cap(report.radius, eps)
        caps = [t.r_cap for t in results]
        assert caps == [0.5, cap, chain_cap(eps)] and max(caps[1:]) < 0.5
        assert [t.at is None for t in results] == [True, False, False]
        assert not np.isfinite(results[-1].distances()).all()  # the sieve dropped elements
        # the audit reads A - A alone; the ball, the grid and the chain read balls
        assert {id(t) for t, _ in reads} == {id(t) for t in results[1:]}
        for table, radius in reads:
            assert radius <= table.r_cap or radius >= 0.5
        for delta in report.dimension.grid:
            assert delta <= cap or delta >= 0.5
        with pytest.raises(ValueError, match="cap"):
            results[-1].ball((caps[-1] + 0.5) / 2)

    def test_each_table_is_built_on_the_one_before(self, record_calls, monkeypatch):
        # the spectrum's table, the ball's on it and the chain's on the
        # ball's; the audit and chain link 1 read A - A off no table
        results, served = [], []
        record_calls(addcomb.bohr, "bohr_distance_table", results)
        worst = record_calls(addcomb.bohr, "worst_distance")
        bohr_table = FreimanRun.bohr_table
        monkeypatch.setattr(FreimanRun, "bohr_table", staticmethod(
            lambda freqs, r_cap, base=None: served.append((freqs, r_cap, base))
            or bohr_table(freqs, r_cap, base)))
        A = interval(2 ** 14, 16)
        report = run_freiman(A, FreimanConfig(d=1.0, epsilon=0.05))
        eps = report.epsilon_used
        cap = read_cap(report.radius, eps)
        spec2 = lspec(iterate(report.l, A), 2 * eps).members
        assert [(freqs, r_cap) for freqs, r_cap, _ in served] == [
            (report.spectrum.members, cap), (report.ball.frequencies, cap),
            (spec2, chain_cap(eps))]
        assert len(results) == 3
        assert [base for *_, base in served] == [None, results[0], results[1]]
        AmA = difference(A, A)
        assert worst == [(report.spectrum.members, AmA), (spec2, AmA)]

    def test_each_table_holds_exactly_the_elements_within_its_cap(self, record_calls):
        # a sieved table of a run holds {x : dist(x) <= r_cap}, and no more:
        # with the radius 2^-4, the Z_256 run's A - A lies past the chain's cap
        results = []
        record_calls(addcomb.bohr, "bohr_distance_table", results)
        rank3 = GroupSet.from_coords(FinAbGroup([256, 8, 8]),
                                     [(x, y, 0) for x in range(-2, 3) for y in (0, 1)])
        runs = [(interval(2 ** 14, 16), 1.0, 0.05, None), (interval(4096, 2), 1.0, 0.02, None),
                (rank3, 1.0, 0.05, None), (interval(256, 2), 1.0, 0.5, 2 ** -4)]
        for A, d, eps, radius in runs:
            results.clear()
            run_freiman(A, FreimanConfig(d=d, epsilon=eps, radius=radius))
            assert any(t.at is not None for t in results)
            for table in results:
                g, M = table.group, table.group.phase_denominator
                num = phase_numerator_rows(g, sorted(table.covers))
                dist = np.minimum(num, M - num).max(axis=0, initial=0) / M
                held = (np.ones(g.order, dtype=bool) if table.at is None
                        else dist <= table.r_cap + INCLUSION_SLACK)
                view = table.distances()
                assert np.array_equal(np.isfinite(view), held)
                assert np.array_equal(view[held], dist[held])

    def test_an_audit_builds_no_table(self, record_calls):
        # the audit reads A - A alone, by worst_distance
        calls = record_calls(addcomb.bohr, "bohr_distance_table")
        run = FreimanRun(interval(512, 5))
        audit = lowerbound_audit(run, 2, 0.1)
        assert audit.holds and not calls
        assert lowerbound_audit(run, 2, 0.1) == audit
        dense = bohr_distance_table(run.spectrum(2, 0.1).members)
        assert audit.max_distance == dense.distances()[run.difference().mask].max()

    def test_a_base_needs_a_cap_at_or_above_the_table(self, monkeypatch):
        calls, table = [], addcomb.bohr.bohr_distance_table
        monkeypatch.setattr(addcomb.bohr, "bohr_distance_table", lambda freqs, *args, base=None: (
            calls.append((freqs, base)) or table(freqs, *args, base=base)))
        g = FinAbGroup([256])
        low = FreimanRun.bohr_table(GroupSet.from_indices(g, [0, 1, 255]), 0.1)
        high = FreimanRun.bohr_table(GroupSet.from_indices(g, [0, 1, 3, 253, 255]), 0.2)
        # the table at 0.1 cannot serve as the base of a table at 0.2
        with pytest.raises(ValueError, match="base"):
            FreimanRun.bohr_table(GroupSet.from_indices(g, [0, 1, 3, 253, 255]), 0.2, low)
        # the one at 0.2 serves one at 0.05: only the frequencies it does not
        # cover get rows
        freqs = GroupSet.from_indices(g, [0, 1, 3, 7, 249, 253, 255])
        lower = FreimanRun.bohr_table(freqs, 0.05, high)
        assert [base for _, base in calls] == [None, None, low, high] and low.r_cap == 0.1
        assert calls[-1][0] == GroupSet.from_indices(g, [7, 249])
        fresh = table(freqs, 0.05)
        assert np.array_equal(lower.distances(), fresh.distances())


BOX_DIGESTS = [
    # report_digest, recorded while every spectral sumset ran on all of G
    ([2 ** 16], 512, 1.0, 0.05,
     "390202c4a6151bf0bd0408f2054849bda1caa91b2822df49f9fdf08c68cfef54"),
    ([256, 256], 8, 2.0, 0.05,
     "05b76a6f6d17a4f13a143784195428a3ca93965f5952b0ea914fad3981e8d48f"),
]


class TestLocalizedRun:
    @pytest.mark.parametrize("cycles,r,d,eps,digest", BOX_DIGESTS)
    def test_report_bytes_match_the_full_grid(self, cycles, r, d, eps, digest):
        A = GroupSet.linf_ball(FinAbGroup(cycles), r)
        report = run_freiman(A, FreimanConfig(d=d, epsilon=eps))
        assert report_digest(report) == digest

    def test_multiples_transform_their_box_not_the_group(self, monkeypatch):
        sizes, rfftn = [], np.fft.rfftn
        monkeypatch.setattr(np.fft, "rfftn", lambda a, *args, **kwargs: (
            sizes.append(np.size(a)) or rfftn(a, *args, **kwargs)))
        A = interval(2 ** 18, 2048)
        multiples = Multiples(A)
        for n in range(2, 9):
            assert multiples[n] == interval(2 ** 18, 2048 * n)
        # the widest sum, 4A + 4A, adds two arcs of 16385 points
        assert sizes and max(sizes) <= 2 ** 16


# (A, d, epsilon, escapes): rank 1-3, orders 2^14 - 2^16, each admitting a zoom
GRID_RUNS = [
    (interval(2 ** 14, 16), 1.0, 0.05, False),
    (interval(2 ** 16, 16), 1.0, 0.02, False),
    (GroupSet.linf_ball(FinAbGroup([128, 128]), 1), 2.0, 0.03, False),
    (GroupSet.from_coords(FinAbGroup([256, 8, 8]),
                          [(x, y, 0) for x in range(-2, 3) for y in (0, 1)]), 1.0, 0.05, False),
    (GroupSet.from_coords(FinAbGroup([64, 32, 32]),
                          [(x, 0, z) for x in range(-1, 2) for z in range(-1, 2)]), 2.0, 0.02,
     False),
    # escapes at eps = 1/2, where no retry runs
    (interval(2 ** 14, 2), 1.0, 0.5, True),
]


class TestSpectrumGrid:
    @pytest.mark.parametrize("A,d,eps,escapes", GRID_RUNS)
    def test_report_bytes_are_the_same_on_both_grids(self, record_calls, forced,
                                                      A, d, eps, escapes):
        indices, texts = [], {}
        record_calls(addcomb.pipeline, "spectrum_index", indices)
        cycles = A.group.invariants
        for grid in ("full", "zoom"):
            indices.clear()
            with forced(grid=grid):
                report = run_freiman(A, FreimanConfig(d=d, epsilon=eps))
            texts[grid] = dumps(report.to_jsonable())
            grids = [index.grid for index in indices]
            assert report.escape_flagged == escapes
            # one index of lA; the zoom ran where forced
            assert len(grids) == 1
            assert grids[0] == cycles if grid == "full" else grids[0] != cycles
        assert texts["full"] == texts["zoom"]


def crossed(names):
    """(name, side) for every side of each named crossover of CROSSOVERS."""
    return [(name, side) for name in names for side in CROSSOVERS[name][1]]


class TestBohrKernelConstants:
    @pytest.mark.parametrize("A,d,eps,escapes", GRID_RUNS)
    def test_report_bytes_are_the_same_under_every_kernel_constant(
            self, record_calls, forced, A, d, eps, escapes):
        tables = []
        record_calls(addcomb.bohr, "bohr_distance_table", tables)
        config = FreimanConfig(d=d, epsilon=eps)
        text = dumps(run_freiman(A, config).to_jsonable())
        for name, side in crossed(("gather", "stop", "block")):
            tables.clear()
            with forced(**{name: side}):
                assert dumps(run_freiman(A, config).to_jsonable()) == text, (name, side)
            if (name, side) == ("gather", "never"):
                assert all(t.at is None for t in tables)


class TestCrossovers:
    @pytest.mark.parametrize("A,d,eps,escapes", GRID_RUNS)
    def test_report_bytes_are_the_same_on_either_side(self, forced, A, d, eps, escapes):
        # the sumset route and the set form (mask or sorted indices) of every
        # GroupSet of the run, each forced to either side
        config = FreimanConfig(d=d, epsilon=eps)
        text = dumps(run_freiman(A, config).to_jsonable())
        for name, side in crossed(("route", "index")):
            with forced(**{name: side}):
                assert dumps(run_freiman(A, config).to_jsonable()) == text, (name, side)


class TestRunReuse:
    def test_each_sumset_and_transform_once(self, record_calls):
        A = interval(4096, 16)
        sums = record_calls(addcomb.sets, "sumset")
        transforms = record_calls(addcomb.fourier, "transform")
        report = run_freiman(A, FreimanConfig(d=1.0, epsilon=0.05))
        assert not report.cover.escape  # the cover and its sumsets ran
        pairs = [tuple(sorted((X.mask.tobytes(), Y.mask.tobytes()))) for X, Y, *_ in sums]
        assert len(pairs) > 10
        assert len(set(pairs)) == len(pairs), "an operand pair was summed twice"
        sets_transformed = [f.mask.tobytes() for f, *_ in transforms]
        assert len(set(sets_transformed)) == len(sets_transformed) == 1

    def test_each_bohr_distance_row_once(self, record_calls, monkeypatch):
        results = []
        tables = record_calls(addcomb.bohr, "bohr_distance_table", results)
        worst = record_calls(addcomb.bohr, "worst_distance")
        # every phase row a table reads is built here, as digit tables for a
        # pass over G or as direct phases at survivors, each tagged with
        # whether a table or A - A's worst distance evaluated it
        phases, inside = [], []
        digit_rows, direct_sums = addcomb.bohr._digit_rows, addcomb.bohr._direct_sums
        table = addcomb.bohr.bohr_distance_table

        def in_table(*args, **kwargs):
            inside.append(True)
            try:
                return table(*args, **kwargs)
            finally:
                inside.pop()

        def built(g, mc, *rest):
            phases.append((bool(inside), g.encode_array(mc)))
            return digit_rows(g, mc, *rest)

        def direct(g, mc, start, stop, *rest):
            phases.append((bool(inside), g.encode_array(mc[:, start:stop])))
            return direct_sums(g, mc, start, stop, *rest)

        monkeypatch.setattr(addcomb.bohr, "bohr_distance_table", in_table)
        monkeypatch.setattr(addcomb.bohr, "_digit_rows", built)
        monkeypatch.setattr(addcomb.bohr, "_direct_sums", direct)
        report = run_freiman(interval(4096, 16), FreimanConfig(d=1.0, epsilon=0.05))
        rows = np.concatenate([freqs.indices() for freqs, *_ in tables])
        assert len(np.unique(rows)) == len(rows), "a frequency row was computed twice"
        assert report.cover.spectrum_counts["2eps"] == len(rows)
        g = report.spectrum.members.group
        spec2 = GroupSet.from_indices(g, rows.tolist())
        by_tables = np.concatenate([p for t, p in phases if t])
        assert len(np.unique(by_tables)) == len(by_tables), "a phase row was built twice"
        assert len(by_tables) == addcomb.bohr._rows(spec2).shape[1]
        # one more evaluation, at A - A alone: LSpec(lA, eps) for the audit and
        # LSpec(lA, 2 eps) for chain link 1, each row once
        assert [freqs for freqs, _ in worst] == [report.spectrum.members, spec2]
        at_difference = np.concatenate([p for t, p in phases if not t])
        assert sorted(at_difference.tolist()) == sorted(
            np.concatenate([g.encode_array(addcomb.bohr._rows(freqs))
                            for freqs, _ in worst]).tolist())
        # the first row runs over all of G, later ones only where the sieve
        # left an element within the cap; unsieved, every row costs |G|
        assert sum(t.cells for t in results) < len(rows) * 4096 / 2

    @pytest.mark.parametrize("A,epsilon", [(interval(4096, 16), 0.05), (interval(256, 2), 0.5)])
    def test_each_dimension_radius_is_counted_once(self, monkeypatch, A, epsilon):
        counts, measure = [], DistanceTable.measure

        def recording(table, radius):
            out = measure(table, radius)
            counts.append((radius, out, table.ball(radius).measure))
            return out

        monkeypatch.setattr(DistanceTable, "measure", recording)
        report = run_freiman(A, FreimanConfig(d=1.0, epsilon=epsilon))
        radii = [r for r, _, _ in counts]
        assert len(set(radii)) == len(radii), "a radius was counted twice"
        assert all(m == b for _, m, b in counts)
        # the grid, its doubles and the level below the grid that stopped it
        grid = report.dimension.grid + report.dimension.excluded
        assert len(radii) <= len(grid) + 2
        read = {r: m for r, m, _ in counts}
        for delta, m1, m2 in report.dimension.measures:
            assert (read[delta], read[2 * delta]) == (m1, m2)

    def test_a_run_executes_the_public_stages(self, record_calls):
        stages = [(addcomb.pipeline, "find_l"), (addcomb.pipeline, "measured_growth_exponent"),
                  (addcomb.pipeline, "spectrum_cover"), (addcomb.pipeline, "lowerbound_audit"),
                  (addcomb.covering, "chang_cover"), (addcomb.sets, "growth_profile")]
        calls = {name: record_calls(module, name) for module, name in stages}
        run_freiman(interval(4096, 16), FreimanConfig(d=1.0, epsilon=0.05))
        assert all(calls.values()), {name: len(c) for name, c in calls.items()}

    def test_stages_given_one_run_transform_la_once(self, record_calls, forced):
        # one index of lA serves every stage, from one transform: of lA over
        # G, or of its crop over the zoom's coarse grid
        transforms = record_calls(addcomb.fourier, "transform")
        indices = record_calls(addcomb.pipeline, "spectrum_index")
        for grid in ("full", "zoom"):
            transforms.clear()
            indices.clear()
            with forced(grid=grid):
                run = FreimanRun(interval(2 ** 14, 16))
                cover = spectrum_cover(run, 2, 0.05)
                audit = lowerbound_audit(run, 2, 0.05)
            assert not cover.escape and audit.holds
            assert indices == [(run.multiples[2], 1.0)]
            assert len(transforms) == 1
            if grid == "full":
                assert transforms[0] == (run.multiples[2],)
            else:
                assert transforms[0][1].order < 2 ** 14

    @pytest.mark.parametrize("A,epsilon", [(interval(4096, 16), 0.05), (interval(256, 2), 0.5),
                                           (interval(256, 2), 0.125)])
    def test_each_spectrum_cut_once(self, record_calls, A, epsilon):
        cuts = record_calls(addcomb.pipeline, "cut_spectrum")
        indices = record_calls(addcomb.pipeline, "spectrum_index")
        report = run_freiman(A, FreimanConfig(d=1.0, epsilon=epsilon))
        keys = [(id(index.source), delta) for index, delta in cuts]
        assert len(set(keys)) == len(keys), "a spectrum was cut twice"
        # the Z_256 runs escape; at eps = 1/2 nothing is retried, from 0.125
        # the retries cut again at 0.25 and 0.5, and every cut lies at delta <= 1
        assert report.epsilon_retries == {0.05: (0.05,), 0.5: (0.5,),
                                          0.125: (0.125, 0.25, 0.5)}[epsilon]
        # one index of lA, at delta = 1, serves every cut
        assert indices == [(Multiples(A)[report.l], 1.0)]
