import hashlib
import json
import math

import numpy as np
import pytest

import addcomb
from addcomb.bohr import bohr_distance_table
from addcomb.groups import FinAbGroup
from addcomb.pipeline import (FreimanConfig, FreimanRun, find_l, lowerbound_audit,
                              measured_growth_exponent, read_cap, run_freiman,
                              spectrum_cover)
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
        for eps in (0.6, 1.9):
            cover = spectrum_cover(FreimanRun(A), 2, eps)
            assert cover.escape
            assert cover.r is None
            assert cover.r_max < 2

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

    def test_explicit_k_must_dominate(self):
        A = interval(128, 3)
        with pytest.raises(ValueError):
            lowerbound_audit(FreimanRun(A), 2, 0.5, K=1.0)  # actual ratio 13/7 > 1

    @pytest.mark.parametrize("K", [math.inf, math.nan, -math.inf, True, "2"])
    def test_explicit_k_must_be_finite(self, K):
        # an infinite K made the radius infinite, so the audit passed vacuously
        with pytest.raises(ValueError, match="finite K"):
            lowerbound_audit(FreimanRun(interval(64, 2)), 2, 0.3, K=K)

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
        assert cfg.to_jsonable() == {
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
        assert rep.epsilon_retries == (0.5, 1.0, 2.0, 4.0, 8.0)
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
        assert float(table[AmA.mask].max()) <= rep.radius + 1e-9

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


# sha256 of dumps(report.to_jsonable()), recorded from the unsieved dense
# tables: (cycles, A, d, epsilon, digest), one instance per branch of the cap
SIEVE_DIGESTS = [
    # radius >= 1/2 (the escaping acceptance run): the grid reads down to 0.47
    ([256], 2, 1.0, 0.5,
     "8632c9c8f1749822bc61962eec9d6272171f2cf692e16f1f386e51155667bf93"),
    # 2^9 eps < 1/2 sets the cap
    ([4096], 2, 1.0, 0.0005,
     "522019e648b9f0399e75157f3bfc3dfdb203cb86bf956be4ff861d3a733029d4"),
    # rank 2
    ([64, 64], 2, 2.0, 0.001,
     "338b604af4e333f365cdfe031f0bfc79a1a6f354c296a3ab92fb09c7c11f5cf4"),
    # the dense-to-gather sieve on a large group
    ([2 ** 20], 16, 1.0, 0.05,
     "4e4256bbb7c55eb6ef7ed08b1573892018092a6f0b0175968fe54c9ea4838c6e"),
]


class TestSievedRun:
    @pytest.mark.parametrize("cycles,r,d,eps,digest", SIEVE_DIGESTS)
    def test_report_bytes_match_the_dense_tables(self, cycles, r, d, eps, digest):
        A = GroupSet.linf_ball(FinAbGroup(cycles), r)
        report = run_freiman(A, FreimanConfig(d=d, epsilon=eps))
        text = dumps(report.to_jsonable())
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_cap_is_the_largest_read_below_half(self):
        # the escaping run reads its grid at 3.79 * 2^-3 = 0.474
        assert read_cap(3.794733192202055, 0.5) == 3.794733192202055 / 8
        assert read_cap(0.0625, 0.0005) == 2 ** 9 * 0.0005  # 2^9 eps above 2 * radius
        assert read_cap(0.0625, 0.05) == 0.125                # 2 * radius
        assert read_cap(0.3, 0.05) == 0.3                     # 2 * radius >= 1/2
        assert read_cap(0.25, 0.5) == 0.25
        assert read_cap(1e-3, 1e-6) == 2 ** -4

    def test_every_read_of_a_run_lies_within_its_cap(self, record_calls):
        results = []
        record_calls(addcomb.bohr, "bohr_distance_table", results)
        report = run_freiman(interval(4096, 16), FreimanConfig(d=1.0, epsilon=0.05))
        cap = read_cap(report.radius, report.epsilon_used)
        assert cap < 0.5 and all(t.r_cap == cap for t in results)
        assert not np.isfinite(results[-1]).all()  # the sieve dropped elements
        for delta in report.dimension.grid:
            assert delta <= cap or delta >= 0.5
        with pytest.raises(ValueError, match="cap"):
            results[-1].ball((cap + 0.5) / 2)

    def test_the_cap_is_fixed_before_the_first_table(self):
        run = FreimanRun(interval(256, 2))
        run.sieve(0.1)
        run.bohr_table(GroupSet.from_indices(run.A.group, [0, 1, 255]))
        with pytest.raises(RuntimeError):
            run.sieve(0.2)


BOX_DIGESTS = [
    # recorded while every spectral sumset ran on all of G
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
        text = dumps(report.to_jsonable())
        assert hashlib.sha256(text.encode()).hexdigest() == digest

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

    def test_each_bohr_distance_row_once(self, record_calls):
        results = []
        tables = record_calls(addcomb.bohr, "bohr_distance_table", results)
        report = run_freiman(interval(4096, 16), FreimanConfig(d=1.0, epsilon=0.05))
        rows = np.concatenate([freqs.indices() for freqs, *_ in tables])
        assert len(np.unique(rows)) == len(rows), "a frequency row was computed twice"
        assert report.cover.spectrum_counts["2eps"] == len(rows)
        # the first row runs over all of G, later ones only where the sieve
        # left an element within the cap; unsieved, every row costs |G|
        assert sum(t.cells for t in results) < len(rows) * 4096 / 2

    def test_a_run_executes_the_public_stages(self, record_calls):
        stages = [(addcomb.pipeline, "find_l"), (addcomb.pipeline, "measured_growth_exponent"),
                  (addcomb.pipeline, "spectrum_cover"), (addcomb.pipeline, "lowerbound_audit"),
                  (addcomb.covering, "chang_cover"), (addcomb.sets, "growth_profile")]
        calls = {name: record_calls(module, name) for module, name in stages}
        run_freiman(interval(4096, 16), FreimanConfig(d=1.0, epsilon=0.05))
        assert all(calls.values()), {name: len(c) for name, c in calls.items()}

    def test_stages_given_one_run_transform_la_once(self, record_calls):
        transforms = record_calls(addcomb.fourier, "transform")
        run = FreimanRun(interval(4096, 16))
        cover = spectrum_cover(run, 2, 0.05)
        audit = lowerbound_audit(run, 2, 0.05)
        assert not cover.escape and audit.holds
        assert [f.mask.tobytes() for f, *_ in transforms] == [run.multiples[2].mask.tobytes()]

    @pytest.mark.parametrize("A,epsilon", [(interval(4096, 16), 0.05), (interval(256, 2), 0.5)])
    def test_each_spectrum_cut_once(self, record_calls, A, epsilon):
        cuts = record_calls(addcomb.pipeline, "cut_spectrum")
        report = run_freiman(A, FreimanConfig(d=1.0, epsilon=epsilon))
        keys = [(id(lA), delta) for lA, _, delta in cuts]
        assert len(set(keys)) == len(keys), "a spectrum was cut twice"
        # the Z_256 run escapes and retries, cutting again at the doubled eps
        assert len(report.epsilon_retries) == (1 if epsilon == 0.05 else 5)
