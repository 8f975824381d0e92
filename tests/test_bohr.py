import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import addcomb.sets
from addcomb import bohr, verify
from addcomb.bohr import (INCLUSION_SLACK, bohr_distance_table, bohr_family, bohr_set,
                          dimension_estimate, dyadic_dimension_grid,
                          nearest_int_dist, nested_bohr_audit, rounding_check,
                          table_family)
from addcomb.groups import FinAbGroup
from addcomb.oracles import bohr_distance, phase_numerators
from addcomb.sets import GroupSet, Multiples, negate, sumset


def freq_set(g, *indices):
    return GroupSet.from_indices(g, indices)


class TestBohrSet:
    def test_trivial_character_constrains_nothing(self):
        g = FinAbGroup([16])
        assert bohr_set(freq_set(g, 0), 0.01).members == GroupSet.full(g)

    def test_single_frequency_interval(self):
        # oracle: min(x, 16-x)/16 <= 1/8 picks {0, 1, 2, 14, 15}
        g = FinAbGroup([16])
        B = bohr_set(freq_set(g, 1), 1 / 8)
        assert sorted(B.members.indices()) == [0, 1, 2, 14, 15]

    def test_radius_half_gives_everything(self):
        g = FinAbGroup([12])
        assert bohr_set(freq_set(g, 1, 5), 0.5).members == GroupSet.full(g)

    def test_empty_frequency_set(self):
        g = FinAbGroup([9])
        assert bohr_set(GroupSet.empty(g), 0.0).members == GroupSet.full(g)

    def test_contains_zero_and_symmetric(self):
        g = FinAbGroup([15, 4])
        B = bohr_set(freq_set(g, 7, 33), 0.13)
        assert B.members.contains_zero()
        assert B.members.is_symmetric()

    def test_ball_metric_consistency(self):
        rng = np.random.default_rng(3)
        g = FinAbGroup([36])
        freqs = freq_set(g, 1, 7, 10)
        delta = 0.22
        B = bohr_set(freqs, delta)
        by_metric = {
            x for x in range(36)
            if bohr_distance(g.element(x), g.zero, freqs) <= delta + 1e-9
        }
        assert set(B.members.indices()) == by_metric

    def test_subadditivity(self):
        g = FinAbGroup([64])
        freqs = freq_set(g, 1, 9)
        lhs = sumset(bohr_set(freqs, 0.05).members, bohr_set(freqs, 0.08).members)
        assert lhs.is_subset_of(bohr_set(freqs, 0.13).members)

    def test_monotone_in_frequencies(self):
        g = FinAbGroup([50])
        small = freq_set(g, 1)
        big = freq_set(g, 1, 3)
        assert bohr_set(big, 0.1).members.is_subset_of(bohr_set(small, 0.1).members)

    def test_rejects_negative_radius(self):
        g = FinAbGroup([8])
        with pytest.raises(ValueError):
            bohr_set(freq_set(g, 1), -0.5)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_radius_before_the_table(self, monkeypatch, delta):
        def no_table(freqs):
            raise AssertionError("distance table built for a bad radius")

        monkeypatch.setattr(bohr, "bohr_distance_table", no_table)
        g = FinAbGroup([8])
        with pytest.raises(ValueError, match="delta"):
            bohr_set(freq_set(g, 1), delta)


def oracle_numerators(freqs):
    """max over freqs of min(num, M - num), one oracle phase row per frequency."""
    g = freqs.group
    M = g.phase_denominator
    best = np.zeros(g.order, dtype=np.int64)
    for m in freqs.indices():
        num = phase_numerators(g, int(m))
        best = np.maximum(best, np.minimum(num, M - num))
    return best


def oracle_table(freqs):
    return oracle_numerators(freqs) / freqs.group.phase_denominator


def assert_matches_oracle(freqs):
    table, expected = bohr_distance_table(freqs), oracle_table(freqs)
    assert table.dtype == expected.dtype
    assert np.array_equal(table, expected)


# prime, square and non-square cycle lengths; 35 = 6*6 - 1 and 63 = 8*8 - 1
# leave one padded digit cell to cut off
CYCLES = [2, 3, 5, 7, 13, 31, 4, 9, 16, 25, 36, 6, 10, 12, 35, 45, 63]


@st.composite
def frequency_sets(draw):
    """Frequency sets over groups of rank 1-3: symmetric, asymmetric (with a
    gamma whose negative is absent), empty, or the trivial character alone."""
    rank = draw(st.integers(1, 3))
    g = FinAbGroup(draw(st.lists(st.sampled_from(CYCLES), min_size=rank, max_size=rank)))
    kind = draw(st.sampled_from(["symmetric", "asymmetric", "empty", "zero"]))
    if kind == "empty":
        return GroupSet.empty(g)
    if kind == "zero":
        return freq_set(g, 0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    picks = GroupSet.from_indices(g, rng.integers(0, g.order, size=draw(st.integers(1, 12))))
    if kind == "symmetric":
        return picks | negate(picks)
    neg = g.negation_permutation()
    lone = np.flatnonzero(neg != np.arange(g.order))
    if lone.size == 0:  # every character is its own negative
        return picks
    m = lone[rng.integers(lone.size)]
    mask = picks.mask.copy()
    mask[m], mask[neg[m]] = True, False
    return GroupSet(g, mask)


@contextlib.contextmanager
def kernel_constants(share, block_cells):
    """Run the table kernel with another gather share and block size."""
    saved = bohr.GATHER_SHARE, bohr.BLOCK_CELLS
    bohr.GATHER_SHARE, bohr.BLOCK_CELLS = share, block_cells
    try:
        yield
    finally:
        bohr.GATHER_SHARE, bohr.BLOCK_CELLS = saved


@st.composite
def sieve_cases(draw):
    """A frequency set with its oracle numerators, a radius cap at an edge of
    the distance values (0, exactly at a value, 1/M either side of it, 1/2 or
    above), a kept set, a split of the frequencies into base + rest, and the
    kernel's gather share and block size (1.0 gathers as soon as anything is
    sieved; 64 cells compact the survivors after nearly every row)."""
    freqs = draw(frequency_sets())
    g = freqs.group
    M = g.phase_denominator
    nums = oracle_numerators(freqs)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    value = int(nums[rng.integers(g.order)])
    r_cap = {"zero": 0.0, "at": value / M, "below": max(value - 1, 0) / M,
             "above": (value + 1) / M, "half": 0.5, "beyond": 0.75}[
        draw(st.sampled_from(["zero", "at", "below", "above", "half", "beyond"]))]
    keep = GroupSet(g, rng.random(g.order) < draw(st.sampled_from([0.0, 0.02, 0.3])))
    split = rng.random(g.order) < 0.5
    share = draw(st.sampled_from([0.0, bohr.GATHER_SHARE, 1.0]))
    block = draw(st.sampled_from([bohr.BLOCK_CELLS, 64]))
    return freqs, nums, r_cap, keep, split, share, block


class TestSievedTable:
    @settings(max_examples=150, deadline=None)
    @given(sieve_cases())
    def test_matches_oracle_within_the_cap_and_on_kept(self, case):
        freqs, nums, r_cap, keep, split, share, block = case
        g = freqs.group
        M = g.phase_denominator
        exact = (nums / M <= r_cap + INCLUSION_SLACK) | keep.mask
        with kernel_constants(share, block):
            whole = bohr_distance_table(freqs, r_cap, keep)
            base = bohr_distance_table(GroupSet(g, freqs.mask & split), r_cap, keep)
            nested = bohr_distance_table(GroupSet(g, freqs.mask & ~split), r_cap, keep,
                                         base=base)
        for table in (whole, nested):
            assert table.dtype == np.float64 and table.r_cap == r_cap
            assert table.covers == set(freqs.indices().tolist())
            assert np.array_equal(np.isfinite(table), exact)
            assert np.array_equal(table[exact], nums[exact] / M)
            for radius in (0.0, max(0.0, r_cap - 1e-6), r_cap, 0.5, 0.9):
                assert np.array_equal(table.ball(radius),
                                      nums / M <= radius + INCLUSION_SLACK)

    @settings(max_examples=60, deadline=None)
    @given(frequency_sets())
    def test_cap_at_half_is_the_dense_table(self, freqs):
        expected = oracle_table(freqs)
        for r_cap in (0.5, 1.0):
            table = bohr_distance_table(freqs, r_cap, GroupSet.empty(freqs.group))
            assert np.array_equal(table, expected)

    def test_reads_between_the_cap_and_half_raise(self):
        g = FinAbGroup([64])
        freqs = freq_set(g, 1, 63, 5)
        table = bohr_distance_table(freqs, 0.1)
        assert table.ball(0.1).sum() == bohr_set(freqs, 0.1).measure
        assert table.ball(0.5).all() and table.ball(0.7).all()
        for radius in (0.1 + 1e-12, 0.3, 0.4999):
            with pytest.raises(ValueError, match="cap"):
                table.ball(radius)
        with pytest.raises(ValueError, match="cap"):
            table_family(g, table)(0.25)
        with pytest.raises(ValueError, match="cap"):
            table.exact(GroupSet.full(g))  # far elements were neither kept nor within

    def test_a_sieved_table_counts_fewer_cells(self):
        g = FinAbGroup([2 ** 14])
        freqs = GroupSet.from_indices(g, range(1, 40))
        dense = bohr_distance_table(freqs)
        sieved = bohr_distance_table(freqs, 0.05)
        assert dense.cells == 39 * g.order
        assert sieved.cells < dense.cells / 4
        assert np.array_equal(sieved.ball(0.05), dense.ball(0.05))

    def test_a_base_that_covers_every_row_is_the_table(self):
        # the new frequencies are the trivial character and negatives of the
        # base's, so no row is left: the base's distances come back, no cells
        g = FinAbGroup([64])
        keep = GroupSet.from_indices(g, [7, 30])
        base = bohr_distance_table(freq_set(g, 1, 5), 0.1, keep)
        for freqs in (freq_set(g, 0, 63, 59), freq_set(g, 63), GroupSet.empty(g)):
            table = bohr_distance_table(freqs, 0.1, keep, base=base)
            union = bohr_distance_table(freqs | freq_set(g, 1, 5), 0.1, keep)
            assert table.tobytes() == union.tobytes() == base.tobytes()
            assert table.cells == 0 and table.r_cap == 0.1
            assert table.covers == base.covers | set(freqs.indices().tolist())

    def test_rejects_a_mismatched_base_and_a_negative_cap(self):
        g = FinAbGroup([32])
        base = bohr_distance_table(freq_set(g, 1), 0.2)
        with pytest.raises(ValueError, match="base"):
            bohr_distance_table(freq_set(g, 3), 0.3, base=base)
        with pytest.raises(ValueError, match="base"):
            bohr_distance_table(freq_set(FinAbGroup([16]), 3), 0.2, base=base)
        with pytest.raises(ValueError, match="r_cap"):
            bohr_distance_table(freq_set(g, 3), -0.1)
        with pytest.raises(ValueError, match="r_cap"):
            bohr_distance_table(freq_set(g, 3), math.nan)


class TestBohrDistanceTable:
    @settings(max_examples=150, deadline=None)
    @given(frequency_sets())
    def test_matches_oracle_bit_for_bit(self, freqs):
        assert_matches_oracle(freqs)

    def test_padded_digits(self):
        g = FinAbGroup([35, 63])
        assert_matches_oracle(freq_set(g, 1, 36, 100, 2204, 2204 - 35))

    def test_small_group_rows_span_several_blocks(self):
        g = FinAbGroup([4096])
        rng = np.random.default_rng(5)
        freqs = GroupSet.from_indices(g, rng.integers(0, g.order, size=700))
        assert freqs.cardinality * g.order > 2 * bohr.BLOCK_CELLS
        assert_matches_oracle(freqs)
        assert_matches_oracle(freqs | negate(freqs))

    def test_one_row_per_block_on_a_large_group(self):
        g = FinAbGroup([2 ** 20])
        assert g.order >= bohr.BLOCK_CELLS
        assert_matches_oracle(freq_set(g, 1, 3, 2 ** 20 - 3, 12345))


class TestBohrDistance:
    def test_reflexive(self):
        g = FinAbGroup([16])
        assert bohr_distance(g.element(5), g.element(5), freq_set(g, 1, 3)) == 0

    def test_single_frequency(self):
        g = FinAbGroup([16])
        assert bohr_distance(g.element(4), g.zero, freq_set(g, 1)) == pytest.approx(0.25)

    def test_sup_over_two_frequencies(self):
        g = FinAbGroup([16])
        d = bohr_distance(g.element(1), g.zero, freq_set(g, 1, 4))
        assert d == pytest.approx(max(1 / 16, 1 / 4))

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        g = FinAbGroup([12, 5])
        freqs = freq_set(g, 3, 17)
        for _ in range(10):
            x, y, t = (g.element(int(i)) for i in rng.integers(0, g.order, size=3))
            assert bohr_distance(x + t, y + t, freqs) == pytest.approx(
                bohr_distance(x, y, freqs), abs=1e-12)

    def test_empty_frequencies_raise(self):
        g = FinAbGroup([8])
        with pytest.raises(ValueError):
            bohr_distance(g.zero, g.zero, GroupSet.empty(g))


class TestDimensionEstimate:
    def test_constant_family_is_zero_dimensional(self):
        g = FinAbGroup([32])
        H = GroupSet.from_indices(g, range(0, 32, 4))
        est = dimension_estimate(lambda r: H, [0.1, 0.2, 0.4])
        assert est.empirical_dim == 0.0

    def test_word_balls_in_z17_squared(self):
        # closed-form counts (2r+1)^2: ratios below 4, above 2.46
        g = FinAbGroup([17, 17])
        family = lambda r: GroupSet.linf_ball(g, int(round(r)))
        est = dimension_estimate(family, [1, 2, 3])
        assert [m for _, m, _ in est.measures] == [9, 25, 49]
        assert [m2 for _, _, m2 in est.measures] == [25, 81, 169]
        assert est.empirical_dim == pytest.approx(math.log2(169 / 49))
        assert 1.3 <= est.empirical_dim <= 2.0

    def test_bohr_interval_family_near_one_dimensional(self):
        # oracle: mu(Bohr({1}, d)) = 2*floor(64 d) + 1 on Z_64
        g = FinAbGroup([64])
        fam = bohr_family(freq_set(g, 1))
        grid = dyadic_dimension_grid(fam, 0.25)
        est = dimension_estimate(fam, grid)
        for delta, m1, _ in est.measures:
            assert m1 == min(64, 2 * math.floor(64 * delta) + 1)
        assert abs(est.empirical_dim - 1.0) <= 0.3

    def test_grid_excludes_single_element_floor(self):
        g = FinAbGroup([64])
        fam = bohr_family(freq_set(g, 1))
        grid = dyadic_dimension_grid(fam, 0.25)
        assert all(fam(d).measure > 1 for d in grid)

    def test_zero_measure_points_flagged(self):
        g = FinAbGroup([32])
        base = GroupSet.interval(g, 3)

        def family(r):
            if r < 0.1:
                return GroupSet.empty(g)
            return base

        est = dimension_estimate(family, [0.05, 0.2, 0.3])
        assert est.excluded == (0.05,)
        assert est.empirical_dim == 0.0

    def test_non_monotone_family_raises(self):
        g = FinAbGroup([16])

        def family(r):
            return GroupSet.interval(g, 3 if r < 0.3 else 1)

        with pytest.raises(ValueError):
            dimension_estimate(family, [0.2])


class TestRoundingCheck:
    def test_example_premise_and_conclusion(self):
        chk = rounding_check(0.05, 3, 0.06)
        assert chk.premise and chk.conclusion and chk.applicable

    def test_zero(self):
        chk = rounding_check(0.0, 4, 0.05)
        assert chk.premise and chk.conclusion

    def test_k1_tautology(self):
        rng = np.random.default_rng(12)
        for t in rng.uniform(-1, 1, size=20):
            chk = rounding_check(float(t), 1, 0.3)
            assert chk.premise == chk.conclusion

    def test_implication_on_dense_sample(self):
        rng = np.random.default_rng(100)
        for _ in range(2000):
            k = int(rng.integers(1, 7))
            delta = float(rng.uniform(1e-4, (1 / 3) / k * 0.999))
            t = float(rng.uniform(-2, 2))
            chk = rounding_check(t, k, delta)
            if chk.applicable and chk.premise:
                assert chk.conclusion

    def test_nearest_int_dist_boundary(self):
        assert nearest_int_dist(0.5) == 0.5  # round-half-even keeps the gap
        assert nearest_int_dist(2.0) == 0.0
        assert nearest_int_dist(-1.25) == 0.25

    def test_rejects_bad_args(self):
        cases = [
            (0.1, 0, 0.1, "k"), (0.1, -2, 0.1, "k"), (0.1, 2.5, 0.1, "k"),
            (0.1, 2.0, 0.1, "k"), (0.1, True, 0.1, "k"), (0.1, np.bool_(True), 0.1, "k"),
            (0.1, "3", 0.1, "k"), (0.1, np.array([1, 0]), 0.1, "k"),
            (0.1, np.array([1.0, 2.0]), 0.1, "k"), (0.1, np.array([True, True]), 0.1, "k"),
            (math.inf, 1, 0.1, "t"), (-math.inf, 1, 0.1, "t"), (math.nan, 1, 0.1, "t"),
            (np.array([0.1, math.inf]), 1, 0.1, "t"), (np.array([math.nan, 0.1]), 1, 0.1, "t"),
            (0.1, 2, 1.5, "delta"), (0.1, 2, 0.0, "delta"), (0.1, 2, -0.1, "delta"),
            (0.1, 2, math.nan, "delta"), (0.1, 2, math.inf, "delta"),
            (0.1, 2, np.array([0.1, 0.0]), "delta"),
        ]
        for t, k, delta, name in cases:
            with pytest.raises(ValueError, match=rf"rounding_check needs .*\b{name}\b"):
                rounding_check(t, k, delta)

    def test_arrays_match_scalar_calls_and_the_round_loop(self):
        def reference(t, k, delta):
            # the scalar loop with Python's round (half to even)
            premise = all(abs(r * t - round(r * t)) <= k * delta for r in range(1, k + 1))
            return premise, abs(t - round(t)) <= delta, k * delta < 1 / 3

        rng = np.random.default_rng(1301)
        n = 10_000
        k = rng.integers(1, 9, size=n)
        delta = np.where(rng.random(n) < 0.8, rng.uniform(1e-4, (1 / 3) / k), rng.uniform(1e-4, 1, n))
        # half the t near an integer, so the premise holds often
        t = np.where(rng.random(n) < 0.5, rng.uniform(-3, 3, n),
                     rng.integers(-3, 4, n) + rng.uniform(-0.05, 0.05, n))
        # exact ties of round-half-to-even, at t and at 3t = 1/2
        t[:4], k[:4], delta[:4] = [0.5, -2.5, 1 / 6, 1 / 6], [1, 2, 3, 3], [0.5, 0.25, 1 / 6, 0.1]
        chk = rounding_check(t, k, delta)
        fields = (chk.premise, chk.conclusion, chk.applicable)
        assert all(f.dtype == bool and f.shape == (n,) for f in fields)
        assert chk.premise.sum() > 1000 and (chk.applicable & ~chk.premise).sum() > 1000
        for i in range(n):
            one = rounding_check(float(t[i]), int(k[i]), float(delta[i]))
            assert all(type(v) is bool for v in (one.premise, one.conclusion, one.applicable))
            expected = reference(float(t[i]), int(k[i]), float(delta[i]))
            assert (one.premise, one.conclusion, one.applicable) == expected
            assert tuple(bool(f[i]) for f in fields) == expected

    def test_arguments_broadcast(self):
        t = np.array([0.0, 0.05, 0.4])
        k = np.array([[1], [3]])
        chk = rounding_check(t, k, 0.06)
        assert chk.premise.shape == chk.conclusion.shape == chk.applicable.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                one = rounding_check(float(t[j]), int(k[i, 0]), 0.06)
                assert (one.premise, one.conclusion, one.applicable) == (
                    chk.premise[i, j], chk.conclusion[i, j], chk.applicable[i, j])


class TestNestedBohrAudit:
    def test_k1_trivially_equal(self):
        g = FinAbGroup([32])
        audit = nested_bohr_audit(freq_set(g, 0, 1), 1, 0.05)
        assert audit.equal is True

    def test_z64_example(self):
        g = FinAbGroup([64])
        audit = nested_bohr_audit(freq_set(g, 0, 1), 3, 0.1)
        assert audit.equal is True
        assert audit.left.members == audit.right.members

    def test_guard_skips(self):
        g = FinAbGroup([16])
        audit = nested_bohr_audit(freq_set(g, 0, 1), 4, 0.1)
        assert audit.equal is None
        assert "1/3" in audit.skipped_reason

    def test_missing_trivial_character_skips(self):
        g = FinAbGroup([16])
        audit = nested_bohr_audit(freq_set(g, 1), 2, 0.05)
        assert audit.equal is None
        assert "trivial" in audit.skipped_reason

    def test_shared_multiples_and_families_change_nothing(self):
        g = FinAbGroup([96])
        Lam = GroupSet.from_indices(g, [0, 5, 91, 17])
        multiples, families = Multiples(Lam), {}
        for k in (3, 2, 4, 1):
            for delta in (0.05, 0.01, 0.07):
                shared = nested_bohr_audit(Lam, k, delta, multiples, families)
                fresh = nested_bohr_audit(Lam, k, delta)
                assert shared == fresh
        assert set(families) == {Lam, multiples[2], multiples[3], multiples[4]}

    def test_rejects_multiples_of_another_set(self):
        g = FinAbGroup([32])
        with pytest.raises(ValueError):
            nested_bohr_audit(freq_set(g, 0, 1), 2, 0.05, Multiples(freq_set(g, 0, 3)))

    def test_criterion_builds_each_multiple_and_table_once(self, record_calls):
        sums = record_calls(addcomb.sets, "sumset")
        tables = record_calls(bohr, "bohr_distance_table")
        result = verify.criterion_nested_bohr(np.random.default_rng(0))
        assert result.passed and result.details["pairs_checked"] == 220
        # 360 and 440 with a fresh kLambda and two fresh tables per grid point
        assert len(sums) == 57
        assert len(tables) == 72

    def test_random_instances_equal(self):
        rng = np.random.default_rng(55)
        for _ in range(15):
            n = int(rng.integers(8, 256))
            g = FinAbGroup([n])
            idx = set(rng.integers(0, n, size=int(rng.integers(1, 4)))) | {0}
            Lam = GroupSet.from_indices(g, idx)
            k = int(rng.integers(2, 5))
            delta = float(rng.uniform(0.01, (1 / 3) / k * 0.99))
            assert nested_bohr_audit(Lam, k, delta).equal is True
