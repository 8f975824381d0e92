import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import addcomb.sets
from addcomb import bohr, verify
from addcomb.bohr import (INCLUSION_SLACK, bohr_distance_table, bohr_family, bohr_set,
                          dimension_estimate, dyadic_dimension_grid,
                          nearest_int_dist, nested_bohr_audit, rounding_check,
                          worst_distance)
from addcomb.groups import FinAbGroup
from addcomb.oracles import bohr_distance, phase_numerator_rows
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
        num = phase_numerator_rows(g, [int(m)])[0]
        best = np.maximum(best, np.minimum(num, M - num))
    return best


def half_order(g):
    """The elements x of g with x_0 <= n_0 / 2, where a table's rows over G run."""
    return g.order // g.invariants[0] * (g.invariants[0] // 2 + 1)


def oracle_table(freqs):
    return oracle_numerators(freqs) / freqs.group.phase_denominator


def assert_matches_oracle(freqs):
    table, expected = bohr_distance_table(freqs).distances(), oracle_table(freqs)
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


@st.composite
def small_frequency_sets(draw):
    """Nonempty frequency sets over groups of rank 1-2 and order at most
    36^2, small enough for the scalar oracle at every element."""
    cycles = draw(st.lists(st.sampled_from([c for c in CYCLES if c <= 36]),
                           min_size=1, max_size=2))
    g = FinAbGroup(cycles)
    size = draw(st.integers(1, 8))
    return GroupSet.from_indices(g, draw(st.lists(st.integers(0, g.order - 1),
                                                  min_size=size, max_size=size)))


@st.composite
def sieve_cases(draw):
    """A frequency set with its oracle numerators, a radius cap at an edge of
    the distance values (0, exactly at a value, 1/M either side of it, 1/2 or
    above), a split of the frequencies into base + rest, and the kernel's
    sides (kernel_sides)."""
    freqs = draw(frequency_sets())
    g = freqs.group
    M = g.phase_denominator
    nums = oracle_numerators(freqs)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    value = int(nums[rng.integers(g.order)])
    r_cap = {"zero": 0.0, "at": value / M, "below": max(value - 1, 0) / M,
             "above": (value + 1) / M, "half": 0.5, "beyond": 0.75}[
        draw(st.sampled_from(["zero", "at", "below", "above", "half", "beyond"]))]
    split = rng.random(g.order) < 0.5
    return freqs, nums, r_cap, split, draw(kernel_sides())


@st.composite
def kernel_sides(draw):
    """Sides of the Bohr kernel's constants for forced(): each left as it is
    or forced to a side. Gathering always does so as soon as anything is
    sieved, and never runs every exact row over all of G; a stop share of
    "every row" runs every 16-bit row, and "first drop" stops the pre-sieve
    at its first drop; one row per block compacts the survivors after every
    row, and one block runs every row at once."""
    return dict(gather=draw(st.sampled_from([None, "never", "always"])),
                stop=draw(st.sampled_from([None, "every row", "first drop"])),
                block=draw(st.sampled_from([None, "one row", "one block"])))


#: first cycle lengths n_0, even (the half x_0 <= n_0 / 2 that a table's rows
#: over G run on ends at the self-negated column n_0 / 2) and odd
FIRST_CYCLES = [2, 4, 6, 10, 12, 16, 3, 5, 7, 9, 15, 25]


@st.composite
def half_domain_cases(draw):
    """A frequency set over a group of rank 1-3 whose first cycle is even or
    odd, the numerators of its distances by the scalar oracle at every
    element, a radius cap at a distance value or 1/M either side of it, a
    base (none, dense, held as survivors, or covering every row) on a random
    part of the frequencies, and the kernel's sides (kernel_sides)."""
    rank = draw(st.integers(1, 3))
    g = FinAbGroup([draw(st.sampled_from(FIRST_CYCLES))]
                   + draw(st.lists(st.sampled_from([2, 3, 4, 5, 6]),
                                   min_size=rank - 1, max_size=rank - 1)))
    M = g.phase_denominator
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    freqs = GroupSet.from_indices(g, rng.integers(0, g.order, size=draw(st.integers(1, 6))))
    nums = np.array([round(bohr_distance(g.element(x), g.zero, freqs) * M)
                     for x in range(g.order)])
    value = int(nums[rng.integers(g.order)]) + draw(st.sampled_from([-1, 0, 1]))
    split = rng.random(g.order) < 0.5
    base = draw(st.sampled_from(["none", "dense", "survivors", "covering"]))
    return freqs, nums, max(value, 0) / M, split, base, draw(kernel_sides())


class TestHalfDomain:
    """A table's rows over G run on one element of each pair {x, -x}; its
    survivors come back as x and -x, and it holds exactly the elements
    within its cap."""

    @settings(max_examples=120, deadline=None)
    @given(half_domain_cases())
    def test_held_elements_and_numerators_match_the_scalar_oracle(self, forced, case):
        freqs, nums, r_cap, split, base_kind, sides = case
        g = freqs.group
        M = g.phase_denominator
        inner = GroupSet(g, freqs.mask & split)
        with forced(**sides):
            if base_kind == "none":
                table = bohr_distance_table(freqs, r_cap)
            elif base_kind == "covering":
                # negatives and the trivial character: no row is left
                base = bohr_distance_table(freqs, r_cap)
                table = bohr_distance_table(negate(freqs) | freq_set(g, 0), r_cap, base=base)
                assert table.num is base.num and table.at is base.at
            else:
                with forced(gather="always"):
                    base = bohr_distance_table(inner, 0.5 if base_kind == "dense" else r_cap)
                table = bohr_distance_table(GroupSet(g, freqs.mask & ~split), r_cap,
                                            base=base)
        assert table.num.dtype == np.int32
        if table.at is None:
            assert table.r_cap == 0.5
            assert np.array_equal(table.num, nums)
        else:
            held = nums / M <= r_cap + INCLUSION_SLACK
            assert table.r_cap == r_cap and table.at.dtype == np.int64
            assert np.array_equal(table.at, np.flatnonzero(held))
            assert np.array_equal(table.num, nums[held])


class TestSievedTable:
    @settings(max_examples=150, deadline=None)
    @given(sieve_cases())
    def test_matches_oracle_within_the_cap_and_on_kept(self, forced, case):
        # a sieved table holds exactly the elements within the cap; a dense
        # one holds every element, at cap 1/2
        freqs, nums, r_cap, split, sides = case
        g = freqs.group
        M = g.phase_denominator
        exact = nums / M <= r_cap + INCLUSION_SLACK
        with forced(**sides):
            whole = bohr_distance_table(freqs, r_cap)
            base = bohr_distance_table(GroupSet(g, freqs.mask & split), r_cap)
            nested = bohr_distance_table(GroupSet(g, freqs.mask & ~split), r_cap, base=base)
        for table in (whole, nested):
            view = table.distances()
            held = np.ones(g.order, dtype=bool) if table.at is None else exact
            assert view.dtype == np.float64
            assert table.r_cap == (0.5 if table.at is None else r_cap)
            assert table.covers == set(freqs.indices().tolist())
            assert np.array_equal(np.isfinite(view), held)
            assert np.array_equal(view[held], nums[held] / M)
            for radius in (0.0, max(0.0, r_cap - 1e-6), r_cap, 0.5, 0.9):
                assert np.array_equal(table.ball(radius).mask,
                                      nums / M <= radius + INCLUSION_SLACK)

    @settings(max_examples=60, deadline=None)
    @given(frequency_sets())
    def test_cap_at_half_is_the_dense_table(self, freqs):
        expected = oracle_table(freqs)
        for r_cap in (0.5, 1.0):
            table = bohr_distance_table(freqs, r_cap)
            assert np.array_equal(table.distances(), expected)

    def test_reads_between_the_cap_and_half_raise(self):
        g = FinAbGroup([64])
        freqs = freq_set(g, 1, 63, 5)
        table = bohr_distance_table(freqs, 0.1)
        assert table.ball(0.1).measure == bohr_set(freqs, 0.1).measure
        assert table.ball(0.5) == table.ball(0.7) == GroupSet.full(g)
        for radius in (0.1 + 1e-12, 0.25, 0.3, 0.4999):
            with pytest.raises(ValueError, match="cap"):
                table.ball(radius)

    def test_a_sieved_table_counts_fewer_cells(self):
        g = FinAbGroup([2 ** 14])
        freqs = GroupSet.from_indices(g, range(1, 40))
        dense = bohr_distance_table(freqs)
        sieved = bohr_distance_table(freqs, 0.05)
        # the rows over G run on the half x_0 <= n / 2, one of each {x, -x}
        half = half_order(g)
        assert dense.cells == 39 * half and dense.coarse_cells == 0
        # the 16-bit pre-sieve ran some rows over the half, and is counted apart
        assert sieved.coarse_cells > 0 and sieved.coarse_cells % half == 0
        assert sieved.cells < dense.cells / 4
        assert sieved.ball(0.05) == dense.ball(0.05)

    @pytest.mark.parametrize("branch", ["gather", "dense fallback", "dense", "base gather"])
    def test_each_branch_matches_the_oracle(self, forced, branch):
        # in Z_3 x Z_9 (M = 9, so the cap 0.4 sieves at 3/9) the characters of
        # order 3 keep every distance at 1/3 or below, and the cap drops nothing;
        # the interval's frequencies in Z_4096 drop most elements at 0.05
        small, large = FinAbGroup([3, 9]), FinAbGroup([4096])
        order_three = GroupSet.from_coords(small, [(a, b) for a in range(3) for b in (0, 3, 6)])
        interval = GroupSet.from_indices(large, range(1, 40))
        freqs, r_cap, sides = {
            "gather": (interval, 0.05, {}),
            "dense fallback": (order_three, 0.4, dict(gather="always", stop="every row")),
            "dense": (interval, 0.05, dict(gather="never")),
            "base gather": (interval, 0.05, {}),
        }[branch]
        g = freqs.group
        base = None
        if branch == "base gather":
            # the base is held as survivors, a tenth of G, so no row runs over G
            base = bohr_distance_table(freq_set(g, 40), r_cap)
            assert base.at is not None and np.isfinite(base.distances()).mean() < 0.1
        with forced(**sides):
            table = bohr_distance_table(freqs, r_cap, base=base)
        nums = oracle_numerators(freqs if base is None else freqs | freq_set(g, 40))
        M = g.phase_denominator
        # a gathered table holds exactly the elements within the cap, a dense
        # one every element
        held = nums / M <= r_cap + INCLUSION_SLACK
        if branch in ("dense fallback", "dense"):
            held[:] = True
        view = table.distances()
        assert np.array_equal(np.isfinite(view), held)
        assert np.array_equal(view[held], nums[held] / M)
        assert (table.at is None) == (branch in ("dense fallback", "dense"))
        # the rows over G run on the half x_0 <= n_0 / 2, one of each {x, -x}:
        # 2 * 9 of Z_3 x Z_9's 27 elements, 2049 of Z_4096's
        half = half_order(g)
        if branch == "dense fallback":
            # the pre-sieve ran every row and kept all of G, so the exact rows ran densely
            assert table.coarse_cells == table.cells == 4 * half  # 8 = 4 pairs +-gamma
        elif branch == "dense":
            assert table.coarse_cells == 0 and table.cells == 39 * half
        elif branch == "gather":
            # 2049-point rows: the pre-sieve's first block holds all 39
            assert table.coarse_cells == 39 * half and table.cells < 39 * half
        else:
            # direct phases at the base's survivors, which hold both of each pair
            assert table.coarse_cells == 0 and 0 < table.cells < 39 * g.order / 10

    def test_a_base_that_covers_every_row_is_the_table(self):
        # the new frequencies are the trivial character and negatives of the
        # base's, so no row is left: the base's distances come back, no cells
        g = FinAbGroup([64])
        base = bohr_distance_table(freq_set(g, 1, 5), 0.1)
        for freqs in (freq_set(g, 0, 63, 59), freq_set(g, 63), GroupSet.empty(g)):
            table = bohr_distance_table(freqs, 0.1, base=base)
            union = bohr_distance_table(freqs | freq_set(g, 1, 5), 0.1)
            assert (table.distances().tobytes() == union.distances().tobytes()
                    == base.distances().tobytes())
            assert table.cells == 0 and table.r_cap == 0.1
            assert table.covers == base.covers | set(freqs.indices().tolist())

    def test_rejects_a_mismatched_base_and_a_negative_cap(self, forced):
        # a dense base states cap 1/2 and serves every cap; a sieved one only
        # caps at or below its own
        g = FinAbGroup([32])
        with forced(gather="always"):
            base = bohr_distance_table(freq_set(g, 1), 0.2)
        assert base.at is not None
        with pytest.raises(ValueError, match="base"):
            bohr_distance_table(freq_set(g, 3), 0.3, base=base)
        dense = bohr_distance_table(freq_set(g, 1), 0.2)
        assert dense.at is None and dense.r_cap == 0.5
        for r_cap in (0.3, 0.75):
            table = bohr_distance_table(freq_set(g, 3), r_cap, base=dense)
            assert np.array_equal(table.distances(), oracle_table(freq_set(g, 1, 3)))
        for other in (base, dense):
            with pytest.raises(ValueError, match="base"):
                bohr_distance_table(freq_set(FinAbGroup([16]), 3), 0.2, base=other)
        with pytest.raises(ValueError, match="r_cap"):
            bohr_distance_table(freq_set(g, 3), -0.1)
        with pytest.raises(ValueError, match="r_cap"):
            bohr_distance_table(freq_set(g, 3), math.nan)


class TestPresieve:
    """The 16-bit pass clears an element only when its exact distance passes the cap."""

    @pytest.mark.parametrize("cycles", [[3, 5, 7], [35, 63], [2, 2, 2, 2, 2], [4, 6, 10],
                                        [1000], [2 ** 12]], ids=str)
    def test_coarse_distances_lose_at_most_two_units_per_cycle(self, cycles):
        # every character at every element of G, and of the half x_0 <= n_0 / 2
        # (whose digit tables split a shorter first coordinate): floored to
        # 2^16 units, the coarse circle distance never passes
        # floor(num * 2^16 / M) + 2 * rank
        g = FinAbGroup(cycles)
        M = g.phase_denominator
        half = (g.invariants[0] // 2 + 1,) + g.invariants[1:]
        for start in range(0, g.order, 64):
            block = list(range(start, min(start + 64, g.order)))
            num = phase_numerator_rows(g, block)
            bound = (np.minimum(num, M - num) << 16) // M + 2 * g.rank
            on_half = bound.reshape(len(block), *g.invariants[::-1])[..., :half[0]]
            for lengths, limit in ((g.invariants, bound), (half, on_half)):
                tables = bohr._digit_rows(g, g.decode_array(np.array(block)), lengths)
                u = bohr._coarse_sums(g, tables, lengths, 0).astype(np.int64)
                coarse = np.minimum(u, (1 << 16) - u)
                assert (coarse <= limit.reshape(len(block), -1)).all()

    @pytest.mark.parametrize("cycles", [[3, 5, 7], [35, 63], [6, 10, 14]], ids=str)
    def test_no_element_within_the_cap_or_kept_is_dropped(self, forced, cycles):
        # caps exactly at each distance value of the table and 1/M either side
        g = FinAbGroup(cycles)
        M = g.phase_denominator
        rng = np.random.default_rng(sum(cycles))
        dropped = 0
        for size in (1, 3, 12):
            freqs = GroupSet.from_indices(g, rng.integers(1, g.order, size=size))
            nums = oracle_numerators(freqs)
            coords = g.decode_array(freqs.indices())
            for num in {v + e for v in np.unique(nums).tolist() for e in (-1, 0, 1)}:
                cap = bohr._cap_numerator(num / M, M)
                if num < 0 or cap is None:  # below 0, or every element passes
                    continue
                alive = np.ones(g.order, dtype=bool)
                with forced(stop="every row"):
                    assert bohr._presieve(g, coords, g.invariants, cap, alive)[1] == coords.shape[1]
                    view = bohr_distance_table(freqs, num / M).distances()
                assert alive[nums <= cap].all()
                dropped += np.count_nonzero(~alive)
                # a gathered table holds exactly the elements within the cap, a
                # dense one every element
                held = nums <= cap
                if np.isfinite(view).all():
                    held[:] = True
                assert np.array_equal(np.isfinite(view), held)
                assert np.array_equal(view[held], nums[held] / M)
        assert dropped > 0


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
        est = dimension_estimate(lambda r: H.measure, [0.1, 0.2, 0.4])
        assert est.empirical_dim == 0.0

    def test_word_balls_in_z17_squared(self):
        # closed-form counts (2r+1)^2: ratios below 4, above 2.46
        g = FinAbGroup([17, 17])
        measure = lambda r: GroupSet.linf_ball(g, int(round(r))).measure
        est = dimension_estimate(measure, [1, 2, 3])
        assert [m for _, m, _ in est.measures] == [9, 25, 49]
        assert [m2 for _, _, m2 in est.measures] == [25, 81, 169]
        assert est.empirical_dim == pytest.approx(math.log2(169 / 49))
        assert 1.3 <= est.empirical_dim <= 2.0

    def test_bohr_interval_family_near_one_dimensional(self):
        # oracle: mu(Bohr({1}, d)) = 2*floor(64 d) + 1 on Z_64
        g = FinAbGroup([64])
        table = bohr_distance_table(freq_set(g, 1))
        grid = dyadic_dimension_grid(table.measure, 0.25)
        est = dimension_estimate(table.measure, grid)
        for delta, m1, _ in est.measures:
            assert m1 == min(64, 2 * math.floor(64 * delta) + 1)
        assert abs(est.empirical_dim - 1.0) <= 0.3

    def test_grid_excludes_single_element_floor(self):
        g = FinAbGroup([64])
        fam = bohr_family(freq_set(g, 1))
        grid = dyadic_dimension_grid(lambda r: fam(r).measure, 0.25)
        assert all(fam(d).measure > 1 for d in grid)

    def test_zero_measure_points_flagged(self):
        g = FinAbGroup([32])
        base = GroupSet.interval(g, 3)

        def measure(r):
            return 0 if r < 0.1 else base.measure

        est = dimension_estimate(measure, [0.05, 0.2, 0.3])
        assert est.excluded == (0.05,)
        assert est.empirical_dim == 0.0

    def test_non_monotone_family_raises(self):
        g = FinAbGroup([16])

        def measure(r):
            return GroupSet.interval(g, 3 if r < 0.3 else 1).measure

        with pytest.raises(ValueError):
            dimension_estimate(measure, [0.2])


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


class TestSurvivorsTable:
    """A table holds the int32 numerators of all of G (dense, at cap 1/2) or
    of its sorted survivors; every read matches oracles.bohr_distance."""

    @staticmethod
    def oracle(freqs):
        g = freqs.group
        return np.array([bohr_distance(g.element(x), g.zero, freqs) for x in range(g.order)])

    @staticmethod
    def assert_reads(table, dist, r_cap):
        # a sieved table at r_cap holds exactly the elements within it; a
        # dense one holds every element and reads every radius
        held = dist <= r_cap + INCLUSION_SLACK
        view = table.distances()
        assert table.num.dtype == np.int32
        if table.at is None:
            held[:] = True
            assert table.r_cap == 0.5
        else:
            assert table.r_cap == r_cap
            assert np.array_equal(table.at, np.flatnonzero(held))
        assert np.array_equal(np.isfinite(view), held)
        assert np.array_equal(view[held], dist[held])
        for radius in (0.0, r_cap / 3, r_cap, 0.3, 0.5, 0.8):
            if table.r_cap < radius < 0.5:
                continue
            ball = dist <= radius + INCLUSION_SLACK
            assert np.array_equal(table.ball(radius).mask, ball)
            assert table.measure(radius) == np.count_nonzero(ball)

    @pytest.mark.parametrize("cycles", [[97], [12, 10], [6, 6, 4]], ids=str)
    def test_reads_match_the_oracle_at_every_cap(self, cycles):
        g = FinAbGroup(cycles)
        rng = np.random.default_rng(len(cycles))
        freqs = GroupSet.from_indices(g, rng.integers(1, g.order, size=3))
        dist = self.oracle(freqs)
        between = float(np.median(dist))
        dense = set()
        for r_cap in (0.0, between, 0.5, 0.7):
            table = bohr_distance_table(freqs, r_cap)
            dense.add(table.at is None)
            self.assert_reads(table, dist, r_cap)
        assert dense == {True, False}  # both forms were read

    @pytest.mark.parametrize("cycles", [[97], [12, 10], [6, 6, 4]], ids=str)
    def test_a_base_with_a_higher_cap(self, forced, cycles):
        # the base's cap is above the table's: its survivors (or all of G at
        # cap 1/2 and above) are read down to the table's own cap
        g = FinAbGroup(cycles)
        rng = np.random.default_rng(10 + len(cycles))
        inner = GroupSet.from_indices(g, rng.integers(1, g.order, size=2))
        outer = inner | GroupSet.from_indices(g, rng.integers(1, g.order, size=2))
        dist = self.oracle(outer)
        low = float(np.quantile(dist, 0.2))
        forms = set()
        for high in (float(np.quantile(self.oracle(inner), 0.6)), 0.5):
            # gathering always, the base is gathered whenever its cap sieves
            with forced(gather="always"):
                base = bohr_distance_table(inner, high)
            forms.add(base.at is None)
            table = bohr_distance_table(outer, low, base=base)
            assert table.covers == set(outer.indices().tolist())
            self.assert_reads(table, dist, low)
            # no row left (the negatives of the base's frequencies): the
            # base's numerators, read at the base's cap
            recapped = bohr_distance_table(negate(inner), low, base=base)
            assert recapped.cells == 0 and recapped.r_cap == base.r_cap
            self.assert_reads(recapped, self.oracle(inner), high)
        with forced(gather="always"):
            lower = bohr_distance_table(inner, 0.4)
        assert lower.at is not None
        with pytest.raises(ValueError, match="base"):
            bohr_distance_table(outer, 0.45, base=lower)
        assert forms == {True, False}  # sieved and dense bases were read

    @settings(max_examples=40, deadline=None)
    @given(small_frequency_sets(), st.sampled_from([0.0, 0.05, 0.25, 0.5, 0.75]),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_a_dense_table_is_exact_everywhere(self, forced, freqs, r_cap, on_base, seed):
        # whatever cap it was asked for, a table whose rows ran over all of G
        # holds every distance and answers every radius
        g = freqs.group
        M = g.phase_denominator
        dist = self.oracle(freqs)
        split = np.random.default_rng(seed).random(g.order) < 0.5
        with forced(gather="never"):
            if on_base:
                base = bohr_distance_table(GroupSet(g, freqs.mask & split), r_cap)
                assert base.at is None and base.r_cap == 0.5
                table = bohr_distance_table(GroupSet(g, freqs.mask & ~split), r_cap, base=base)
            else:
                table = bohr_distance_table(freqs, r_cap)
        assert table.at is None and table.r_cap == 0.5
        assert np.array_equal(table.distances(), dist)
        values = np.unique(dist).tolist()
        for radius in values + [v + 0.5 / M for v in values] + [0.25, 0.4999, 0.5, 0.9]:
            ball = dist <= radius + INCLUSION_SLACK
            assert np.array_equal(table.ball(radius).mask, ball)
            assert table.measure(radius) == np.count_nonzero(ball)

    @pytest.mark.parametrize("cycles", [[97], [12, 10], [6, 6, 4]], ids=str)
    def test_no_row_left_holds_a_sieved_base(self, forced, cycles):
        # the trivial character and the negatives of the base's frequencies add
        # no row: the table holds the base's numerators and survivors, at the
        # base's higher cap
        g = FinAbGroup(cycles)
        rng = np.random.default_rng(30 + len(cycles))
        inner = GroupSet.from_indices(g, rng.integers(1, g.order, size=2))
        with forced(gather="always"):
            base = bohr_distance_table(inner, 0.3)
        assert base.at is not None
        table = bohr_distance_table(negate(inner) | freq_set(g, 0), 0.1, base=base)
        assert table.num is base.num and table.at is base.at
        assert table.r_cap == 0.3 and table.cells == table.coarse_cells == 0
        self.assert_reads(table, self.oracle(inner), 0.3)


class TestWorstDistance:
    """A - A's worst distance in a Freiman run, from direct phases at its
    elements alone."""

    @settings(max_examples=80, deadline=None)
    @given(frequency_sets(), st.integers(0, 2 ** 32 - 1))
    def test_matches_the_scalar_oracle(self, freqs, seed):
        # random elements and the farthest one of G, which lies past every cap
        # below its own distance
        g = freqs.group
        rng = np.random.default_rng(seed)
        far = int(np.argmax(oracle_numerators(freqs)))
        members = GroupSet.from_indices(
            g, rng.integers(0, g.order, size=int(rng.integers(0, 8))).tolist() + [far])
        expected = max(bohr_distance(g.element(int(x)), g.zero, freqs)
                       if freqs.cardinality else 0.0 for x in members.indices())
        assert worst_distance(freqs, members) == expected
