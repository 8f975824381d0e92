import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from addcomb import oracles, spectrum
from addcomb.fourier import transform, transform_error_bound
from addcomb.groups import FinAbGroup
from addcomb.sets import GroupSet
from addcomb.spectrum import (THRESHOLD_SLACK, cut_spectrum, lspec, spectral_distance,
                              spectrum_index)


def interval(g, r):
    return GroupSet.linf_ball(g, r)


class TestLspec:
    def test_full_dual_at_sqrt2(self):
        g = FinAbGroup([12])
        A = GroupSet.from_indices(g, [0, 3, 7])
        assert lspec(A, math.sqrt(2)).members == GroupSet.full(g)

    def test_singleton_has_flat_spectrum(self):
        g = FinAbGroup([9])
        assert lspec(GroupSet.singleton(g, 4), 0.1).members == GroupSet.full(g)

    def test_interval_example(self):
        # |1 + 2cos(2 pi m/16)| >= sqrt(0.875) * 3 only for m in {0, 1, 15}
        g = FinAbGroup([16])
        A = GroupSet.from_indices(g, [15, 0, 1])
        spec = lspec(A, 0.5)
        assert sorted(spec.members.indices()) == [0, 1, 15]
        assert spec.threshold == pytest.approx(math.sqrt(0.875) * 3)

    def test_trivial_character_always_member(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = FinAbGroup([int(rng.integers(4, 64))])
            mask = rng.random(g.order) < 0.3
            mask[2] = True
            A = GroupSet(g, mask)
            assert 0 in lspec(A, 0.01).members

    def test_symmetric_members(self):
        rng = np.random.default_rng(6)
        g = FinAbGroup([30])
        A = GroupSet(g, rng.random(30) < 0.4)
        if A.cardinality == 0:
            A = GroupSet.singleton(g, 0)
        assert lspec(A, 0.7).members.is_symmetric()

    def test_nesting(self):
        g = FinAbGroup([40])
        A = interval(g, 3)
        assert lspec(A, 0.2).members.is_subset_of(lspec(A, 0.6).members)

    def test_ball_threshold_equivalence(self):
        # LSpec(A, delta) = {gamma : dist(gamma, gamma_0) <= delta}
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = FinAbGroup([int(rng.integers(8, 128))])
            mask = rng.random(g.order) < 0.3
            mask[0] = True
            A = GroupSet(g, mask)
            delta = float(rng.uniform(0.1, 1.3))
            spec = lspec(A, delta)
            by_metric = {
                m for m in range(g.order)
                if spectral_distance(g.character(m), g.character(0), A) <= delta + 1e-9
            }
            assert set(spec.members.indices()) == by_metric

    def test_rejects_empty_and_negative(self):
        g = FinAbGroup([8])
        with pytest.raises(ValueError):
            lspec(GroupSet.empty(g), 0.5)
        with pytest.raises(ValueError):
            lspec(GroupSet.full(g), -0.1)


class TestSpectralDistance:
    def test_reflexive(self):
        g = FinAbGroup([16])
        A = interval(g, 2)
        assert spectral_distance(g.character(3), g.character(3), A) == 0

    def test_closed_form_identity_exhaustive(self):
        g = FinAbGroup([24])
        A = GroupSet.from_indices(g, [0, 1, 5, 23])
        from addcomb.fourier import transform

        mu = A.measure
        mags = transform(A).magnitudes()
        for m in range(24):
            d = spectral_distance(g.character(m), g.character(0), A)
            assert d * d + 2 * (mags[m] / mu) ** 2 == pytest.approx(2.0, abs=1e-9)

    def test_against_double_sum_oracle(self):
        # independent oracle: literal double sum over A x A
        g = FinAbGroup([16])
        A = GroupSet.from_indices(g, [15, 0, 1])
        total = 0.0
        for a in (15, 0, 1):
            for ap in (15, 0, 1):
                z = cmath.exp(2j * math.pi * ((a - ap) % 16) / 16)
                total += abs(1 - z) ** 2
        oracle = math.sqrt(total) / 3
        assert oracle == pytest.approx(0.4447891654310334)
        assert spectral_distance(g.character(1), g.character(0), A) == pytest.approx(oracle)
        assert oracles.spectral_distance(g.character(1), g.character(0),
                                         A) == pytest.approx(oracle)

    def test_routes_agree_on_random_pairs(self):
        rng = np.random.default_rng(23)
        g = FinAbGroup([6, 7])
        mask = rng.random(g.order) < 0.3
        mask[1] = True
        A = GroupSet(g, mask)
        for _ in range(10):
            m1, m2 = int(rng.integers(0, 42)), int(rng.integers(0, 42))
            d1 = spectral_distance(g.character(m1), g.character(m2), A)
            d2 = oracles.spectral_distance(g.character(m1), g.character(m2), A)
            assert d1 == pytest.approx(d2, abs=1e-9)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(29)
        g = FinAbGroup([36])
        mask = rng.random(36) < 0.4
        mask[3] = True
        A = GroupSet(g, mask)
        chars = [g.character(int(m)) for m in rng.integers(0, 36, size=6)]
        for x in chars:
            for y in chars:
                dxy = spectral_distance(x, y, A)
                assert dxy == pytest.approx(spectral_distance(y, x, A), abs=1e-12)
                for z in chars:
                    assert dxy <= (spectral_distance(x, z, A)
                                   + spectral_distance(z, y, A) + 1e-9)


@st.composite
def localized_sets(draw):
    """A nonempty set in short arcs (at most 1/16 of each cycle), each of
    which admits a zoom: a random subset of an arc or of a box, or an
    arithmetic progression, whose peaks lie at multiples of n / step, far
    from gamma_0 and mostly off the coarse grid."""
    kind = draw(st.sampled_from(["arc", "box", "progression"]))
    if kind == "box":
        cycles = draw(st.sampled_from([(128, 128), (256, 64), (96, 128)]))
    else:
        cycles = (draw(st.sampled_from([2 ** 12, 2 ** 14, 3 * 2 ** 12, 5 * 2 ** 12])),)
    g = FinAbGroup(cycles)
    start = [draw(st.integers(0, n - 1)) for n in cycles]
    if kind == "progression":
        step, count = draw(st.integers(2, 16)), draw(st.integers(2, 8))
        return GroupSet.from_indices(g, [(start[0] + i * step) % cycles[0]
                                         for i in range(count)])
    sides = [draw(st.integers(1, n // (32 if kind == "arc" else 16))) for n in cycles]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    box = np.stack(np.meshgrid(*[np.arange(m) for m in sides], indexing="ij"), -1).reshape(
        -1, len(cycles))
    chosen = box[rng.random(len(box)) < draw(st.floats(0.2, 1.0))]
    chosen = chosen if len(chosen) else box[:1]
    return GroupSet.from_coords(g, [tuple(int(a + c) for a, c in zip(start, row))
                                    for row in chosen])


def cell_of(index, g: FinAbGroup, grid) -> np.ndarray:
    """The coarse point k h of the cell of each character index: per cycle,
    the nearest multiple of h_j, a tie going to the upper one (the zoom's
    offsets u_j run from -floor(h_j / 2))."""
    m = g.decode_array(index)
    out = np.zeros_like(m)
    for j, (n, q) in enumerate(zip(g.invariants, grid)):
        h = n // q
        out[j] = (m[j] + h // 2) // h % q * h
    return g.encode_array(out)


class TestSpectrumIndex:
    @settings(max_examples=60, deadline=None)
    @given(localized_sets(), st.floats(0.05, 1.0))
    def test_the_zoom_decides_as_the_full_transform(self, forced, S, delta):
        full = spectrum._full_index(S, delta)
        with forced(grid="zoom"):
            index = spectrum_index(S, delta)
        assert index.grid != S.group.invariants
        mu = float(S.measure)
        magnitudes = transform(S).magnitudes()
        band = full.rounding + index.rounding
        for cut in (delta, delta / 2, delta / 4):
            a, b = cut_spectrum(full, cut).members, cut_spectrum(index, cut).members
            # a character the two grids decide apart lies within the rounding band
            apart = np.flatnonzero(a.mask ^ b.mask)
            edge = spectrum._threshold(S, cut) - THRESHOLD_SLACK * mu
            assert np.all(np.abs(magnitudes[apart] - edge) <= band)
        held = np.isin(index.at, full.at)
        assert np.all(np.abs(magnitudes[index.at[held]] - index.moduli[held]) <= band)

    @settings(max_examples=40, deadline=None)
    @given(localized_sets())
    def test_the_modulus_moves_at_most_lip_across_a_cell(self, forced, S):
        with forced(grid="zoom"):
            grid = spectrum_index(S, 1.0).grid
        g, mu = S.group, S.measure
        coords = S.group.decode_array(S.indices())
        lengths = [spectrum._arc(coords.astype(np.uint32), g, j)[1] for j in range(g.rank)]
        lip = math.pi * mu * sum((n // q // 2) * (length - 1) / n
                                 for n, q, length in zip(g.invariants, grid, lengths))
        magnitudes = transform(S).magnitudes()
        every = np.arange(g.order)
        moved = np.abs(magnitudes - magnitudes[cell_of(every, g, grid)])
        assert moved.max() <= lip + 2 * transform_error_bound(g.invariants, math.sqrt(mu))

    def test_a_peak_mid_cell(self):
        # |1_S^(m)| = 2 |cos(16 pi m / n)| peaks at m = 1280 j; on the coarse
        # grid Z_40 the cells hold 512 characters, so m = 1280 lies halfway
        # between the coarse points 1024 and 1536, at the edge of the cell of 1536
        g = FinAbGroup([5 * 2 ** 12])
        S = GroupSet.from_indices(g, [0, 16])
        index = spectrum._zoomed_index(S, 1.0, (40,), *spectrum._arcs(S))
        full = spectrum._full_index(S, 1.0)
        assert cell_of(np.array([1280]), g, (40,))[0] == 1536
        assert 1280 in index.at
        assert np.array_equal(index.at, full.at)
        assert np.allclose(index.moduli, full.moduli, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cycles, sides", [([2 ** 14], [9]), ([128, 128], [3, 5])])
    def test_a_zoomed_index_reads_the_coordinates_once(self, forced, record_calls,
                                                       cycles, sides):
        g = FinAbGroup(cycles)
        S = GroupSet.from_coords(g, np.ndindex(*sides))
        reads = record_calls(spectrum, "_coords")
        with forced(grid="zoom"):
            assert spectrum_index(S, 0.5).grid != g.invariants
        assert len(reads) == 1

    def test_a_cut_wider_than_the_index_raises(self):
        S = interval(FinAbGroup([4096]), 8)
        index = spectrum_index(S, 0.5)
        assert index.serves(0.25) and not index.serves(0.6)
        with pytest.raises(ValueError):
            cut_spectrum(index, 0.6)
        # delta >= sqrt(2) puts the threshold at 0: the index holds every character
        assert spectrum_index(S, 2.0).at.size == 4096

    def test_lspec_zooms_where_the_count_says_so(self, record_calls):
        # lspec has no route of its own: a short interval of Z_2^18 is cut
        # from one zoomed index, with the full transform's members
        S = interval(FinAbGroup([2 ** 18]), 16)
        zooms = record_calls(spectrum, "_zoomed_index")
        spec = lspec(S, 0.5)
        assert len(zooms) == 1
        assert spec.members == cut_spectrum(spectrum._full_index(S, 0.5), 0.5).members

    def test_a_set_spread_over_its_cycle_takes_the_full_grid(self, forced):
        g = FinAbGroup([2 ** 14])
        S = GroupSet.from_indices(g, [0, 1, 2 ** 13, 2 ** 13 + 1])
        with forced(grid="zoom"):
            assert spectrum_index(S, 1.0).grid == g.invariants

    @pytest.mark.parametrize("cycles", [[64], [12, 10], [4, 4, 6]])
    def test_the_rounding_bound_holds_against_the_naive_sums(self, cycles):
        rng = np.random.default_rng(3)
        g = FinAbGroup(cycles)
        S = GroupSet(g, rng.random(g.order) < 0.4)
        fast = transform(S).magnitudes()
        naive = np.abs(oracles.naive_transform(S).values)
        bound = transform_error_bound(g.invariants, math.sqrt(S.measure))
        assert np.abs(fast - naive).max() <= bound + spectrum._direct_error(S.measure, 1)
