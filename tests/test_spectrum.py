import cmath
import math

import numpy as np
import pytest

from addcomb import oracles
from addcomb.groups import FinAbGroup
from addcomb.sets import GroupSet
from addcomb.spectrum import lspec, spectral_distance


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
