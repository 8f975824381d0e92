import numpy as np
import pytest

from addcomb.groups import (Character, FinAbGroup, GroupElement,
                            GroupMismatchError)
from addcomb.oracles import phase_numerator_rows, phase_numerators


def test_encoding_roundtrip():
    for cycles in ([5], [4, 2], [3, 5, 2], [2, 2, 2, 2]):
        g = FinAbGroup(cycles)
        for i in range(g.order):
            assert g.encode(g.decode(i)) == i


def test_encoding_is_little_endian():
    g = FinAbGroup([4, 2])
    # first coordinate varies fastest
    assert g.encode((1, 0)) == 1
    assert g.encode((0, 1)) == 4
    assert g.decode(5) == (1, 1)


def test_add_examples():
    g5 = FinAbGroup([5])
    assert (g5.element(3) + g5.element(4)).index == 2
    g = FinAbGroup([4, 2])
    s = g.element((3, 1)) + g.element((1, 1))
    assert s.coords == (0, 0)
    for i in range(g.order):
        assert (g.element(i) + g.zero).index == i


def test_add_group_mismatch():
    a = FinAbGroup([5]).element(1)
    b = FinAbGroup([7]).element(1)
    with pytest.raises(GroupMismatchError):
        a + b


def test_scale_and_negate():
    g = FinAbGroup([12])
    x = g.element(5)
    assert (-x).index == 7
    assert x.scale(3).index == 3
    assert (x - x).index == 0


def test_phase_numerator_examples():
    g4 = FinAbGroup([4])
    assert g4.phase_numerator(1, 1) == 1  # chi_1(1) = i, a quarter turn
    g16 = FinAbGroup([16])
    assert g16.phase_numerator(1, 8) == 8  # exp(2 pi i * 8 / 16) = -1
    for x in range(16):
        assert g16.phase_numerator(0, x) == 0
    g = FinAbGroup([6, 4])  # M = 12: 1*1/6 + 3*1/4 = 11/12
    assert g.phase_denominator == 12
    assert g.phase_numerator(g.encode((1, 3)), g.encode((1, 1))) == 11


def test_character_homomorphism_exhaustive():
    # chi(x + y) = chi(x) chi(y): phases add mod M, full scan on a small product group
    g = FinAbGroup([6, 4])
    M = g.phase_denominator
    for m in range(g.order):
        for xi in range(g.order):
            x = g.element(xi)
            for yi in range(g.order):
                lhs = g.phase_numerator(m, (x + g.element(yi)).index)
                assert lhs == (g.phase_numerator(m, xi) + g.phase_numerator(m, yi)) % M


def test_dual_group_law():
    # (chi_m1 chi_m2)(x) = chi_{m1 + m2}(x), full scan on a small product group
    g = FinAbGroup([6, 4])
    M = g.phase_denominator
    for m1 in range(g.order):
        for m2 in range(g.order):
            m = (g.character(m1) + g.character(m2)).index
            for x in range(g.order):
                assert g.phase_numerator(m, x) == (g.phase_numerator(m1, x)
                                                   + g.phase_numerator(m2, x)) % M


def test_elements_and_characters_keep_their_class():
    g = FinAbGroup([6, 4])
    x, gamma = g.element((1, 3)), g.character((1, 3))
    assert x.index == gamma.index and x.coords == gamma.coords
    assert x != gamma and g.element(0) != g.character(0)
    assert g.element(5) == g.element(5) and hash(g.character(5)) == hash(g.character(5))
    for z in (x + x, -x, x - g.element(2)):
        assert type(z) is GroupElement
    for z in (gamma + gamma, -gamma, gamma - g.character(2)):
        assert type(z) is Character
    assert (gamma - gamma) == g.character(0)
    assert repr(x) == "(1, 3)@Z_6x_4" and repr(gamma) == "chi(1, 3)@Z_6x_4"
    with pytest.raises(AttributeError):
        x.index = 2


def test_phase_numerators_vector_matches_scalar():
    for cycles in ([6, 4], [4, 6, 10], [12, 18]):
        g = FinAbGroup(cycles)
        for m in (1, 7, 23, g.order - 1):
            nums = phase_numerators(g, m)
            for x in range(g.order):
                assert nums[x] == g.phase_numerator(m, x)


def test_phase_numerator_rows_match_one_character_at_a_time():
    # non-coprime cycles, so every later cycle's term is folded in below M
    for cycles in ([1000], [6, 4, 5], [4, 6, 10], [12, 18], [2, 2, 8]):
        g = FinAbGroup(cycles)
        ms = np.arange(g.order)
        rows = phase_numerator_rows(g, ms)
        assert rows.shape == (len(ms), g.order) and rows.dtype == np.int64
        assert rows.min() >= 0 and rows.max() < g.phase_denominator
        for row, m in zip(rows, ms):
            assert np.array_equal(row, phase_numerators(g, int(m)))


def test_order_cap():
    with pytest.raises(ValueError):
        FinAbGroup([2] * 23)  # 2^23 exceeds the default cap
    FinAbGroup([2] * 22)  # exactly at the cap is fine


def test_invalid_cycles():
    with pytest.raises(ValueError):
        FinAbGroup([])
    with pytest.raises(ValueError):
        FinAbGroup([1, 4])
    with pytest.raises(ValueError):
        FinAbGroup([0])


def test_negation_permutation():
    g = FinAbGroup([5, 3])
    perm = g.negation_permutation()
    for i in range(g.order):
        assert perm[i] == (-g.element(i)).index


@pytest.mark.parametrize("cycles", [[2], [7], [12, 5], [2, 3, 4], [3, 3, 2]])
def test_negation_permutation_on_every_rank(cycles):
    g = FinAbGroup(cycles)
    assert np.array_equal(g.negation_permutation(), g.encode_array(-g.coords_table()))


def test_group_equality_and_hash():
    assert FinAbGroup([4, 2]) == FinAbGroup([4, 2])
    assert FinAbGroup([4, 2]) != FinAbGroup([2, 4])
    assert hash(FinAbGroup([8])) == hash(FinAbGroup([8]))
    assert FinAbGroup([6]).dual() == FinAbGroup([6])
