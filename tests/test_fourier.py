import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from addcomb.fourier import (convolve, moment, moment_detail,
                             moment_lower_bound_audit, parseval_audit,
                             transform)
from addcomb.groups import FinAbGroup, GroupMismatchError
from addcomb.oracles import naive_transform
from addcomb.sets import GroupSet, sumset


def rand_group(rng, max_order=512):
    rank = int(rng.integers(1, 4))
    cycles = []
    budget = max_order
    for i in range(rank):
        hi = max(2.0, budget ** (1.0 / (rank - i)))
        n = max(2, int(2 ** rng.uniform(1, math.log2(hi)))) if hi > 2 else 2
        cycles.append(n)
        budget = max(2, budget // n)
    return FinAbGroup(cycles)


def rand_set(rng, g, p=None):
    mask = rng.random(g.order) < (p or rng.uniform(0.05, 0.6))
    mask[int(rng.integers(0, g.order))] = True
    return GroupSet(g, mask)


@st.composite
def mirror_inputs(draw):
    """(group, values, as_set): a group of rank 1-3 whose cycles are drawn
    from 2, 3 and other odd and even lengths, and a real function on it,
    a set indicator when as_set."""
    rank = draw(st.integers(1, 3))
    top = {1: 3000, 2: 60, 3: 14}[rank]
    cycles = draw(st.lists(st.one_of(st.sampled_from([2, 3]), st.integers(2, top)),
                           min_size=rank, max_size=rank))
    g = FinAbGroup(cycles)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    as_set = draw(st.booleans())
    if as_set:
        return g, (rng.random(g.order) < rng.uniform(0.02, 0.9)).astype(np.float64), True
    return g, rng.normal(size=g.order), False


class TestTransform:
    def test_delta_gives_constant(self):
        g = FinAbGroup([12])
        vals = transform(GroupSet.singleton(g, 0)).values
        assert np.allclose(vals, 1.0, atol=1e-12)

    def test_full_group_gives_scaled_delta(self):
        g = FinAbGroup([6, 3])
        vals = transform(GroupSet.full(g)).values
        assert vals[0] == pytest.approx(g.order)
        assert np.allclose(vals[1:], 0.0, atol=1e-9)

    def test_interval_closed_form(self):
        # 1_{15,0,1}^ (chi_m) = 1 + 2 cos(2 pi m / 16)
        g = FinAbGroup([16])
        A = GroupSet.from_indices(g, [15, 0, 1])
        vals = transform(A).values
        want = np.array([1 + 2 * math.cos(2 * math.pi * m / 16) for m in range(16)])
        assert np.allclose(vals.real, want, atol=1e-12)
        assert np.allclose(vals.imag, 0.0, atol=1e-12)

    def test_fast_matches_naive_on_random_groups(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(30):
            g = rand_group(rng)
            f = rng.normal(size=g.order)
            fast = transform(f, g).values
            naive = naive_transform(f, g).values
            worst = max(worst, float(np.abs(fast - naive).max()))
        assert worst <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(mirror_inputs())
    def test_real_fft_and_mirror_match_the_complex_fft(self, inputs):
        g, values, as_set = inputs
        fhat = transform(GroupSet(g, values > 0.5) if as_set else values, g)
        # moduli mirrored from the half spectrum, before any value is built
        mags = fhat.magnitudes()
        want = np.fft.fftn(values.reshape(g.invariants, order="F")).ravel(order="F")
        assert float(np.abs(fhat.values - want).max()) <= 1e-9 * max(1.0, float(np.abs(want).max()))
        # the mirror makes |f^(gamma)| = |f^(-gamma)| exact, on every plane,
        # and both ways to the moduli give the same bits
        assert np.array_equal(mags, mags[g.negation_permutation()])
        assert np.array_equal(mags, fhat.magnitudes())
        assert not fhat.values.flags.writeable
        with pytest.raises(ValueError):
            fhat.values[0] = 0.0

    def test_real_even_functions_have_real_transform(self):
        g = FinAbGroup([14])
        A = GroupSet.interval(g, 3)
        vals = transform(A).values
        assert float(np.abs(vals.imag).max()) < 1e-9


class TestConvolve:
    def test_delta_is_unit(self):
        g = FinAbGroup([9])
        rng = np.random.default_rng(0)
        f = rng.normal(size=9)
        out = convolve(GroupSet.singleton(g, 0), f, g)
        assert np.allclose(out, f, atol=1e-12)

    def test_interval_hat_function(self):
        g = FinAbGroup([8])
        A = GroupSet.from_indices(g, [0, 1])
        out = convolve(A, A)
        want = np.zeros(8)
        want[[0, 1, 2]] = (1, 2, 1)
        assert np.array_equal(out, want)  # exact: integer snapping

    def test_support_equals_sumset(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = rand_group(rng, 256)
            A, B = rand_set(rng, g), rand_set(rng, g)
            conv = convolve(A, B)
            assert GroupSet(g, conv >= 0.5) == sumset(A, B, method="direct")

    def test_indicator_values_are_integers(self):
        rng = np.random.default_rng(8)
        g = FinAbGroup([21, 5])
        A, B = rand_set(rng, g), rand_set(rng, g)
        out = convolve(A, B)
        assert np.array_equal(out, np.rint(out))

    def test_convolution_theorem(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = rand_group(rng, 1024)
            A, B = rand_set(rng, g), rand_set(rng, g)
            lhs = transform(convolve(A, B, snap_integers=False), g).values
            rhs = transform(A).values * transform(B).values
            scale = max(1.0, float(np.abs(rhs).max()))
            assert float(np.abs(lhs - rhs).max()) / scale <= 1e-9

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            convolve(GroupSet.full(FinAbGroup([4])), GroupSet.full(FinAbGroup([6])))


class TestParseval:
    def test_two_point_set(self):
        g = FinAbGroup([8])
        audit = parseval_audit(GroupSet.from_indices(g, [0, 1]))
        assert audit.lhs == pytest.approx(2.0, abs=1e-12)
        assert audit.rhs == 2.0
        assert audit.gap <= 1e-9

    def test_zero_function(self):
        g = FinAbGroup([5])
        audit = parseval_audit(np.zeros(5), g)
        assert audit == (0.0, 0.0, 0.0)

    def test_sign_function(self):
        rng = np.random.default_rng(2)
        g = FinAbGroup([12])
        f = rng.choice([-1.0, 1.0], size=12)
        audit = parseval_audit(f, g)
        assert audit.rhs == pytest.approx(12.0)
        assert audit.gap <= 1e-9 * 12


class TestMoment:
    def test_k1_is_measure(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            g = rand_group(rng, 256)
            A = rand_set(rng, g)
            assert moment(A, 1) == pytest.approx(A.measure, rel=1e-9)

    def test_singleton_flat_spectrum(self):
        g = FinAbGroup([11])
        for k in (1, 3, 10):
            assert moment(GroupSet.singleton(g, 0), k) == pytest.approx(1.0)

    def test_against_convolution_square_oracle(self):
        g = FinAbGroup([16])
        A = GroupSet.from_indices(g, [15, 0, 1])
        f2 = convolve(A, A)
        oracle = float(np.sum(f2 ** 2))
        assert oracle == 19.0  # conv values (1,2,3,2,1)
        assert moment(A, 2) == pytest.approx(oracle, rel=1e-6)

    def test_normalized_moments_nonincreasing(self):
        rng = np.random.default_rng(31)
        g = rand_group(rng, 256)
        A = rand_set(rng, g)
        mu = A.measure
        prev = None
        for k in range(1, 8):
            val = moment(A, k) / mu ** (2 * k)
            if prev is not None:
                assert val <= prev * (1 + 1e-9)
            prev = val

    def test_log_space_overflow(self):
        g = FinAbGroup([64])
        A = GroupSet.interval(g, 10)
        k = 200  # mu(A)^400 is far beyond float range
        detail = moment_detail(A, k)
        assert detail.log_space
        assert math.isinf(detail.value)
        assert math.isfinite(detail.log_value)
        assert moment(A, k) == math.inf

    def test_rejects_bad_input(self):
        g = FinAbGroup([8])
        with pytest.raises(ValueError):
            moment(GroupSet.full(g), 0)
        with pytest.raises(ValueError):
            moment(GroupSet.empty(g), 1)


class TestMomentLowerBound:
    def test_singleton_equality(self):
        g = FinAbGroup([7])
        audit = moment_lower_bound_audit(GroupSet.singleton(g, 0), 4)
        assert audit.holds
        assert audit.moment == pytest.approx(audit.bound)

    def test_interval_example(self):
        g = FinAbGroup([16])
        A = GroupSet.from_indices(g, [15, 0, 1])
        audit = moment_lower_bound_audit(A, 2)
        # mu(2A) = 5, so the floor is 3^4 / 5
        assert audit.bound == pytest.approx(81 / 5)
        assert audit.moment == pytest.approx(19.0, rel=1e-9)
        assert audit.holds

    def test_full_group_equality_case(self):
        g = FinAbGroup([12])
        audit = moment_lower_bound_audit(GroupSet.full(g), 3)
        assert audit.holds
        assert audit.moment == pytest.approx(audit.bound, rel=1e-9)

    def test_holds_in_log_space(self):
        g = FinAbGroup([64])
        A = GroupSet.interval(g, 6)
        audit = moment_lower_bound_audit(A, 300)
        assert audit.holds
        assert math.isinf(audit.moment) and math.isinf(audit.bound)
        assert audit.log_moment >= audit.log_bound - 1e-9

    def test_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            g = rand_group(rng, 512)
            A = rand_set(rng, g)
            k = int(rng.integers(1, 13))
            assert moment_lower_bound_audit(A, k).holds
