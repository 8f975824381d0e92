import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import addcomb.sets
from addcomb.groups import FinAbGroup, GroupMismatchError
from addcomb.sets import (SUMSET_BLOCK_CELLS, GroupSet, GuardExceededError, Multiples,
                          OperandCache, _box_side, _spectral_box, _sumset_route, difference,
                          growth_profile, iterate, negate, prog, sumset)


def brute_sumset(A: GroupSet, B: GroupSet) -> set[int]:
    """Oracle: double loop over element pairs in plain Python."""
    g = A.group
    out = set()
    for a in A.indices():
        for b in B.indices():
            ca = g.decode(int(a))
            cb = g.decode(int(b))
            out.add(g.encode([x + y for x, y in zip(ca, cb)]))
    return out


def interval16(*vals):
    g = FinAbGroup([16])
    return GroupSet.from_indices(g, [v % 16 for v in vals])


def pairs_sumset(A: GroupSet, B: GroupSet) -> set[int]:
    """Oracle: every pair a + b over A x B, through numpy's own index arithmetic.

    The little-endian element index is the C-order index on the reversed
    cycle list, so unravel/ravel with wraparound add coordinates mod n_j.
    """
    dims = A.group.invariants[::-1]
    ca = np.array(np.unravel_index(A.indices(), dims))
    cb = np.array(np.unravel_index(B.indices(), dims))
    sums = (ca[:, :, None] + cb[:, None, :]).reshape(len(dims), -1)
    return set(np.ravel_multi_index(tuple(sums), dims, mode="wrap").tolist())


@st.composite
def sumset_operands(draw):
    """(A, B, route): sets over a group of rank 1-3, odd and even cycles alike,
    with the smaller size drawn on either side of the cost-model boundary."""
    rank = draw(st.integers(1, 3))
    top = {1: 700, 2: 30, 3: 10}[rank]
    g = FinAbGroup(draw(st.lists(st.integers(2, top), min_size=rank, max_size=rank)))
    big = draw(st.integers(1, g.order))
    by_route = {"direct": [], "spectral": []}
    for small in range(1, big + 1):
        by_route[_sumset_route(small, big, g)].append(small)
    route = draw(st.sampled_from(sorted(r for r, sizes in by_route.items() if sizes)))
    small = draw(st.sampled_from(by_route[route]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = GroupSet.from_indices(g, rng.choice(g.order, size=small, replace=False))
    B = GroupSet.from_indices(g, rng.choice(g.order, size=big, replace=False))
    return A, B, route


@st.composite
def direct_operands(draw):
    """(A, B) for the direct route over a group of rank 1-3: the smaller set
    one short of, at or one past a whole number of blocks of
    SUMSET_BLOCK_CELLS // |big| rows, or a single element; the larger set
    sometimes a divisor of the budget, sometimes all of G."""
    rank = draw(st.integers(1, 3))
    lo, hi = {1: (128, 5000), 2: (12, 70), 3: (6, 17)}[rank]
    g = FinAbGroup(draw(st.lists(st.integers(lo, hi), min_size=rank, max_size=rank)))
    big = draw(st.one_of(
        st.integers(128, g.order),
        st.just(g.order),
        st.sampled_from([b for b in (128, 256, 512, 1024, 2048, 4096) if b <= g.order])))
    rows = max(1, SUMSET_BLOCK_CELLS // big)
    small = draw(st.one_of(
        st.just(1),
        st.builds(lambda k, off: min(big, max(1, k * rows + off)),
                  st.integers(1, 3), st.integers(-1, 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = GroupSet.from_indices(g, rng.choice(g.order, size=small, replace=False))
    B = GroupSet.from_indices(g, rng.choice(g.order, size=big, replace=False))
    return A, B


def arc_set(g: FinAbGroup, arcs, rng=None, density: float = 1.0) -> GroupSet:
    """The product of arcs (start, length), one per cycle, thinned to density
    by rng with its first and last points on every arc kept."""
    grid = np.ones(g.invariants[::-1], dtype=bool)
    if rng is not None:
        grid &= rng.random(grid.shape) < density
    for j, ((start, length), n) in enumerate(zip(arcs, g.invariants)):
        on = np.zeros(n, dtype=bool)
        on[(start + np.arange(length)) % n] = True
        shape = [1] * g.rank
        shape[g.rank - 1 - j] = n
        grid &= on.reshape(shape)
    mask = grid.ravel()
    ends = [np.array([start, start + length - 1]) % n
            for (start, length), n in zip(arcs, g.invariants)]
    mask[g.encode_array(np.array(np.meshgrid(*ends, indexing="ij")), reduced=True)] = True
    return GroupSet(g, mask)


@st.composite
def box_operands(draw):
    """(A, B) over a group of rank 1-3, each the thinned product of one arc
    per cycle: short or long, wrapping through 0 or not; B sometimes A."""
    rank = draw(st.integers(1, 3))
    top = {1: 3000, 2: 80, 3: 20}[rank]
    g = FinAbGroup(draw(st.lists(st.integers(2, top), min_size=rank, max_size=rank)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def operand():
        arcs = [(draw(st.integers(0, n - 1)),
                 draw(st.one_of(st.integers(1, min(n, 9)), st.integers(1, n // 3 + 1),
                                st.integers(1, n))))
                for n in g.invariants]
        return arc_set(g, arcs, rng, draw(st.sampled_from([1.0, 0.5, 0.05])))

    A = operand()
    return A, A if draw(st.booleans()) else operand()


def assert_box_route_exact(A: GroupSet, B: GroupSet, box_sides) -> GroupSet:
    """sumset(A, B, "spectral") on the box of the given sides (None for all
    of G) equals the pairs oracle and the direct route."""
    box = _spectral_box(A, B)
    assert (box if box is None else [m for m, _, _ in box]) == box_sides
    S = sumset(A, B, method="spectral")
    assert set(S.indices()) == pairs_sumset(A, B)
    assert S == sumset(A, B, method="direct")
    return S


class TestSpectralBox:
    @settings(max_examples=250, deadline=None)
    @given(box_operands())
    def test_matches_pairs_oracle_and_direct_route(self, operands):
        A, B = operands
        S = sumset(A, B, method="spectral")
        assert set(S.indices()) == pairs_sumset(A, B)
        assert S == sumset(A, B, method="direct")

    @pytest.mark.parametrize("a,b,side", [
        ((250, 12), (3, 5), 16),     # A wraps through 0
        ((240, 16), (200, 40), 60),  # A ends at n - 1; the sum wraps through 0
        ((255, 1), (255, 2), 2),     # both start at n - 1
        ((0, 30), (226, 40), 72),    # B ends at n - 1, A starts at 0
        ((100, 20), (90, 30), 50),   # no wrapping
    ])
    def test_arcs_through_the_ends_of_the_cycle(self, a, b, side):
        g = FinAbGroup([256])
        S = assert_box_route_exact(arc_set(g, [a]), arc_set(g, [b]), [side])
        assert len(S) == a[1] + b[1] - 1

    def test_one_cropped_axis_and_one_whole(self):
        g = FinAbGroup([512, 6])
        rng = np.random.default_rng(3)
        A = arc_set(g, [(500, 20), (0, 6)], rng, 0.5)
        B = arc_set(g, [(7, 9), (4, 3)], rng, 0.5)
        assert_box_route_exact(A, B, [30, 6])
        # a whole cycle stays whole, however short the partner's arc on it
        assert_box_route_exact(A, arc_set(g, [(7, 9), (4, 2)]), [30, 6])

    @pytest.mark.parametrize("la,lb,side", [
        (9, 8, 16),     # L_A + L_B - 1 5-smooth: the sum fills its grid
        (9, 9, 18),     # one more than a power of two
        (64, 65, 128),  # exactly n / 2
        (65, 65, 135),  # past n / 2, and a box of 135 = 3^3 * 5 still shrinks
        (125, 125, 250),  # the largest 5-smooth side below n = 256
        (126, 126, None),  # 251: no 5-smooth side below n, the cycle stays whole
    ])
    def test_sides_at_and_past_5_smooth_lengths(self, la, lb, side):
        g = FinAbGroup([256])
        rng = np.random.default_rng(la * lb)
        for starts in ((0, 0), (250, 200), (128, 129)):
            A = arc_set(g, [(starts[0], la)], rng, 0.3)
            B = arc_set(g, [(starts[1], lb)], rng, 0.3)
            assert_box_route_exact(A, B, None if side is None else [side])

    def test_degenerate_operands(self):
        g = FinAbGroup([64, 32])
        point = GroupSet.singleton(g, g.encode([63, 31]))
        assert_box_route_exact(point, point, [2, 2])
        assert_box_route_exact(point, GroupSet.singleton(g, 5), [2, 2])
        column = arc_set(g, [(60, 8), (0, 32)])  # a whole second axis
        assert_box_route_exact(column, point, [8, 32])
        assert_box_route_exact(column, column, [15, 32])
        assert_box_route_exact(GroupSet.full(g), point, None)

    def test_operand_passed_twice_is_cropped_and_transformed_once(self, monkeypatch):
        g = FinAbGroup([4096])
        A = GroupSet.interval(g, 100)
        shapes, rfftn = [], np.fft.rfftn
        monkeypatch.setattr(np.fft, "rfftn", lambda a, *args, **kwargs: (
            shapes.append(np.shape(a)) or rfftn(a, *args, **kwargs)))
        assert sumset(A, A, method="spectral") == GroupSet.interval(g, 200)
        assert shapes == [(405,)]

    def test_box_side_is_the_least_5_smooth_length(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        for length in range(1, 5001):
            want = max(2, length)
            while not smooth(want):
                want += 1
            assert _box_side(length) == want

    def test_registered_operand_keeps_its_full_grid_spectrum(self, monkeypatch):
        g = FinAbGroup([4096])
        level = GroupSet.interval(g, 16)
        partners = [GroupSet.interval(g, 8), GroupSet.interval(g, 40)]
        transformed, rfftn = [], np.fft.rfftn
        monkeypatch.setattr(np.fft, "rfftn", lambda a, *args, **kwargs: (
            transformed.append(np.asarray(a).tobytes()) or rfftn(a, *args, **kwargs)))
        cache = OperandCache([level])
        for P in partners:
            S = sumset(level, P, method="spectral", cache=cache)
            assert S == GroupSet.interval(g, 16 + len(P) // 2)
        # each partner passes through uncached, on the full grid too
        assert len(transformed) == 3 and all(len(b) == 8 * g.order for b in transformed)
        assert transformed.count(level.mask.astype(np.float64).tobytes()) == 1


class TestAutoRoute:
    """sumset's auto route probes the box only where the full-grid model picks
    direct, and hands the planned box to the spectral route."""

    @staticmethod
    def dual_arcs():
        # the shape of the 629 + 943 sum of spectra in run_freiman on Z_2^18
        # (interval 16, eps 0.05): two arcs around 0
        g = FinAbGroup([2 ** 18])
        return g, GroupSet.interval(g, 314), GroupSet.interval(g, 471)

    def test_dual_arcs_take_one_convolution_on_their_box(self, record_calls):
        from addcomb import fourier
        g, A, B = self.dual_arcs()
        assert _sumset_route(len(A), len(B), g) == "direct"  # on the full grid
        calls = record_calls(fourier, "convolve")
        S = sumset(A, B)
        assert len(calls) == 1 and calls[0][2].order <= 2048
        assert S == GroupSet.interval(g, 314 + 471) == sumset(A, B, method="direct")
        assert set(S.indices()) == pairs_sumset(A, B)

    def test_probed_sum_plans_its_box_once(self, record_calls):
        g, A, B = self.dual_arcs()
        planned = record_calls(addcomb.sets, "_spectral_box")
        sumset(A, B)
        assert len(planned) == 1

    def test_registered_operand_is_never_probed(self, monkeypatch):
        g, A, B = self.dual_arcs()
        monkeypatch.setattr(addcomb.sets, "_spectral_box",
                            lambda *a: pytest.fail("a registered operand was probed"))
        want = GroupSet.interval(g, 314 + 471)
        for registered in (A, B):
            for method in ("auto", "spectral"):
                assert sumset(A, B, method, cache=OperandCache([registered])) == want

    def test_forced_methods_never_probe(self, record_calls):
        g, A, B = self.dual_arcs()
        planned = record_calls(addcomb.sets, "_spectral_box")
        assert sumset(A, B, method="direct") == GroupSet.interval(g, 314 + 471)
        assert planned == []
        # the spectral route plans its own box, once
        assert sumset(A, B, method="spectral") == GroupSet.interval(g, 314 + 471)
        assert len(planned) == 1


class TestSumset:
    def test_wraparound_example(self):
        A = interval16(15, 0, 1)
        S = sumset(A, A)
        assert set(S.indices()) == {14, 15, 0, 1, 2}
        assert S.measure == 5
        assert set(S.indices()) == brute_sumset(A, A)

    def test_identity_element(self):
        g = FinAbGroup([9, 3])
        A = GroupSet.from_indices(g, [0, 5, 13, 20])
        assert sumset(A, GroupSet.singleton(g, 0)) == A

    def test_small_example(self):
        g = FinAbGroup([5])
        S = sumset(GroupSet.from_indices(g, [1, 2]), GroupSet.from_indices(g, [0, 1]))
        assert sorted(S.indices()) == [1, 2, 3]

    def test_empty_operand(self):
        g = FinAbGroup([8])
        A = GroupSet.from_indices(g, [1])
        assert sumset(A, GroupSet.empty(g)).cardinality == 0

    @pytest.mark.parametrize("method", ["auto", "direct", "spectral"])
    def test_zero_operand_runs_no_route(self, monkeypatch, method):
        from addcomb import fourier
        for name, module in (("_coords", addcomb.sets), ("convolve", fourier)):
            monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("a route ran"))
        rng = np.random.default_rng(41)
        for cycles in ([2], [97], [10, 12], [5, 4, 6]):
            g = FinAbGroup(cycles)
            zero = GroupSet.singleton(g, 0)
            some = GroupSet(g, rng.random(g.order) < 0.3) | GroupSet.singleton(g, g.order - 1)
            for S in (zero, some, GroupSet.full(g)):
                for A, B in ((zero, S), (S, zero)):
                    out = sumset(A, B, method)
                    assert out is S
                    assert set(out.indices()) == pairs_sumset(A, B)
            with pytest.raises(ValueError):
                sumset(zero, some, "bogus")

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            sumset(GroupSet.full(FinAbGroup([4])), GroupSet.full(FinAbGroup([5])))

    def test_direct_and_spectral_routes_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = FinAbGroup([int(rng.integers(2, 17)), int(rng.integers(2, 17))])
            A = GroupSet(g, rng.random(g.order) < rng.uniform(0.05, 0.7))
            B = GroupSet(g, rng.random(g.order) < rng.uniform(0.05, 0.7))
            d = sumset(A, B, method="direct")
            s = sumset(A, B, method="spectral")
            assert d == s
            if A.cardinality and B.cardinality:
                assert set(d.indices()) == brute_sumset(A, B)

    @settings(max_examples=80, deadline=None)
    @given(sumset_operands())
    def test_all_routes_agree_with_brute_force(self, operands):
        A, B, route = operands
        auto = sumset(A, B)
        assert auto == sumset(B, A, method="direct") == sumset(A, B, method="spectral")
        assert set(auto.indices()) == pairs_sumset(A, B)
        assert _sumset_route(A.cardinality, B.cardinality, A.group) == route

    @settings(max_examples=120, deadline=None)
    @given(direct_operands())
    def test_blocked_direct_route_matches_pairs_oracle(self, operands):
        A, B = operands
        direct = sumset(A, B, method="direct")
        assert set(direct.indices()) == pairs_sumset(A, B)
        assert sumset(B, A, method="direct") == direct

    def test_block_edges_on_a_small_budget(self, monkeypatch):
        # several short blocks, the last one partial, on every rank
        monkeypatch.setattr(addcomb.sets, "SUMSET_BLOCK_CELLS", 7)
        rng = np.random.default_rng(23)
        for cycles in ([97], [10, 12], [5, 4, 6]):
            g = FinAbGroup(cycles)
            for small, big in ((1, 3), (2, 3), (3, 3), (4, 8), (7, 7), (9, 40), (11, g.order)):
                A = GroupSet.from_indices(g, rng.choice(g.order, size=small, replace=False))
                B = GroupSet.from_indices(g, rng.choice(g.order, size=big, replace=False))
                assert set(sumset(A, B, method="direct").indices()) == pairs_sumset(A, B)

    def test_cache_builds_each_registered_operand_once(self, monkeypatch):
        rng = np.random.default_rng(31)
        g = FinAbGroup([12, 20])
        level = GroupSet(g, rng.random(g.order) < 0.3)
        others = [GroupSet(g, rng.random(g.order) < 0.2) for _ in range(3)]
        calls = [(A, S, method) for method in ("direct", "spectral")
                 for A in others for S in (level, others[0])]
        expected = [sumset(A, S, method) for A, S, method in calls]
        coords_built, transformed = [], []
        coords, rfftn = addcomb.sets._coords, np.fft.rfftn
        monkeypatch.setattr(addcomb.sets, "_coords",
                            lambda S: coords_built.append(S) or coords(S))
        monkeypatch.setattr(np.fft, "rfftn", lambda a, *args, **kwargs: (
            transformed.append(np.asarray(a).tobytes()) or rfftn(a, *args, **kwargs)))
        cache = OperandCache([level, others[0]])
        cache.forget(others[0])
        assert [sumset(A, S, method, cache=cache) for A, S, method in calls] == expected
        assert [S is level for S in coords_built].count(True) == 1
        assert transformed.count(level.mask.astype(np.float64).tobytes()) == 1
        # once in each of its four spectral sums: forgotten, and passed as
        # both operands of one of them
        assert transformed.count(others[0].mask.astype(np.float64).tobytes()) == 4
        assert len(transformed) == 1 + 4 + 2 + 2

    @pytest.mark.parametrize("cycles,small,big,route", [
        ([2 ** 18], 8193, 24577, "spectral"),  # direct 0.61 s, FFT 17 ms
        ([2 ** 18], 10, 100000, "direct"),      # direct 4.0 ms, FFT 23 ms
        ([4096], 50, 200, "direct"),            # direct 0.078 ms, FFT 0.23 ms
        ([4096], 2, 200, "direct"),
        ([4096], 256, 1024, "spectral"),        # direct 1.2 ms, FFT 0.15 ms
    ])
    def test_cost_model_routes(self, cycles, small, big, route):
        assert _sumset_route(small, big, FinAbGroup(cycles)) == route

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(5)
        g = FinAbGroup([8, 4])
        for _ in range(10):
            A = GroupSet(g, rng.random(g.order) < 0.2)
            B = GroupSet(g, rng.random(g.order) < 0.2)
            C = GroupSet(g, rng.random(g.order) < 0.2)
            assert sumset(A, B) == sumset(B, A)
            assert sumset(sumset(A, B), C) == sumset(A, sumset(B, C))

    def test_contains_operands_with_zero(self):
        g = FinAbGroup([30])
        A = GroupSet.from_indices(g, [2, 7, 11])
        B = GroupSet.from_indices(g, [0, 4])
        S = sumset(A, B)
        assert A.is_subset_of(S)
        assert S.measure >= max(A.measure, B.measure)


class TestNegate:
    def test_examples(self):
        g = FinAbGroup([5])
        assert sorted(negate(GroupSet.from_indices(g, [1, 2])).indices()) == [3, 4]
        sym = GroupSet.from_indices(g, [0, 1, 4])
        assert negate(sym) == sym
        z = GroupSet.singleton(g, 0)
        assert negate(z) == z

    def test_involution(self):
        rng = np.random.default_rng(3)
        g = FinAbGroup([6, 5])
        A = GroupSet(g, rng.random(g.order) < 0.3)
        assert negate(negate(A)) == A


def pairs_multiple(n: int, A: GroupSet) -> GroupSet:
    """Oracle: nA as n - 1 all-pairs sums with A."""
    out = A
    for _ in range(n - 1):
        out = GroupSet.from_indices(A.group, pairs_sumset(out, A))
    return out


def doubling_sumsets(n: int, A: GroupSet) -> int:
    """How many sumsets binary doubling with a full-group exit makes for nA."""
    full = GroupSet.full(A.group)
    made, result, power = 0, None, A
    while n:
        if n & 1:
            if result is None:
                result = power
            else:
                result, made = sumset(result, power), made + 1
            if result == full:
                return made
        n >>= 1
        if n:
            power, made = sumset(power, power), made + 1
    return made


class TestMultiples:
    def test_matches_oracle_in_any_order(self):
        g = FinAbGroup([9, 7])
        A = GroupSet.from_indices(g, [0, 1, 10, 20])
        multiples = Multiples(A)
        for n in (5, 2, 12, 3, 9, 1, 24):
            assert multiples[n] == pairs_multiple(n, A)

    @pytest.mark.parametrize("cycles", [[61], [256], [6, 10], [2, 32], [4, 3, 5], [2, 2, 16]])
    def test_fresh_multiple_matches_oracle_within_doubling_budget(self, record_calls,
                                                                  cycles):
        g = FinAbGroup(cycles)
        rng = np.random.default_rng(g.order)
        A = GroupSet.from_indices(g, rng.choice(g.order, size=3, replace=False))
        budget = [doubling_sumsets(n, A) for n in range(17)]
        sums = record_calls(addcomb.sets, "sumset")
        for n in range(2, 17):
            before = len(sums)
            assert Multiples(A)[n] == pairs_multiple(n, A)
            assert len(sums) - before <= budget[n]

    def test_saturation_is_kept(self):
        g = FinAbGroup([16])
        multiples = Multiples(GroupSet.from_indices(g, [0, 1, 2, 3]))
        assert multiples[5] == GroupSet.full(g)
        assert multiples[40] == GroupSet.full(g)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Multiples(interval16(0, 1))[0]

    @pytest.mark.parametrize("n", [2.5, 2.0, 1.0, True, "2", -1])
    def test_rejects_a_non_integer_n(self, n):
        # a float n used to halve its way down to "n >= 1, got 0.0"
        with pytest.raises(ValueError, match="integer n >= 1"):
            Multiples(interval16(0, 1))[n]


class TestIterate:
    def test_triple_wraparound(self):
        A = interval16(15, 0, 1)
        S = iterate(3, A)
        # oracle: brute triple loop
        want = brute_sumset(GroupSet.from_indices(A.group, brute_sumset(A, A)), A)
        assert set(S.indices()) == want == {13, 14, 15, 0, 1, 2, 3}
        assert S.measure == 7

    def test_single_copy(self):
        A = interval16(2, 5)
        assert iterate(1, A) == A

    def test_identity_fixed_point(self):
        g = FinAbGroup([9])
        z = GroupSet.singleton(g, 0)
        assert iterate(17, z) == z

    def test_doubling_consistency(self):
        rng = np.random.default_rng(9)
        g = FinAbGroup([40])
        A = GroupSet(g, rng.random(g.order) < 0.1)
        for m, n in ((1, 2), (2, 3), (3, 4)):
            assert iterate(m + n, A) == sumset(iterate(m, A), iterate(n, A))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            iterate(0, interval16(0))


class TestProg:
    def test_two_generator_example(self):
        g = FinAbGroup([16])
        P = prog([g.element(3), g.element(5)], 1)
        # oracle: all 3^2 sign vectors; +8 and -8 coincide mod 16, so 8 members
        want = {(s1 * 3 + s2 * 5) % 16 for s1 in (-1, 0, 1) for s2 in (-1, 0, 1)}
        assert set(P.indices()) == want == {0, 2, 3, 5, 8, 11, 13, 14}
        assert P.measure == 8

    def test_radius_zero(self):
        g = FinAbGroup([16])
        assert prog([g.element(3)], 0) == GroupSet.singleton(g, 0)

    def test_empty_generators(self):
        g = FinAbGroup([16])
        assert prog([], 5, group=g) == GroupSet.singleton(g, 0)
        with pytest.raises(ValueError):
            prog([], 5)

    def test_contains_zero_and_symmetric(self):
        g = FinAbGroup([12, 3])
        P = prog([g.element(7), g.element(20)], 2)
        assert P.contains_zero()
        assert P.is_symmetric()

    def test_subadditive_in_radius(self):
        g = FinAbGroup([64])
        T = [g.element(3), g.element(11)]
        lhs = sumset(prog(T, 1), prog(T, 2))
        assert lhs.is_subset_of(prog(T, 3))

    def test_guard(self):
        g = FinAbGroup([2, 2, 2])
        with pytest.raises(GuardExceededError):
            prog([g.element(1)] * 25, 1)

    def test_generator_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            prog([FinAbGroup([4]).element(1), FinAbGroup([6]).element(1)], 1)


class TestGrowthProfile:
    def test_interval_linear_growth(self):
        g = FinAbGroup([64])
        A = GroupSet.from_indices(g, [63, 0, 1])
        prof = growth_profile(Multiples(A), d=1.0, n_max=12)
        # mu(nA) = 2n+1 <= 3n for every n >= 1, wraparound only saturates
        for row in prof.rows:
            assert row.mu_nA == min(2 * row.n + 1, 64)
            assert row.satisfied
        assert prof.satisfied_on_window

    def test_full_group_saturation(self):
        g = FinAbGroup([10])
        prof = growth_profile(Multiples(GroupSet.full(g)), d=0.5, n_max=4)
        assert all(r.mu_nA == 10 for r in prof.rows)
        assert all(r.satisfied for r in prof.rows)
        assert prof.saturated

    def test_large_d_always_satisfied(self):
        g = FinAbGroup([32])
        A = GroupSet.from_indices(g, [0, 1, 5, 11])
        prof = growth_profile(Multiples(A), d=6.0, n_max=6)
        assert all(r.satisfied for r in prof.rows if r.n >= 2)

    def test_window_start(self):
        g = FinAbGroup([32])
        A = GroupSet.from_indices(g, [0, 1])
        assert growth_profile(Multiples(A), 1.0, 4).window_start == 1
        assert growth_profile(Multiples(A), 3.0, 4).window_start == math.ceil(3 * math.log(3))

    def test_violation_detected(self):
        g = FinAbGroup([128])
        A = GroupSet.from_indices(g, [0, 1, 17, 40, 77])  # scattered: fast growth
        prof = growth_profile(Multiples(A), d=0.3, n_max=4)
        assert not prof.satisfied_on_window

    def test_measures_nondecreasing_and_capped(self):
        rng = np.random.default_rng(14)
        g = FinAbGroup([48])
        A = GroupSet(g, rng.random(48) < 0.1)
        if A.cardinality == 0:
            A = GroupSet.singleton(g, 3)
        prof = growth_profile(Multiples(A), 1.0, 8)
        mus = [r.mu_nA for r in prof.rows]
        assert mus == sorted(mus)
        assert all(m <= g.order for m in mus)

    def test_rejects_bad_input(self):
        g = FinAbGroup([8])
        with pytest.raises(ValueError):
            growth_profile(Multiples(GroupSet.empty(g)), 1.0, 4)
        with pytest.raises(ValueError):
            growth_profile(Multiples(GroupSet.full(g)), 1.0, 1)


class TestGroupSetBasics:
    def test_interval_and_linf(self):
        g = FinAbGroup([17, 17])
        B = GroupSet.linf_ball(g, 2)
        assert B.measure == 25
        with pytest.raises(ValueError):
            GroupSet.interval(g, 1)
        c = FinAbGroup([10])
        assert sorted(GroupSet.interval(c, 2).indices()) == [0, 1, 2, 8, 9]

    def test_translate(self):
        g = FinAbGroup([4, 3])
        A = GroupSet.from_coords(g, [(0, 0), (1, 2)])
        t = g.element((2, 1))
        shifted = A.translate(t)
        assert sorted(shifted.coords_list()) == sorted([(2, 1), (3, 0)])

    def test_symmetry_predicates(self):
        g = FinAbGroup([9])
        assert GroupSet.interval(g, 3).is_symmetric()
        assert not GroupSet.from_indices(g, [0, 1]).is_symmetric()
        assert GroupSet.interval(g, 1).contains_zero()

    def test_difference(self):
        g = FinAbGroup([20])
        A = GroupSet.from_indices(g, [3, 5])
        D = difference(A, A)
        assert set(D.indices()) == {0, 2, 18}

    def test_symmetric_difference_is_transformed_once(self, monkeypatch):
        g = FinAbGroup([4096])
        B = GroupSet.interval(g, 100)
        shapes, rfftn = [], np.fft.rfftn
        monkeypatch.setattr(np.fft, "rfftn", lambda a, *args, **kwargs: (
            shapes.append(np.shape(a)) or rfftn(a, *args, **kwargs)))
        assert difference(B, B) == GroupSet.interval(g, 200)
        assert shapes == [(405,)]
        A = GroupSet.from_indices(g, [7, 4000])
        assert set(difference(A, B).indices()) == pairs_sumset(A, negate(B))
